package rmi

import "repro/internal/wire"

// methods.go: the protocol method table. The methods the repository's own
// system services export (object ids below FirstUserObjID) and its stream
// services are named here once, and a call or stream request to one of them
// names it by its index — a kUint where an application call has a kStr —
// on the model of the wire package's standard type table. "InvokeBatch"
// costs a flush 2 bytes instead of 13.
//
// The list is APPEND-ONLY. A name's position is its wire id, so reordering
// or removing an entry changes what bytes already on the wire mean; a new
// system method goes at the end (TestProtocolMethodTable pins the list and
// holds it to the services a serving peer runs). A string still decodes, so
// a name missing from the table only costs its bytes.
var protocolMethods = [...]string{
	// Every flush, get-batch and replicated wave carries one of these.
	"InvokeBatch",
	"core.getbatch",
	"Append",
	// Leases.
	"Dirty",
	"Clean",
	// Membership, placement and replication.
	"RingState",
	"Manifest",
	"Shards",
	"ShardInfo",
	"SetRing",
	"Epoch",
	"Arrive",
	"Depart",
	"Install",
	"Promote",
	// The registry.
	"Bind",
	"Rebind",
	"Unbind",
	"Lookup",
	"List",
	"Bound",
	"Forward",
	"Snapshot",
	// The stats scrape, and the executor's remaining exports.
	"Scrape",
	"NumSessions",
	"ReplayShadow",
	"SetShipHook",
	"Stop",
	// A value crossing from its producer's server to its consumer's.
	"Push",
}

// protocolMethodID maps a table name to its index.
var protocolMethodID = func() map[string]uint64 {
	m := make(map[string]uint64, len(protocolMethods))
	for i, name := range protocolMethods {
		m[name] = uint64(i)
	}
	return m
}()

// encMethod writes a method or stream-service name: by its table index when
// it is a protocol name, as a string otherwise. Only system calls consult
// the table, so an application call pays no lookup.
func encMethod(x wire.Enc, name string, system bool) {
	if system {
		if i, ok := protocolMethodID[name]; ok {
			x.Uint(i)
			return
		}
	}
	x.Str(name)
}

// decMethod reads what encMethod wrote, in either form.
func decMethod(x wire.Dec) (string, error) { return x.Name(protocolMethods[:]) }
