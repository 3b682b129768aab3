package wire

// standard.go: the standard type table. The repository's own protocol types
// are named here once, and both peers compile the list in, so a message
// refers to one of them by its index (kStd) instead of spelling its wire name
// out in a kTypeDef — the model is HPACK's static table for HTTP/2 headers.
// A frame stays self-contained: the table is part of the wire format, not
// state a connection builds up.
//
// The list is APPEND-ONLY. A name's position is its wire id, so reordering or
// removing an entry changes what bytes already on the wire mean; a new
// protocol type goes at the end. The list holds every name non-test code under
// internal/ registers with the prefixes rmi., brmi., cluster., registry.,
// stats. and wire. (pinned by standard_test.go); every other type — an
// application's, a test's — travels by name as before, and a named definition
// of a standard type still decodes.
var standardTypes = [...]string{
	// The call envelopes and the flush request and reply: every batch round
	// trip carries these.
	"rmi.call.req",
	"rmi.call.resp",
	"brmi.req",
	"brmi.inv", // retired: refused on decode, its index reserved (see brmi.call)
	"brmi.arg",
	"brmi.resp",
	"brmi.result",
	"brmi.ship",
	// Response streams and Get-Batch.
	"rmi.stream.req",
	"brmi.getbatch.req",
	"brmi.getbatch.entry",
	"brmi.getbatch.elsewhere",
	// Exception policies and batch errors.
	"brmi.policy",
	"brmi.rule",
	"brmi.SessionExpired",
	"brmi.KindMismatch",
	"brmi.UnresolvedRef",
	"brmi.BatchError",
	"rmi.NoSuchObject",
	"rmi.NoSuchMethod",
	"rmi.WrongHome",
	// Membership, placement and replication.
	"cluster.ringSnapshot",
	"cluster.binding",
	"cluster.replRecord",
	"cluster.shardInfo",
	"cluster.nameInfo",
	"cluster.OrphanedShard",
	"cluster.StaleShip",
	"cluster.Quorum",
	"cluster.FollowerError",
	"cluster.ShipReply",
	// The registry, the stats scrape and the codec's own error.
	"registry.AlreadyBound",
	"registry.NotBound",
	"stats.NamedValue",
	"stats.NamedHist",
	"stats.Snapshot",
	"wire.Corrupt",
	// Values pushed between the destinations of one flush.
	"brmi.push",
	"brmi.PushTimeout",
	"brmi.RendezvousFull",
	// The positional call form of a flush request, which replaced brmi.inv.
	"brmi.call",
	// A message no service of the serving peer handles (rmi.Peer.Send).
	"rmi.NoHandler",
	// A ring a node refused to adopt (cluster.Node.SetRing).
	"cluster.RingRefused",
	// A call argument another destination of the flush pushes (core.Pushed),
	// which replaced brmi.arg's pushed flag.
	"brmi.pushed",
}

// standardIndex is name's index in the standard table, or -1. It scans the
// table, so it runs where a name is first met — Register, and a BeginStruct
// name an encoder has not seen (encoder.stdIndex) — never per struct.
func standardIndex(name string) int {
	for i, s := range standardTypes {
		if s == name {
			return i
		}
	}
	return -1
}
