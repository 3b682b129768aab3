package rmi_test

import (
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/clustertest"
	"repro/internal/rmi"
)

// methodsGolden is the protocol method table as it must stay: a name's
// position is its wire id, so the only legal edit is to append — to the
// table and to this list.
var methodsGolden = []string{
	"InvokeBatch", "core.getbatch", "Append", "Dirty", "Clean",
	"RingState", "Manifest", "Shards", "ShardInfo", "SetRing", "Epoch", "Arrive", "Depart", "Install", "Promote",
	"Bind", "Rebind", "Unbind", "Lookup", "List", "Bound", "Forward", "Snapshot",
	"Scrape", "NumSessions", "ReplayShadow", "SetShipHook", "Stop",
	"Push",
}

// TestProtocolMethodTable holds the table to the golden and to what a full
// serving member runs: every method its system services dispatch and every
// stream service it serves travels by index.
func TestProtocolMethodTable(t *testing.T) {
	table := rmi.ProtocolMethods()
	n := min(len(table), len(methodsGolden))
	if !slices.Equal(table[:n], methodsGolden[:n]) || len(table) < len(methodsGolden) {
		t.Fatalf("the protocol method table was reordered or cut — it is append-only:\n  table  %q\n  golden %q", table, methodsGolden)
	}
	if len(table) > len(methodsGolden) {
		t.Errorf("names appended to the table (%q): append them to methodsGolden too", table[len(methodsGolden):])
	}
	for i, name := range table {
		if slices.Index(table, name) != i {
			t.Errorf("protocol method %q is listed twice", name)
		}
	}
	c := clustertest.New(t, 1)
	for _, name := range rmi.SystemNames(c.Servers[0].Peer) {
		if !slices.Contains(table, name) {
			t.Errorf("system method or stream service %q is not in the protocol method table: every call would spell it out", name)
		}
	}
}

// TestCallMethodWireForm: a system call names its method by table index, an
// application call by string, and the string form of a system method — what
// a sender without the table writes — still decodes.
func TestCallMethodWireForm(t *testing.T) {
	for _, c := range []struct {
		name   string
		objID  uint64
		method string
		want   string
	}{
		// kStd 0 (rmi.call.req), 2 fields: kUint 2 (the object), kUint 0 (the method).
		{"system call", rmi.BatchObjID, "InvokeBatch", "130002" + "0502" + "0500"},
		// The same name on an application object is an application method.
		{"application call", rmi.FirstUserObjID, "InvokeBatch", "130002" + "0510" + "080b" + hex.EncodeToString([]byte("InvokeBatch"))},
		// A system object's method the table does not list.
		{"unlisted system method", rmi.BatchObjID, "Frobnicate", "130002" + "0502" + "080a" + hex.EncodeToString([]byte("Frobnicate"))},
	} {
		b, err := rmi.MarshalCall(c.objID, c.method)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != c.want {
			t.Errorf("%s: encoded %s, want %s", c.name, got, c.want)
		}
		if m, err := rmi.UnmarshalCallMethod(b); err != nil || m != c.method {
			t.Errorf("%s: decoded method %q, %v", c.name, m, err)
		}
	}
	named, _ := hex.DecodeString("130002" + "0502" + "080b" + hex.EncodeToString([]byte("InvokeBatch")))
	if m, err := rmi.UnmarshalCallMethod(named); err != nil || m != "InvokeBatch" {
		t.Errorf("string-form system call decoded to %q, %v", m, err)
	}
	past, _ := hex.DecodeString("130002" + "0502" + "0564")
	if m, err := rmi.UnmarshalCallMethod(past); err == nil {
		t.Errorf("method index 100 past the table decoded to %q", m)
	}
}
