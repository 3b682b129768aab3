package wire_test

// The standard type table is the protocol: this binary links every package
// that registers a protocol type, so the table and the registrations can be
// held to each other.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	_ "repro/internal/cluster"
	_ "repro/internal/core"
	_ "repro/internal/registry"
	_ "repro/internal/rmi"
	_ "repro/internal/stats"
	"repro/internal/wire"
)

// standardGolden is the table as it must stay: a name's position is its wire
// id, so the only legal edit is to append — to the table and to this list.
var standardGolden = []string{
	"rmi.call.req", "rmi.call.resp", "brmi.req", "brmi.inv", "brmi.arg", "brmi.resp", "brmi.result", "brmi.ship",
	"rmi.stream.req", "brmi.getbatch.req", "brmi.getbatch.entry", "brmi.getbatch.elsewhere",
	"brmi.policy", "brmi.rule", "brmi.SessionExpired", "brmi.KindMismatch", "brmi.UnresolvedRef", "brmi.BatchError",
	"rmi.NoSuchObject", "rmi.NoSuchMethod", "rmi.WrongHome",
	"cluster.ringSnapshot", "cluster.binding", "cluster.replRecord", "cluster.shardInfo", "cluster.nameInfo",
	"cluster.OrphanedShard", "cluster.StaleShip", "cluster.Quorum", "cluster.FollowerError", "cluster.ShipReply",
	"registry.AlreadyBound", "registry.NotBound", "stats.NamedValue", "stats.NamedHist", "stats.Snapshot",
	"wire.Corrupt",
}

// protocolPrefixes are the wire-name prefixes of the repository's own
// packages: a type registered under one is a protocol message and belongs in
// the table.
var protocolPrefixes = []string{"rmi.", "brmi.", "cluster.", "registry.", "stats.", "wire."}

func TestStandardTableIsTheProtocol(t *testing.T) {
	table := wire.StandardTypes()
	n := min(len(table), len(standardGolden))
	if !slices.Equal(table[:n], standardGolden[:n]) || len(table) < len(standardGolden) {
		t.Fatalf("the standard table was reordered or cut — it is append-only:\n  table  %q\n  golden %q", table, standardGolden)
	}
	if len(table) > len(standardGolden) {
		t.Errorf("names appended to the table (%q): append them to standardGolden too", table[len(standardGolden):])
	}

	registered := wire.RegisteredNames()
	for i, name := range table {
		if !slices.Contains(registered, name) {
			t.Errorf("standard type %d (%q) is not registered by any protocol package", i, name)
		}
		if slices.Index(table, name) != i {
			t.Errorf("standard type %q is listed twice", name)
		}
	}
	for _, name := range registered {
		for _, p := range protocolPrefixes {
			if strings.HasPrefix(name, p) && !slices.Contains(table, name) {
				t.Errorf("protocol type %q is registered but not in the standard table: every frame would spell its name out", name)
			}
		}
	}
}

// An index this binary does not know — a newer peer's type — is an
// unregistered type, like an unknown name, wherever a struct can appear.
func TestUnknownStandardIndex(t *testing.T) {
	past := len(wire.StandardTypes())
	for _, c := range []struct {
		name string
		msg  []byte
		idx  string
	}{
		{"one past the table", []byte{wire.KStd, byte(past), 0}, fmt.Sprint(past)},
		{"2^35", []byte{wire.KStd, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0}, fmt.Sprint(uint64(1) << 35)},
		// brmi.req whose one call is of an unknown type: the compiled decoder's
		// StructFields meets it.
		{"inside a compiled message", []byte{wire.KStd, 2, 2, 5, 0, 10, 1, wire.KStd, 99, 0}, "99"},
	} {
		v, err := wire.Unmarshal(c.msg)
		if !errors.Is(err, wire.ErrUnregistered) || !strings.Contains(err.Error(), "standard type "+c.idx) {
			t.Errorf("%s: decoded %v, %v; want ErrUnregistered naming standard type %s", c.name, v, err, c.idx)
		}
	}
}
