package cluster_test

// Every wave of a cluster flush is a self-contained request: a fresh batch per
// destination, ended with Flush. These tests pin what that takes away — no
// server session anywhere, on a primary or a follower — and what it keeps: a
// remote result a later wave consumes on its own server still arrives as the
// object itself. They also pin the one shape replication refuses for it.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestReplicatedTwoWaveFlushLeavesNoSession: a replicated destination's second
// wave settles locally — its one call depends on a result that threw — so no
// request reaches it in that wave. No server, primary or follower, may hold a
// session afterwards: one a wave kept would outlive the flush until the
// session TTL, a shadow session on every follower.
func TestReplicatedTwoWaveFlushLeavesNoSession(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	place(t, ec, dir, a)
	boomRef, err := ec.Server("server-3").Peer.Export(&boom{}, "cluster.Boom")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		pa, err := b.RootNamed(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		pa.Call("Add", int64(1))               // wave 0 on a's primary, replicated
		g := b.Root(boomRef).CallBatch("Boom") // wave 0 elsewhere: throws
		dep := pa.Call("AddRemote", g)         // wave 1 on a's primary: settles locally
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if dep.Err() == nil {
			t.Fatal("the dependent call settled without its producer's error")
		}
	}
	if got := counterAt(t, ec, "server-0", a).Get(); got != n {
		t.Fatalf("%s = %d, want %d: every first wave applied once", a, got, n)
	}
	for _, s := range ec.Servers {
		if got := s.Exec.NumSessions(); got != 0 {
			t.Errorf("%s holds %d sessions after %d replicated two-wave flushes, want 0", s.Endpoint, got, n)
		}
	}
}

// TestReplicatedReuseRefused: a replicated destination that consumes, in a
// later wave, a remote result it produced in an earlier one cannot be
// replicated wave by wave — a follower replays each wave on its own. The flush
// is refused with *UnreplicableError before anything is sent; the same
// recording flushes at R=1, where nothing replicates.
func TestReplicatedReuseRefused(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	bb := nameWhere(t, dir, "b", "server-1", anyOwners)
	place(t, ec, dir, a, bb)
	record := func(b *cluster.Batch) *cluster.Future {
		pa, err := b.RootNamed(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.RootNamed(ctx, bb)
		if err != nil {
			t.Fatal(err)
		}
		r := pa.CallBatch("Fork", int64(1))                        // wave 0 on server-0
		return r.Call("AddRemote", pb.CallBatch("Fork", int64(5))) // wave 1: r again, on server-0
	}
	executed := func() (total int64) {
		for _, s := range ec.Servers {
			total += s.Stats.Snapshot().Counter("core.calls_executed")
		}
		return total
	}

	calls, ran := ec.Client.CallCount(), executed()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	f := record(b)
	err := b.Flush(ctx)
	var refused *cluster.UnreplicableError
	if !errors.As(err, &refused) || refused.Endpoint != "server-0" || refused.Method != "AddRemote" || refused.Producer != "Fork" {
		t.Fatalf("flush = %T %v, want *UnreplicableError for AddRemote on server-0", err, err)
	}
	if !errors.As(f.Err(), &refused) {
		t.Errorf("consumer = %v, want the refusal", f.Err())
	}
	if got := ec.Client.CallCount() - calls; got != 0 {
		t.Errorf("the refused flush made %d calls, want none", got)
	}
	if got := executed() - ran; got != 0 {
		t.Errorf("the refused flush executed %d calls, want none", got)
	}

	one := cluster.NewDirectory(ec.Client, ec.Endpoints())
	for _, name := range []string{a, bb} {
		if home, _ := one.Home(name); home != nameHome(dir, name) {
			t.Fatalf("setup: %s homes at %s at R=1", name, home)
		}
	}
	b = cluster.New(ec.Client, cluster.WithDirectory(one))
	f = record(b)
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("R=1 flush: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 6 {
		t.Errorf("R=1 AddRemote = %v, %v; want 6", v, err)
	}
	if w := b.Waves(); w != 2 {
		t.Errorf("R=1 flush took %d waves, want 2", w)
	}
}

// typer reports the dynamic types it is handed, and whether it is an object
// Make made.
type typer struct {
	rmi.RemoteBase
	made bool
}

// Make returns a new object, a remote result.
func (x *typer) Make() *typer { return &typer{made: true} }

// Kinds reports whether the target is a made object, then the %T of a and b.
func (x *typer) Kinds(a, b any) string { return fmt.Sprintf("%t %T %T", x.made, a, b) }

// TestPinnedResultArrivesAsItself: a remote result that a later wave consumes
// on its own server enters that wave as a root, and the server resolves it to
// the object itself — as target and as argument — where a result from another
// server arrives as a stub. Its lease drops when the flush ends, and no
// request of the two-wave flush carries a session id or asks to keep one.
func TestPinnedResultArrivesAsItself(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	export := func(i int) wire.Ref {
		ref, err := ec.Servers[i].Peer.Export(&typer{}, "clustertest.Typer")
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	hereRef, thereRef := export(0), export(1)
	client, tap := tappedClient(t, ec)

	b := cluster.New(client)
	t0, t1 := b.Root(hereRef), b.Root(thereRef)
	r := t0.CallBatch("Make")         // wave 0 on server-0
	s := t1.CallBatch("Make")         // wave 0 on server-1
	asArg := t0.Call("Kinds", r, s)   // wave 1 on server-0: s crosses servers
	asTarget := r.Call("Kinds", r, s) // wave 1 on server-0, on r itself
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if w := b.Waves(); w != 2 {
		t.Fatalf("flush took %d waves, want 2", w)
	}
	self := fmt.Sprintf("%T", &typer{})
	for _, tc := range []struct {
		name string
		f    *cluster.Future
		made string
	}{{"as argument", asArg, "false"}, {"as target", asTarget, "true"}} {
		got, err := cluster.Typed[string](tc.f).Get()
		kinds := strings.Fields(got)
		if err != nil || len(kinds) != 3 || kinds[0] != tc.made || kinds[1] != self || kinds[2] == self {
			t.Errorf("%s: Kinds = %q, %v; want %q, the object itself, then a stub", tc.name, got, err, tc.made+" "+self)
		}
	}

	// Every request the client sent: no flush request carries a session;
	// server-0's wave-1 request addresses the pinned result as a root, and
	// the client's release of its lease — a DGC Clean to server-0 — names it.
	requests := 0
	var pinned, cleaned []uint64
	outs, _ := tap.Recorded()
	for i, out := range outs {
		toHere := tap.Dialed()[i] == hereRef.Endpoint
		for _, f := range decodeFrames(t, out) {
			if f.Kind != transport.KindRequest {
				continue
			}
			if _, req, ok := flushRequest(t, f.Payload); ok { // Calls, Root, session word, Roots, …
				requests++
				if len(req) > 2 {
					if v, err := req[2].value(); err != nil || v != uint64(0) {
						t.Errorf("a flush request carries session word %v (%v): a session, or the wish to keep one", v, err)
					}
				}
				if len(req) > 3 && toHere {
					pinned = append(pinned, uints(t, req[3])...)
				}
				continue
			}
			_, call := split(t, whole(f.Payload), false) // rmi.call.req: ObjID, Method, Args
			obj, _ := call[0].value()
			method, _ := call[1].value()
			_, args := split(t, call[2], true)
			if obj == rmi.DGCObjID && method == uint64(4) && toHere { // "Clean": clientID, seq, ids
				cleaned = append(cleaned, uints(t, args[2])...)
			}
		}
	}
	if requests != 3 {
		t.Errorf("the tap saw %d flush requests, want 3: two in wave 0, one in wave 1", requests)
	}
	if len(pinned) != 1 || !slices.Contains(cleaned, pinned[0]) {
		t.Errorf("server-0's extra roots %v, its cleaned ids %v: want one pinned root, released when the flush ended", pinned, cleaned)
	}
}

// uints decodes a list of unsigned integers.
func uints(t *testing.T, p part) []uint64 {
	t.Helper()
	v, err := p.value()
	if err != nil {
		t.Fatalf("decode %x: %v", p.bytes(), err)
	}
	var out []uint64
	switch x := v.(type) {
	case []uint64:
		out = x
	case []any:
		for _, el := range x {
			if u, ok := el.(uint64); ok {
				out = append(out, u)
			}
		}
	}
	return out
}

// nameHome is name's primary on dir's ring.
func nameHome(dir *cluster.Directory, name string) string {
	owners, _ := dir.Owners(name)
	return owners[0]
}
