package cluster_test

// Every wave of a cluster flush is a self-contained request: a fresh batch per
// destination, ended with Flush. These tests pin what that takes away — no
// server session anywhere, on a primary or a follower — and what it keeps: a
// remote result its wave consumes on its own server arrives as the object
// itself. They also pin the shapes a remote result is refused in.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestReplicatedTwoWaveFlushLeavesNoSession: a replicated destination's second
// wave settles locally — its one call depends on a replicated value that threw,
// staged until its quorum held it — so no request reaches it in that wave. No
// server, primary or follower, may hold a session afterwards: one a wave kept
// would outlive the flush until the session TTL, a shadow session on every
// follower.
func TestReplicatedTwoWaveFlushLeavesNoSession(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	bb := nameWhere(t, dir, "b", "server-1", anyOwners)
	place(t, ec, dir, a, bb)
	const n = 5
	for i := 0; i < n; i++ {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		pa, err := b.RootNamed(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := b.RootNamed(ctx, bb)
		if err != nil {
			t.Fatal(err)
		}
		pa.Call("Add", int64(1))            // wave 0 on a's primary, replicated
		v := pb.Call("AddRemote", int64(0)) // wave 0 on b's primary: throws (not a remote object)
		dep := pa.Call("Add", v)            // wave 1 on a's primary: settles locally
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if v.Err() == nil || dep.Err() == nil {
			t.Fatalf("producer %v, dependent %v: want both to fail with the producer's error", v.Err(), dep.Err())
		}
		if w := b.Waves(); w != 1 {
			t.Fatalf("flush took %d waves, want 1: the second settles without a request", w)
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

// TestReplicatedReuseRefused: a remote result lives only in its wave, so a
// call that would take one in a later wave is refused with *CrossWaveError
// before anything is sent — no client call, no execution — in every shape
// that staging makes: a replicated destination that reuses its own result in
// the wave a staged argument puts it in, a replicated destination's result
// crossing servers, and an unreplicated (R=1) destination's result taken by a
// call staged behind a replicated value. The first recording flushes at R=1,
// where nothing replicates: both results are pushed, and it is one wave.
func TestReplicatedReuseRefused(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	bb := nameWhere(t, dir, "b", "server-1", anyOwners)
	place(t, ec, dir, a, bb)
	roots := func(b *cluster.Batch) (pa, pb *cluster.Proxy) {
		pa, err := b.RootNamed(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err = b.RootNamed(ctx, bb)
		if err != nil {
			t.Fatal(err)
		}
		return pa, pb
	}
	reuse := func(b *cluster.Batch) *cluster.Future {
		pa, pb := roots(b)
		r := pa.CallBatch("Fork", int64(1))                        // wave 0 on server-0
		return r.Call("AddRemote", pb.CallBatch("Fork", int64(5))) // wave 1: r again, on server-0
	}
	executed := func() (total int64) {
		for _, s := range ec.Servers {
			total += s.Stats.Snapshot().Counter("core.calls_executed")
		}
		return total
	}

	for _, c := range []struct {
		name             string
		record           func(b *cluster.Batch) *cluster.Future
		endpoint, method string
	}{
		{"reuse", reuse, "server-0", "AddRemote"},
		{"replicated result across servers", func(b *cluster.Batch) *cluster.Future {
			pa, pb := roots(b)
			return pa.Call("AddRemote", pb.CallBatch("Fork", int64(5))) // wave 1, behind its staged argument
		}, "server-0", "AddRemote"},
		{"R=1 destination behind a replicated value", func(b *cluster.Batch) *cluster.Future {
			_, pb := roots(b)
			r := b.Root(ec.Server("server-3").Ref).CallBatch("Fork", int64(1)) // wave 0, unreplicated
			return r.Call("Add", pb.Call("Get"))                               // wave 1, behind b's value
		}, "server-3", "Add"},
	} {
		calls, ran := ec.Client.CallCount(), executed()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		f := c.record(b)
		err := b.Flush(ctx)
		var refused *cluster.CrossWaveError
		if !errors.As(err, &refused) || refused.Endpoint != c.endpoint || refused.Method != c.method || refused.Producer != "Fork" {
			t.Fatalf("%s: flush = %T %v, want *CrossWaveError for %s on %s", c.name, err, err, c.method, c.endpoint)
		}
		if !errors.As(f.Err(), &refused) {
			t.Errorf("%s: consumer = %v, want the refusal", c.name, f.Err())
		}
		if got := ec.Client.CallCount() - calls; got != 0 {
			t.Errorf("%s: the refused flush made %d calls, want none", c.name, got)
		}
		if got := executed() - ran; got != 0 {
			t.Errorf("%s: the refused flush executed %d calls, want none", c.name, got)
		}
	}

	one := cluster.NewDirectory(ec.Client, ec.Endpoints())
	for _, name := range []string{a, bb} {
		if home, _ := one.Home(name); home != nameHome(dir, name) {
			t.Fatalf("setup: %s homes at %s at R=1", name, home)
		}
	}
	b := cluster.New(ec.Client, cluster.WithDirectory(one))
	f := reuse(b)
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("R=1 flush: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 6 {
		t.Errorf("R=1 AddRemote = %v, %v; want 6", v, err)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("R=1 flush took %d waves, want 1: both results pushed", w)
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

// TestPinnedResultArrivesAsItself: a remote result stays pinned to the wave
// and the server that produced it. A call of the wave on its own server gets
// the object itself — as target and as argument — where a result from
// another server arrives as a stub, which that server pushes inside the wave.
// The flush is one wave, whose requests carry no session id, ask to keep
// none, and add no root; the client sends no DGC traffic for the results.
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
	r := t0.CallBatch("Make")         // server-0
	s := t1.CallBatch("Make")         // server-1, pushed to server-0
	asArg := t0.Call("Kinds", r, s)   // server-0: s crosses servers
	asTarget := r.Call("Kinds", r, s) // server-0, on r itself
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if w := b.Waves(); w != 1 {
		t.Fatalf("flush took %d waves, want 1", w)
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

	// Every request the client sent: no flush request carries a session or an
	// extra root, and no call is the DGC's.
	requests, dgc := 0, 0
	var roots []uint64
	outs, _ := tap.Recorded()
	for _, out := range outs {
		for _, f := range decodeFrames(t, out) {
			if f.Kind != transport.KindRequest {
				continue
			}
			if _, req, ok := flushRequest(t, f.Payload); ok { // Calls, Root, session word or flush field, Roots, …
				requests++
				if len(req) > 2 {
					// A flush field (a byte string) stands where a session
					// word would: its request keeps and continues none.
					if v, err := req[2].value(); err != nil || (v != uint64(0) && reflect.TypeOf(v) != reflect.TypeOf([]byte(nil))) {
						t.Errorf("a flush request carries session word %v (%v): a session, or the wish to keep one", v, err)
					}
				}
				if len(req) > 3 {
					roots = append(roots, uints(t, req[3])...)
				}
				continue
			}
			_, call := split(t, whole(f.Payload), false) // rmi.call.req: ObjID, Method, Args
			if obj, _ := call[0].value(); obj == rmi.DGCObjID {
				dgc++
			}
		}
	}
	if requests != 2 {
		t.Errorf("the tap saw %d flush requests, want 2: one per server", requests)
	}
	if len(roots) != 0 || dgc != 0 {
		t.Errorf("the client added roots %v and made %d DGC calls, want none: no result outlives its wave", roots, dgc)
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
