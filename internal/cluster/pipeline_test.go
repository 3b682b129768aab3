package cluster_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rmi"
)

// --- staged cross-server dataflow --------------------------------------------

// TestPipelineValueSplice is the acceptance case: an A→B pipeline (produce on
// server A, consume on server B) recorded in one cluster.Batch flushes in one
// wave, one round trip per server: A pushes the value to B, which waits for
// it at the consuming call. Server B's dependency-free call runs first, in
// recording order.
func TestPipelineValueSplice(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	a := b.Root(tc.Servers[0].Ref)
	bb := b.Root(tc.Servers[1].Ref)

	b0 := bb.Call("Add", int64(1)) // no inputs
	fa := a.Call("Add", int64(5))  // produces the pushed value
	fb := bb.Call("Add", fa)       // consumes A's result on B

	before := tc.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt := tc.Client.CallCount() - before; rt != 2 {
		t.Errorf("flush used %d round trips, want 2", rt)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("A→B pipeline took %d waves, want 1", w)
	}
	for _, c := range []struct {
		name string
		f    *cluster.Future
		want int64
	}{{"B.Add(1)", b0, 1}, {"A.Add(5)", fa, 5}, {"B.Add(<-A)", fb, 6}} {
		if got, err := cluster.Typed[int64](c.f).Get(); err != nil || got != c.want {
			t.Errorf("%s = %d, %v; want %d", c.name, got, err, c.want)
		}
	}
	// B executed [1, 5] in recording order.
	if h := tc.Servers[1].Counter.History(); len(h) != 2 || h[0] != 1 || h[1] != 5 {
		t.Errorf("server-1 executed %v, want [1 5]", h)
	}
}

// TestPipelineRemoteForward checks true dataflow forwarding: a remote
// result produced on server A is pushed BY REFERENCE to server B inside the
// same wave — the client never sees it, and B receives a stub it can call.
func TestPipelineRemoteForward(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	a := b.Root(tc.Servers[0].Ref)
	bb := b.Root(tc.Servers[1].Ref)

	fork := a.CallBatch("Fork", int64(42)) // fresh remote object on server-0
	fb := bb.Call("AddRemote", fork)       // forwarded to server-1 as a stub

	before := tc.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// 2 client trips, one per server, in one wave: neither the fork nor its
	// ref travels through the client.
	if rt := tc.Client.CallCount() - before; rt != 2 {
		t.Errorf("flush used %d client round trips, want 2 (forwarding is not value round-tripping)", rt)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("remote-forward pipeline took %d waves, want 1", w)
	}
	if got, err := cluster.Typed[int64](fb).Get(); err != nil || got != 42 {
		t.Errorf("AddRemote(fork(42)) = %d, %v; want 42", got, err)
	}
	if err := fork.Ok(); err != nil {
		t.Errorf("forwarded proxy Ok = %v", err)
	}
}

// TestPipelineForwardsAnExportedObject: a remote result that is an object its
// server already exported — a counter root's Self — crosses servers under the
// export it has: the consumer's stub names that export, the consumer's call
// succeeds, and so does the flush, in one wave.
func TestPipelineForwardsAnExportedObject(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	a := b.Root(tc.Servers[0].Ref)
	a.Call("Add", int64(7))
	fb := b.Root(tc.Servers[1].Ref).Call("AddRemote", a.CallBatch("Self"))
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := cluster.Typed[int64](fb).Get(); err != nil || got != 7 {
		t.Errorf("AddRemote(Self) = %d, %v; want 7", got, err)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("flush took %d waves, want 1", w)
	}
}

// TestPipelineThreeStages chains A -> B -> C by value (dependency depth 2):
// the values go server to server, so the chain is one wave of three trips.
func TestPipelineThreeStages(t *testing.T) {
	tc := clustertest.New(t, 3)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	fa := b.Root(tc.Servers[0].Ref).Call("Add", int64(2))
	fb := b.Root(tc.Servers[1].Ref).Call("Add", fa)
	fc := b.Root(tc.Servers[2].Ref).Call("Add", fb)

	before := tc.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt, w := tc.Client.CallCount()-before, b.Waves(); rt != 3 || w != 1 {
		t.Errorf("depth-2 A→B→C chain took %d round trips in %d waves, want 3 in 1", rt, w)
	}
	for i, f := range []*cluster.Future{fa, fb, fc} {
		if got, err := cluster.Typed[int64](f).Get(); err != nil || got != 2 {
			t.Errorf("stage %d future = %d, %v; want 2", i, got, err)
		}
	}
}

// TestPipelineSameServerOneWave: a value consumed on the server that produces
// it is spliced there, inside the wave — one round trip — and calls on one
// destination take effect in the order they were recorded.
func TestPipelineSameServerOneWave(t *testing.T) {
	tc := clustertest.New(t, 1)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	r := b.Root(tc.Servers[0].Ref)
	f0 := r.Call("Add", int64(3)) // 3
	f1 := r.Call("Add", f0)       // 3 + 3: the server hands f0's value over
	self := r.CallBatch("Self")
	f2 := r.Call("Absorb", self) // 6 + 6: after f1, as recorded

	before := tc.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt := tc.Client.CallCount() - before; rt != 1 {
		t.Errorf("flush used %d round trips, want 1", rt)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("same-server dataflow took %d waves, want 1", w)
	}
	for _, c := range []struct {
		name string
		f    *cluster.Future
		want int64
	}{{"f0", f0, 3}, {"f1 (spliced)", f1, 6}, {"f2 (self absorb)", f2, 12}} {
		if got, err := cluster.Typed[int64](c.f).Get(); err != nil || got != c.want {
			t.Errorf("%s = %d, %v; want %d", c.name, got, err, c.want)
		}
	}
	// The totals above are the order evidence (f2 overtaking f1 would read 6
	// and 9); the log holds the two Adds, Absorb logs nothing.
	if h := tc.Servers[0].Counter.History(); len(h) != 2 || h[0] != 3 || h[1] != 3 {
		t.Errorf("server-0 executed %v, want [3 3]", h)
	}
}

// --- failure isolation across stages -----------------------------------------

// TestStagedFailureIsolation: a destination failure in wave 0 fails only
// the futures that (transitively) depend on it — here through results pushed
// inside the wave, a remote one and a value. Independent calls on healthy
// servers settle, and so do independent calls on servers that ALSO host
// dependent calls.
func TestStagedFailureIsolation(t *testing.T) {
	tc := clustertest.New(t, 3)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	good0 := b.Root(tc.Servers[0].Ref)
	// A root object id server-1 never exported: its whole sub-batch fails
	// at session creation in wave 0.
	badRef := tc.Servers[1].Ref
	badRef.ObjID = 12345
	bad := b.Root(badRef)
	good2 := b.Root(tc.Servers[2].Ref)

	gf := good0.Call("Add", int64(7))    // server-0: healthy
	bp := bad.CallBatch("Self")          // server-1: destination fails
	indep := good2.Call("Add", int64(3)) // server-2: independent, healthy
	dep := good2.Call("AddRemote", bp)   // server-2: waits for server-1's push
	trans := good0.Call("Add", dep)      // server-0: transitively dependent

	err := b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	if len(fe.Failures) != 1 || fe.Servers != 3 {
		t.Fatalf("FlushError = %+v, want 1 failure of 3 servers", fe)
	}
	if f := fe.Failures[0]; f.Endpoint != badRef.Endpoint || f.Stage != 0 {
		t.Errorf("failure = %s stage %d, want %s stage 0", f.Endpoint, f.Stage, badRef.Endpoint)
	}

	// Independent calls settled on both healthy servers.
	if v, err := cluster.Typed[int64](gf).Get(); err != nil || v != 7 {
		t.Errorf("server-0 independent future = %v, %v; want 7", v, err)
	}
	if v, err := cluster.Typed[int64](indep).Get(); err != nil || v != 3 {
		t.Errorf("server-2 independent future = %v, %v; want 3", v, err)
	}

	// Dependent futures — direct and transitive — rethrow server-1's error.
	var nso *rmi.NoSuchObjectError
	if _, derr := dep.Get(); !errors.As(derr, &nso) {
		t.Errorf("dependent future error = %v, want NoSuchObjectError", derr)
	}
	if _, terr := trans.Get(); !errors.As(terr, &nso) {
		t.Errorf("transitive future error = %v, want NoSuchObjectError", terr)
	}

	// The dependent calls never executed.
	if got := tc.Servers[2].Counter.Get(); got != 3 {
		t.Errorf("server-2 counter = %d, want 3 (AddRemote must not run)", got)
	}
	if got := tc.Servers[0].Counter.Get(); got != 7 {
		t.Errorf("server-0 counter = %d, want 7 (transitive Add must not run)", got)
	}
}

// TestPingPongIsOneWave: a value bouncing between two servers, each hop
// consuming the one before, flushes in one wave of two round trips — every
// wait on one server points at a call recorded earlier on the other. Two
// clients flush such chains at once, in opposite directions, so each server
// waits on and pushes to the other inside every wave, on the pattern of
// TestMutualFollowersDoNotDeadlock: every flush returns, every hop applied.
func TestPingPongIsOneWave(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	other := rmi.NewPeer(ec.Network.Host("client-2"), rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = other.Close() })
	refs := ec.Refs()

	const rounds, hops = 20, 6
	var wg sync.WaitGroup
	for i, peer := range []*rmi.Peer{ec.Client, other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				b := cluster.New(peer)
				f := b.Root(refs[i]).Call("Add", int64(1))
				for h := 1; h < hops; h++ {
					f = b.Root(refs[(i+h)%2]).Call("Apply", int64(1), f)
				}
				before := peer.CallCount()
				if err := errors.Join(b.Flush(ctx), f.Err()); err != nil {
					t.Errorf("client %d flush %d: %v", i, n, err)
					return
				}
				if trips, w := peer.CallCount()-before, b.Waves(); trips != 2 || w != 1 {
					t.Errorf("client %d flush %d: %d round trips in %d waves, want 2 in 1", i, n, trips, w)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range ec.Servers {
		if got := s.Counter.Get(); got != 2*rounds*hops/2 {
			t.Errorf("%s applied %d hops, want %d", s.Endpoint, got, 2*rounds*hops/2)
		}
	}
}
