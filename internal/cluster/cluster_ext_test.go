package cluster_test

// Behavioural tests of the cluster batch, directory, and ring public API,
// running against the shared internal/clustertest deployment (k serving
// peers + client on one simulated network).

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// --- shard map ---------------------------------------------------------------

func TestRingRoutingStabilityOnAdd(t *testing.T) {
	eps := []string{"server-0", "server-1", "server-2"}
	ring := cluster.NewRing(eps)
	const n = 2000
	before := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("account-%04d", i)
		before[key] = ring.Route(key)
	}

	ring.Add("server-3")
	moved := 0
	for key, old := range before {
		now := ring.Route(key)
		if now == old {
			continue
		}
		// The consistent-hashing invariant: adding a member only moves keys
		// TO that member, never between existing members.
		if now != "server-3" {
			t.Fatalf("key %q moved %s -> %s on unrelated add", key, old, now)
		}
		moved++
	}
	if moved == 0 {
		t.Error("no keys routed to the new server")
	}
	// Expect roughly 1/4 of keys to move; allow a wide band.
	if moved > n/2 {
		t.Errorf("%d of %d keys moved; consistent hashing should move ~%d", moved, n, n/4)
	}

	// Every member owns a share.
	owned := make(map[string]int)
	for i := 0; i < n; i++ {
		owned[ring.Route(fmt.Sprintf("account-%04d", i))]++
	}
	for _, ep := range ring.Endpoints() {
		if owned[ep] == 0 {
			t.Errorf("endpoint %s owns no keys", ep)
		}
	}
}

func TestRingRemoveAndEmpty(t *testing.T) {
	ring := cluster.NewRing([]string{"a", "b"})
	ring.Remove("a")
	if got := ring.Route("anything"); got != "b" {
		t.Fatalf("after removing a, key routed to %q, want b", got)
	}
	ring.Remove("b")
	if got := ring.Route("anything"); got != "" {
		t.Fatalf("empty ring routed to %q", got)
	}
	if ring.Size() != 0 {
		t.Fatalf("empty ring has size %d", ring.Size())
	}
}

func TestRingEpoch(t *testing.T) {
	r := cluster.NewRing([]string{"a", "b"})
	if e := r.Epoch(); e != 0 {
		t.Fatalf("fresh ring epoch = %d, want 0", e)
	}
	r.Add("c")
	if e := r.Epoch(); e != 1 {
		t.Fatalf("epoch after add = %d, want 1", e)
	}
	r.Add("c") // duplicate: no change
	if e := r.Epoch(); e != 1 {
		t.Fatalf("epoch after duplicate add = %d, want 1", e)
	}
	r.Remove("a")
	if e := r.Epoch(); e != 2 {
		t.Fatalf("epoch after remove = %d, want 2", e)
	}
	r.Remove("a") // non-member: no change
	if e := r.Epoch(); e != 2 {
		t.Fatalf("epoch after duplicate remove = %d, want 2", e)
	}
	r.Reset([]string{"x", "y"}, 9)
	if e := r.Epoch(); e != 9 {
		t.Fatalf("epoch after reset = %d, want 9", e)
	}
	if got := r.Endpoints(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("members after reset = %v", got)
	}
}

// --- recording validation ----------------------------------------------------

// TestCrossServerRootArgIsOneWave: a ROOT proxy from another server needs
// no staged execution — its ref splices in statically — so the recording
// still flushes in one wave.
func TestCrossServerRootArgIsOneWave(t *testing.T) {
	tc := clustertest.New(t, 2)
	b := cluster.New(tc.Client)
	r0 := b.Root(tc.Servers[0].Ref)
	r1 := b.Root(tc.Servers[1].Ref)
	f := r0.Call("AddRemote", r1) // server-1's ROOT as an argument on server-0

	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("flush with root arg = %v, want nil", err)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("flush took %d waves, want 1", w)
	}
	if got, err := cluster.Typed[int64](f).Get(); err != nil || got != 0 {
		t.Errorf("AddRemote(root-1) = %d, %v; want 0 (fresh counter)", got, err)
	}
}

// TestSameServerMultiRoot checks that any number of roots on one server
// fold into a single sub-batch (one round trip), including a data
// dependency between two of them — only genuinely cross-server dependencies
// are rejected.
func TestSameServerMultiRoot(t *testing.T) {
	tc := clustertest.New(t, 1)
	other := &clustertest.Counter{}
	ref2, err := tc.Servers[0].Peer.Export(other, clustertest.CounterIface)
	if err != nil {
		t.Fatal(err)
	}
	b := cluster.New(tc.Client)
	r1 := b.Root(tc.Servers[0].Ref)
	r2 := b.Root(ref2)
	f1 := r1.Call("Add", int64(5))
	p := r1.CallBatch("Self")
	// Dependency across roots, same server: counter 2 absorbs counter 1.
	f2 := r2.Call("Absorb", p)

	before := tc.Client.CallCount()
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rt := tc.Client.CallCount() - before; rt != 1 {
		t.Errorf("two roots on one server used %d round trips, want 1", rt)
	}
	if v, err := cluster.Typed[int64](f1).Get(); err != nil || v != 5 {
		t.Errorf("root-1 future = %v, %v; want 5", v, err)
	}
	if v, err := cluster.Typed[int64](f2).Get(); err != nil || v != 5 {
		t.Errorf("cross-root Absorb = %v, %v; want 5", v, err)
	}
	if got := other.Get(); got != 5 {
		t.Errorf("second root's counter = %d, want 5", got)
	}
}

func TestForeignProxyRejected(t *testing.T) {
	tc := clustertest.New(t, 1)
	b1 := cluster.New(tc.Client)
	b2 := cluster.New(tc.Client)
	p1 := b1.Root(tc.Servers[0].Ref).CallBatch("Self")
	b2.Root(tc.Servers[0].Ref).Call("Add", int64(1), p1)
	if err := b2.Flush(context.Background()); !errors.Is(err, core.ErrForeignProxy) {
		t.Fatalf("flush error = %v, want core.ErrForeignProxy", err)
	}
}

func TestRecordAfterFlushFails(t *testing.T) {
	tc := clustertest.New(t, 1)
	b := cluster.New(tc.Client)
	root := b.Root(tc.Servers[0].Ref)
	root.Call("Add", int64(1))
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	f := root.Call("Add", int64(1))
	if err := b.Flush(context.Background()); !errors.Is(err, core.ErrBatchClosed) {
		t.Fatalf("second flush error = %v, want ErrBatchClosed", err)
	}
	// The post-flush future reads the original (successful) flush state, so
	// it must not panic; it reports pending since it was never bound.
	if _, err := f.Get(); err == nil {
		t.Error("future recorded after flush settled unexpectedly")
	}
}

func TestRootWithoutEndpointRejected(t *testing.T) {
	tc := clustertest.New(t, 1)
	b := cluster.New(tc.Client)
	p := b.Root(wire.Ref{ObjID: 99})
	p.Call("Add", int64(1))
	if err := b.Flush(context.Background()); !errors.Is(err, cluster.ErrNoEndpoint) {
		t.Fatalf("flush error = %v, want ErrNoEndpoint", err)
	}
}

// --- degenerate single-server case -------------------------------------------

// TestSingleServerMatchesCoreBatch checks the degenerate case: a cluster
// batch with one destination must behave exactly like a plain core.Batch —
// same results, same error behaviour, and the same single round trip.
func TestSingleServerMatchesCoreBatch(t *testing.T) {
	tc := clustertest.New(t, 1)
	ctx := context.Background()

	// Reference run through core.Batch.
	cb := core.New(tc.Client, tc.Servers[0].Ref)
	cRoot := cb.Root()
	cSelf := cRoot.CallBatch("Self")
	cf1 := cRoot.Call("Add", int64(10))
	cf2 := cSelf.Call("Add", int64(5))
	cf3 := cRoot.Call("Get")
	if err := cb.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Identical recording through the cluster layer.
	before := tc.Client.CallCount()
	b := cluster.New(tc.Client)
	root := b.Root(tc.Servers[0].Ref)
	self := root.CallBatch("Self")
	f1 := root.Call("Add", int64(10))
	f2 := self.Call("Add", int64(5))
	f3 := root.Call("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt := tc.Client.CallCount() - before; rt != 1 {
		t.Errorf("cluster flush used %d round trips, want 1", rt)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("single-server flush took %d waves, want 1", w)
	}

	// The counter ran both batches; the cluster run starts 15 higher.
	for i, pair := range []struct {
		name string
		core *core.Future
		clu  *cluster.Future
		off  int64
	}{
		{"Add(10)", cf1, f1, 15},
		{"Add(5)", cf2, f2, 15},
		{"Get", cf3, f3, 15},
	} {
		cv, cerr := core.Typed[int64](pair.core).Get()
		v, err := cluster.Typed[int64](pair.clu).Get()
		if cerr != nil || err != nil {
			t.Fatalf("%s: core err %v, cluster err %v", pair.name, cerr, err)
		}
		if v != cv+pair.off {
			t.Errorf("%s (pair %d): cluster %d, core %d (+%d expected)", pair.name, i, v, cv, pair.off)
		}
	}
	if err := self.Ok(); err != nil {
		t.Errorf("remote proxy Ok = %v", err)
	}
}

// --- multi-server fan-out ----------------------------------------------------

func TestMultiServerFanout(t *testing.T) {
	tc := clustertest.New(t, 3)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	roots := make([]*cluster.Proxy, 3)
	for i := range roots {
		roots[i] = b.Root(tc.Servers[i].Ref)
	}
	// Interleave recording across servers; per-server order must survive the
	// partition: server i receives Add(1), Add(2), Add(3) in that order.
	var futures [][]*cluster.Future
	for step := int64(1); step <= 3; step++ {
		for i, r := range roots {
			if step == 1 {
				futures = append(futures, nil)
			}
			futures[i] = append(futures[i], r.Call("Add", step))
		}
	}
	if got := b.PendingCalls(); got != 9 {
		t.Fatalf("PendingCalls = %d, want 9", got)
	}
	if got := b.Destinations(); len(got) != 3 {
		t.Fatalf("Destinations = %v, want 3 endpoints", got)
	}

	before := tc.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt := tc.Client.CallCount() - before; rt != 3 {
		t.Errorf("flush used %d round trips, want 3 (one per server)", rt)
	}
	if w := b.Waves(); w != 1 {
		t.Errorf("dependency-free multi-server flush took %d waves, want 1", w)
	}

	for i := range roots {
		// Running totals 1, 3, 6 prove in-order execution on each server.
		for j, want := range []int64{1, 3, 6} {
			got, err := cluster.Typed[int64](futures[i][j]).Get()
			if err != nil {
				t.Fatalf("server %d future %d: %v", i, j, err)
			}
			if got != want {
				t.Errorf("server %d future %d = %d, want %d", i, j, got, want)
			}
		}
		if h := tc.Servers[i].Counter.History(); len(h) != 3 || h[0] != 1 || h[1] != 2 || h[2] != 3 {
			t.Errorf("server %d executed %v, want [1 2 3]", i, h)
		}
	}
}

func TestPartialServerFailure(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx := context.Background()

	b := cluster.New(tc.Client)
	good := b.Root(tc.Servers[0].Ref)
	// A root object id that server-1 never exported: its sub-batch fails
	// at session creation, the other server's sub-batch is unaffected.
	badRef := wire.Ref{Endpoint: tc.Servers[1].Endpoint, ObjID: 12345, Iface: clustertest.CounterIface}
	bad := b.Root(badRef)

	gf := good.Call("Add", int64(7))
	bf := bad.Call("Add", int64(7))

	err := b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	if len(fe.Failures) != 1 || fe.Servers != 2 {
		t.Fatalf("FlushError = %+v, want 1 failure of 2 servers", fe)
	}
	if fe.Failures[0].Endpoint != badRef.Endpoint {
		t.Errorf("failed endpoint %q, want %q", fe.Failures[0].Endpoint, badRef.Endpoint)
	}
	var nso *rmi.NoSuchObjectError
	if !errors.As(err, &nso) {
		t.Errorf("FlushError should unwrap to NoSuchObjectError, got %v", err)
	}

	// Healthy destination settled normally.
	if v, err := cluster.Typed[int64](gf).Get(); err != nil || v != 7 {
		t.Errorf("healthy future = %v, %v; want 7, nil", v, err)
	}
	// Failed destination rethrows its server's error.
	if _, err := bf.Get(); !errors.As(err, &nso) {
		t.Errorf("failed future error = %v, want NoSuchObjectError", err)
	}
}

// TestPolicyScopedPerServer checks that the exception policy applies within
// each sub-batch: an abort on one server does not touch another server's
// calls.
func TestPolicyScopedPerServer(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx := context.Background()

	b := cluster.New(tc.Client) // default abort policy, per destination
	r0 := b.Root(tc.Servers[0].Ref)
	r1 := b.Root(tc.Servers[1].Ref)
	bad := r0.Call("NoSuchMethod")
	after := r0.Call("Add", int64(1)) // aborted with the failure on server-0
	other := r1.Call("Add", int64(1)) // server-1 proceeds

	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush error = %v; application errors should not fail the flush", err)
	}
	var nsm *rmi.NoSuchMethodError
	if err := bad.Err(); !errors.As(err, &nsm) {
		t.Errorf("bad call error = %v, want NoSuchMethodError", err)
	}
	if err := after.Err(); !errors.As(err, &nsm) {
		t.Errorf("aborted call error = %v, want the aborting NoSuchMethodError", err)
	}
	if v, err := cluster.Typed[int64](other).Get(); err != nil || v != 1 {
		t.Errorf("other server future = %v, %v; want 1, nil", v, err)
	}
}

// --- directory ---------------------------------------------------------------

func TestDirectoryBindLookup(t *testing.T) {
	tc := clustertest.New(t, 3)
	ctx := context.Background()
	d := cluster.NewDirectory(tc.Client, tc.Endpoints())

	names := make([]string, 20)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%02d", i)
	}
	for i, name := range names {
		if err := d.Bind(ctx, name, tc.Servers[i%3].Ref); err != nil {
			t.Fatalf("bind %s: %v", name, err)
		}
	}
	for i, name := range names {
		ref, err := d.Lookup(ctx, name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		if ref != tc.Servers[i%3].Ref {
			t.Errorf("lookup %s = %+v, want %+v", name, ref, tc.Servers[i%3].Ref)
		}
		home, err := d.Home(name)
		if err != nil {
			t.Fatal(err)
		}
		// The binding must live in the home server's registry.
		bound, err := registry.Lookup(ctx, tc.Client, home, name)
		if err != nil || bound != ref {
			t.Errorf("name %s not bound at home %s: %v", name, home, err)
		}
	}

	// Names spread across more than one server.
	all, err := d.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	populated := 0
	total := 0
	for _, bound := range all {
		if len(bound) > 0 {
			populated++
		}
		total += len(bound)
	}
	if total != len(names) {
		t.Errorf("cluster-wide List found %d names, want %d", total, len(names))
	}
	if populated < 2 {
		t.Errorf("all names landed on %d server(s); ring should spread them", populated)
	}

	// Rebind and unbind round-trip.
	if err := d.Rebind(ctx, names[0], tc.Servers[1].Ref); err != nil {
		t.Fatal(err)
	}
	if ref, _ := d.Lookup(ctx, names[0]); ref != tc.Servers[1].Ref {
		t.Errorf("rebind did not take: %+v", ref)
	}
	if err := d.Unbind(ctx, names[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(ctx, names[0]); err == nil {
		t.Error("lookup after unbind succeeded")
	}
}

func TestDirectoryEmpty(t *testing.T) {
	tc := clustertest.New(t, 1)
	d := cluster.NewDirectory(tc.Client, nil)
	if _, err := d.Lookup(context.Background(), "x"); !errors.Is(err, cluster.ErrNoServers) {
		t.Fatalf("lookup on empty directory = %v, want ErrNoServers", err)
	}
}
