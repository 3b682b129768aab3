package cluster_test

// Tests of the lease-backed result cache and singleflight coalescing layer:
// zero-round-trip full-hit flushes, record-time invalidation on write,
// epoch-bump lease drops, the true-concurrency rendezvous proving one wire
// call per coalesced group, and Directory.Refresh coalescing.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/rmi"
)

func clientCounter(ec *clustertest.Cluster, name string) int64 {
	return ec.ClientStats.Snapshot().Counter(name)
}

// TestClusterCacheFullHitFlushIsZeroRoundTrips is the acceptance pin: after
// one filling flush, an identical batch spanning two servers settles every
// call from the lease cache, records nothing, executes zero waves, and
// writes zero transport frames.
func TestClusterCacheFullHitFlushIsZeroRoundTrips(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	b1 := cluster.New(ec.Client, cluster.WithCache(cache))
	f0 := b1.Root(ec.Servers[0].Ref).CallRO("Get")
	f1 := b1.Root(ec.Servers[1].Ref).CallRO("Get")
	if err := b1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*cluster.Future{f0, f1} {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 0 {
			t.Fatalf("filling read = (%d, %v), want (0, nil)", v, err)
		}
	}
	if b1.Waves() != 1 {
		t.Fatalf("filling flush ran %d waves, want 1", b1.Waves())
	}

	frames := clientCounter(ec, "transport.frames_out")
	b2 := cluster.New(ec.Client, cluster.WithCache(cache))
	g0 := b2.Root(ec.Servers[0].Ref).CallRO("Get")
	g1 := b2.Root(ec.Servers[1].Ref).CallRO("Get")
	// Hits settle at record time: readable before the flush.
	for _, f := range []*cluster.Future{g0, g1} {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 0 {
			t.Fatalf("pre-flush cached read = (%d, %v), want (0, nil)", v, err)
		}
	}
	if n := b2.PendingCalls(); n != 0 {
		t.Fatalf("full-hit batch recorded %d calls, want 0", n)
	}
	if err := b2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b2.Waves() != 0 {
		t.Fatalf("full-hit flush ran %d waves, want 0", b2.Waves())
	}
	if d := clientCounter(ec, "transport.frames_out") - frames; d != 0 {
		t.Fatalf("full-hit flush wrote %d frames, want 0", d)
	}
	if hits := clientCounter(ec, "cache.hits"); hits != 2 {
		t.Fatalf("cache.hits = %d, want 2", hits)
	}
}

// TestClusterCacheWriteInvalidatesOnlyItsObject: a write recorded against
// one root — on the root itself or on a proxy derived from it — drops that
// object's leases at record time, leaving the other server's entries
// servable.
func TestClusterCacheWriteInvalidatesOnlyItsObject(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	b1 := cluster.New(ec.Client, cluster.WithCache(cache))
	_ = b1.Root(ec.Servers[0].Ref).CallRO("Get")
	_ = b1.Root(ec.Servers[1].Ref).CallRO("Get")
	if err := b1.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache has %d entries after fills, want 2", n)
	}

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	_ = bw.Root(ec.Servers[0].Ref).Call("Add", int64(5))
	if n := cache.Len(); n != 1 {
		t.Fatalf("write recorded but %d leases live, want 1 (other object's)", n)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	b2 := cluster.New(ec.Client, cluster.WithCache(cache))
	f0 := b2.Root(ec.Servers[0].Ref).CallRO("Get") // invalidated: re-fetches
	f1 := b2.Root(ec.Servers[1].Ref).CallRO("Get") // untouched: still a hit
	if err := b2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f0).Get(); err != nil || v != 5 {
		t.Fatalf("post-write read = (%d, %v), want (5, nil)", v, err)
	}
	if v, err := cluster.Typed[int64](f1).Get(); err != nil || v != 0 {
		t.Fatalf("unrelated read = (%d, %v), want (0, nil)", v, err)
	}
	if invs := clientCounter(ec, "cache.invalidations"); invs == 0 {
		t.Fatal("cache.invalidations not counted")
	}

	// A write through a derived proxy (CallBatch, then the write on its
	// result) is attributed to the chain's root: its leases drop at record
	// time too. The lease is refilled between the two recordings, so only
	// the write itself can drop it.
	read1 := func() *cluster.Future {
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		f := b.Root(ec.Servers[1].Ref).CallRO("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return f
	}
	bd := cluster.New(ec.Client, cluster.WithCache(cache))
	derived := bd.Root(ec.Servers[1].Ref).CallBatch("Self")
	read1()
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache has %d entries after the refill, want 2", n)
	}
	_ = derived.Call("Add", int64(3))
	if n := cache.Len(); n != 1 {
		t.Fatalf("write recorded through a derived proxy but %d leases live, want 1 (other object's)", n)
	}
	if err := bd.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](read1()).Get(); err != nil || v != 3 {
		t.Fatalf("read after the derived write = (%d, %v), want (3, nil)", v, err)
	}
}

// TestClusterCacheNamedRoots: a named root's leases are filed under its name
// — the only identity it has when it is recorded. A write recorded through
// RootNamed drops what an earlier batch's CallRO through RootNamed filled,
// and a named batch whose every call hits still flushes without a round
// trip: there is no lookup left to pay.
func TestClusterCacheNamedRoots(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	ec.BindCounter(dir, "obj-0", 7)
	cache := cluster.NewCache(ec.Client, dir, rcache.WithTTL(time.Minute))
	read := func() (*cluster.Batch, *cluster.Future) {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			t.Fatal(err)
		}
		return b, p.CallRO("Get")
	}

	b, f := read()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 7 {
		t.Fatalf("filling read = (%d, %v), want (7, nil)", v, err)
	}

	before := ec.Client.CallCount()
	b, f = read()
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 7 {
		t.Fatalf("pre-flush cached read = (%d, %v), want (7, nil)", v, err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt, w := ec.Client.CallCount()-before, b.Waves(); rt != 0 || w != 0 {
		t.Fatalf("all-hit named batch cost %d remote calls in %d waves, want 0 and 0", rt, w)
	}

	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	pw, err := bw.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	pw.Call("Add", int64(5))
	if n := cache.Len(); n != 0 {
		t.Fatalf("write recorded through the name but %d leases live, want 0", n)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	b, f = read()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 12 {
		t.Fatalf("post-write read = (%d, %v), want (12, nil)", v, err)
	}
}

// TestClusterCacheEpochBumpDropsLeases: a ring-epoch bump (membership
// change / migration) makes every older lease unservable.
func TestClusterCacheEpochBumpDropsLeases(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	cache := cluster.NewCache(ec.Client, dir, rcache.WithTTL(time.Minute))

	b1 := cluster.New(ec.Client, cluster.WithCache(cache))
	_ = b1.Root(ec.Servers[0].Ref).CallRO("Get")
	if err := b1.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	dir.Ring().Reset(dir.Servers(), dir.Epoch()+1)

	b2 := cluster.New(ec.Client, cluster.WithCache(cache))
	f := b2.Root(ec.Servers[0].Ref).CallRO("Get")
	//brmivet:ignore futurederef asserts the stale-epoch lease is NOT served before flush
	if _, err := f.Get(); err == nil {
		t.Fatal("stale-epoch lease served before flush")
	}
	if err := b2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 0 {
		t.Fatalf("re-fetched read = (%d, %v), want (0, nil)", v, err)
	}
	// The stale-epoch lease must never be served: no hit anywhere.
	if hits := clientCounter(ec, "cache.hits"); hits != 0 {
		t.Fatalf("cache.hits = %d, want 0 (stale-epoch lease served)", hits)
	}
}

// gatedCounter blocks Get until its gate opens, so concurrent flushes can
// be held in flight deterministically; it counts invocations.
type gatedCounter struct {
	rmi.RemoteBase
	mu    sync.Mutex
	calls int
	gate  chan struct{}
}

func (g *gatedCounter) Get() int64 {
	g.mu.Lock()
	g.calls++
	gate := g.gate
	g.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return 42
}

func (g *gatedCounter) Calls() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// TestClusterCoalesceRendezvous is the true-concurrency rendezvous: N
// batches sharing one cache flush the same readonly call while the leader's
// wave is held server-side. Every other flush must coalesce onto the
// leader's flight — exactly one wire invocation for the whole group.
func TestClusterCoalesceRendezvous(t *testing.T) {
	ec := clustertest.New(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	gc := &gatedCounter{gate: make(chan struct{})}
	ref, err := ec.Servers[0].Peer.Export(gc, "cachetest.GatedCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	const n = 4
	values := make([]int64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := cluster.New(ec.Client, cluster.WithCache(cache))
			f := b.Root(ref).CallRO("Get")
			if errs[i] = b.Flush(ctx); errs[i] != nil {
				return
			}
			values[i], errs[i] = cluster.Typed[int64](f).Get()
		}(i)
	}

	// Rendezvous: the leader's wave is blocked inside Get; wait until every
	// other flush has joined its flight, then release.
	deadline := time.Now().Add(20 * time.Second)
	for clientCounter(ec, "cache.coalesced") < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d flushes coalesced before the deadline",
				clientCounter(ec, "cache.coalesced"), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(gc.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("flush %d: %v", i, errs[i])
		}
		if values[i] != 42 {
			t.Fatalf("flush %d read %d, want 42", i, values[i])
		}
	}
	if calls := gc.Calls(); calls != 1 {
		t.Fatalf("coalesced group invoked the server %d times, want exactly 1", calls)
	}
	// The leader's fill serves later batches without any flight.
	b := cluster.New(ec.Client, cluster.WithCache(cache))
	f := b.Root(ref).CallRO("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := cluster.Typed[int64](f).Get(); v != 42 {
		t.Fatalf("post-rendezvous read %d, want 42", v)
	}
	if calls := gc.Calls(); calls != 1 {
		t.Fatalf("cached read re-invoked the server (%d calls)", calls)
	}
}

// TestDirectoryRefreshCoalesces: concurrent Refresh calls share one node
// poll. The leader is held in flight by link latency; followers join it.
func TestDirectoryRefreshCoalesces(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ep := range ec.Endpoints() {
		ec.Network.SetLinkFaults(clustertest.ClientHost, ep,
			netsim.LinkFaults{ExtraLatency: 150 * time.Millisecond})
	}
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())

	const n = 6
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = dir.Refresh(ctx) }()
	// Wait for the leader to be inside the poll (it counts on entry), then
	// pile the followers on.
	deadline := time.Now().Add(20 * time.Second)
	for clientCounter(ec, "cluster.dir_refreshes") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader refresh never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); errs[i] = dir.Refresh(ctx) }(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("refresh %d: %v", i, err)
		}
	}
	if polls := clientCounter(ec, "cluster.dir_refreshes"); polls > 2 {
		t.Fatalf("%d concurrent refreshes ran %d polls, want coalescing (<= 2)", n, polls)
	}
	if clientCounter(ec, "cluster.dir_refresh_coalesced") == 0 {
		t.Fatal("no refresh reported as coalesced")
	}
}

// TestDirectoryStaleLookupsCoalesceRefresh: N goroutines hitting the same
// wrong-home rejection share the refresh poll instead of issuing N
// identical fan-outs, and every lookup still resolves at the new home.
func TestDirectoryStaleLookupsCoalesceRefresh(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := []string{"server-0", "server-1"}
	admin := cluster.NewDirectory(ec.Client, base)
	stale := cluster.NewDirectory(ec.Client, base)

	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(admin, name, 7)
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	// Slow the client's links so the stale lookups overlap: they all fail
	// wrong-home around the same instant and their refreshes coalesce.
	for _, ep := range []string{"server-0", "server-1", "server-2"} {
		ec.Network.SetLinkFaults(clustertest.ClientHost, ep,
			netsim.LinkFaults{ExtraLatency: 100 * time.Millisecond})
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	eps := make([]string, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			ref, err := stale.Lookup(ctx, name)
			errs[i], eps[i] = err, ref.Endpoint
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("lookup %d: %v", i, errs[i])
		}
		if eps[i] != "server-2" {
			t.Fatalf("lookup %d resolved to %s, want server-2", i, eps[i])
		}
	}
	if polls := clientCounter(ec, "cluster.dir_refreshes"); polls > 2 {
		t.Fatalf("%d stale lookups ran %d node polls, want coalescing (<= 2)", n, polls)
	}
	if e := stale.Epoch(); e != 1 {
		t.Fatalf("stale directory epoch after coalesced refresh = %d, want 1", e)
	}
}
