package cluster_test

// Tests of the lease-backed result cache: zero-round-trip full-hit flushes,
// a write's leases ended at its ack and hidden from its own batch from its
// record, epoch-bump lease drops, a miss as an
// ordinary call of its own batch — one server invocation per batch, never
// another batch's value or failure, its value riding the wave like any
// other — and Directory.Refresh coalescing.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/rmi"
	"repro/internal/wire"
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

// TestClusterCacheCountsEachCallOnce: every cacheable readonly call counts
// once in cache.hits + cache.misses, as what it met when it was recorded.
func TestClusterCacheCountsEachCallOnce(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	counts := func() (hits, misses int64) {
		return clientCounter(ec, "cache.hits"), clientCounter(ec, "cache.misses")
	}
	flush := func(reads ...int) {
		t.Helper()
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		for _, s := range reads {
			b.Root(ec.Servers[s].Ref).CallRO("Get")
		}
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	flush(0) // cold
	if hits, misses := counts(); hits != 0 || misses != 1 {
		t.Fatalf("a cold read counted %d hits and %d misses, want 0 and 1", hits, misses)
	}
	flush(0) // warm
	if hits, misses := counts(); hits != 1 || misses != 1 {
		t.Fatalf("a re-read counted %d hits and %d misses in all, want 1 and 1", hits, misses)
	}
	// A hit, a cold read, and its duplicate, a second call on the wire: one
	// more hit, two more misses.
	flush(0, 1, 1)
	if hits, misses := counts(); hits != 2 || misses != 3 || hits+misses != 5 {
		t.Fatalf("five cacheable reads counted %d hits and %d misses, want 2 and 3", hits, misses)
	}
}

// TestClusterCacheWriteInvalidatesOnlyItsObject: a write recorded against
// one root — on the root itself or on a proxy derived from it — ends that
// object's leases at its ack, leaving the other server's entries servable,
// and refreshes them there: the writer's next read of the object is a hit on
// its own write. Until the ack another batch still hits the pre-write lease,
// while the writer's own batch reads the object from its server.
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
	if v, calls := cachedRead(t, ec, cache, ec.Servers[0].Ref); v != 0 || calls != 0 {
		t.Fatalf("another batch's read before the write's ack = %d at %d calls, want the pre-write 0 at 0", v, calls)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("%d leases live after the write's flush, want 2 (its own refreshed)", n)
	}

	calls := ec.Client.CallCount()
	b2 := cluster.New(ec.Client, cluster.WithCache(cache))
	f0 := b2.Root(ec.Servers[0].Ref).CallRO("Get") // refreshed by the write: a hit on it
	f1 := b2.Root(ec.Servers[1].Ref).CallRO("Get") // untouched: still a hit
	if err := b2.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d := ec.Client.CallCount() - calls; d != 0 {
		t.Fatalf("reads after the write cost %d client calls, want 0", d)
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
	// result) is attributed to the chain's root: its own batch's later read
	// of the root is a call, and the root's leases end at the ack and are
	// refreshed behind the chain's writes. The lease is refilled between the
	// two recordings, so only the write itself can end it.
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
	own := bd.Root(ec.Servers[1].Ref).CallRO("Get")
	if n := cache.Len(); n != 2 {
		t.Fatalf("write recorded through a derived proxy but %d leases live, want 2 until its ack", n)
	}
	if err := bd.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](own).Get(); err != nil || v != 3 {
		t.Fatalf("the writer's own read after the derived write = (%d, %v), want (3, nil)", v, err)
	}
	if v, err := cluster.Typed[int64](read1()).Get(); err != nil || v != 3 {
		t.Fatalf("read after the derived write = (%d, %v), want (3, nil)", v, err)
	}
}

// TestClusterCacheNamedRoots: a named root's leases are filed under its name
// — the only identity it has when it is recorded. A write recorded through
// RootNamed ends, at its ack, what an earlier batch's CallRO through
// RootNamed filled, and its own batch reads the name from its home after the
// write; a named batch whose every call hits still flushes without a round
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
	own := pw.CallRO("Get")
	if n := cache.Len(); n != 1 {
		t.Fatalf("write recorded through the name but %d leases live, want 1 until its ack", n)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](own).Get(); err != nil || v != 12 {
		t.Fatalf("the writer's own read after its write = (%d, %v), want (12, nil)", v, err)
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

// TestClusterConcurrentMissesEachCallTheServer: N batches sharing one cache
// flush the same readonly call while every wave is held server-side. A miss
// is an ordinary call of its batch: each batch invokes the server once, none
// waits for another, and the fills serve a later batch at no call.
func TestClusterConcurrentMissesEachCallTheServer(t *testing.T) {
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

	// Every batch's wave is inside Get at once before any is released.
	deadline := time.Now().Add(20 * time.Second)
	for gc.Calls() < n {
		if time.Now().After(deadline) {
			close(gc.gate)
			wg.Wait()
			t.Fatalf("only %d of %d batches reached the server before the deadline", gc.Calls(), n)
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
	if calls := gc.Calls(); calls != n {
		t.Fatalf("%d batches invoked the server %d times, want once each", n, calls)
	}
	// The fills serve later batches without a call.
	b := cluster.New(ec.Client, cluster.WithCache(cache))
	f := b.Root(ref).CallRO("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := cluster.Typed[int64](f).Get(); v != 42 {
		t.Fatalf("post-rendezvous read %d, want 42", v)
	}
	if calls := gc.Calls(); calls != n {
		t.Fatalf("cached read re-invoked the server (%d calls)", calls)
	}
}

// readResult is what a cached read's flush returned.
type readResult struct {
	v   int64
	err error
}

// flushRead flushes one cached Get of ref under ctx and sends its outcome.
func flushRead(ctx context.Context, ec *clustertest.Cluster, cache *rcache.Cache, ref wire.Ref, out chan<- readResult) {
	b := cluster.New(ec.Client, cluster.WithCache(cache))
	f := b.Root(ref).CallRO("Get")
	if err := b.Flush(ctx); err != nil {
		out <- readResult{err: err}
		return
	}
	v, err := cluster.Typed[int64](f).Get()
	out <- readResult{v, err}
}

// awaitRead waits for a read that should not wait for anything: it reports
// whether it had to unblock, after a bound, what stands in the read's way.
func awaitRead(out <-chan readResult, unblock func()) (r readResult, waited bool) {
	select {
	case r = <-out:
		return r, false
	case <-time.After(5 * time.Second):
		unblock()
		return <-out, true
	}
}

// TestClusterCacheReadAfterAckSeesTheWrite: a read recorded after a write's
// ack returns the write, while another batch's read of the same key, run
// before the write, is still parked at the server with the pre-write value.
// The later read is a call of its own batch and waits for no other batch's;
// the parked read's answer, landing last, does not become the lease.
func TestClusterCacheReadAfterAckSeesTheWrite(t *testing.T) {
	ec := clustertest.New(t, 1)
	ctx := context.Background()
	pc := &parkCounter{}
	ref, err := ec.Servers[0].Peer.Export(pc, "cachetest.ParkCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	parked, release := pc.arm()
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	defer free()
	early := make(chan readResult, 1)
	go flushRead(ctx, ec, cache, ref, early)
	<-parked

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	bw.Root(ref).Call("Add", int64(7))
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	late := make(chan readResult, 1)
	go flushRead(ctx, ec, cache, ref, late)
	if r, waited := awaitRead(late, free); r.err != nil || r.v != 7 || waited {
		t.Fatalf("read recorded after the write's ack = (%d, %v), waited for the parked read: %v; want (7, nil) at once",
			r.v, r.err, waited)
	}
	free()
	if r := <-early; r.err != nil || r.v != 0 {
		t.Fatalf("parked read = (%d, %v), want the pre-write (0, nil)", r.v, r.err)
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 7 || calls != 0 {
		t.Fatalf("read after both = %d at %d calls, want the later read's 7 at 0", v, calls)
	}
}

// TestClusterCacheMissIgnoresAnotherBatchsCancel: a batch whose caller gave
// up fails alone. Its read is parked at the server when its context is
// canceled; another batch reading the same key under a live context gets the
// server's answer, not the first caller's context.Canceled.
func TestClusterCacheMissIgnoresAnotherBatchsCancel(t *testing.T) {
	ec := clustertest.New(t, 1)
	pc := &parkCounter{}
	ref, err := ec.Servers[0].Peer.Export(pc, "cachetest.ParkCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	parked, release := pc.arm()
	defer close(release)
	gaveUp, cancel := context.WithCancel(context.Background())
	defer cancel()
	abandoned := make(chan readResult, 1)
	go flushRead(gaveUp, ec, cache, ref, abandoned)
	<-parked

	live := make(chan readResult, 1)
	go flushRead(context.Background(), ec, cache, ref, live)
	if r, waited := awaitRead(live, cancel); r.err != nil || r.v != 0 || waited {
		t.Fatalf("read under a live context = (%d, %v), waited for the parked read: %v; want (0, nil) at once",
			r.v, r.err, waited)
	}
	cancel()
	if r := <-abandoned; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("the abandoned read = (%d, %v), want context.Canceled", r.v, r.err)
	}
}

// TestOtherBatchHitsUntilTheWriteAcks: a recorded write takes effect when
// its batch flushes, so until its ack another batch's read of the object is
// a hit on the pre-write lease — recorded before the write's flush, or while
// its request is at the server, after the write ran there — at no call. The
// writer's own reads recorded after the write, through its root or through
// a second root on the same ref, are calls of its batch and return the
// write; a read begun after the ack is a hit on the write's re-read.
func TestOtherBatchHitsUntilTheWriteAcks(t *testing.T) {
	ec := clustertest.New(t, 1)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	ref := ec.Servers[0].Ref
	alias := ref
	alias.Iface = "cachetest.Alias" // another root proxy, the same lease identity
	if v, _ := cachedRead(t, ec, cache, ref); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	var during readResult
	var duringCalls uint64
	fire, err := ec.Servers[0].Peer.Export(&blocker{hook: func() {
		before := ec.Client.CallCount()
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		f := b.Root(ref).CallRO("Get")
		if during.err = b.Flush(ctx); during.err == nil {
			during.v, during.err = cluster.Typed[int64](f).Get()
		}
		duringCalls = ec.Client.CallCount() - before
	}}, "cluster.Blocker")
	if err != nil {
		t.Fatal(err)
	}

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	w := bw.Root(ref).Call("Add", int64(5))
	bw.Root(fire).Call("Fire") // runs after the write, in the same request
	own := bw.Root(ref).CallRO("Get")
	ownAlias := bw.Root(alias).CallRO("Get")
	if v, calls := cachedRead(t, ec, cache, ref); v != 0 || calls != 0 {
		t.Fatalf("another batch's read recorded before the write's flush = %d at %d calls, want the pre-write 0 at 0", v, calls)
	}
	calls := ec.Client.CallCount()
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d := ec.Client.CallCount() - calls; d != 1 {
		t.Fatalf("the write's flush cost %d client calls, want 1", d)
	}
	if during.err != nil || during.v != 0 || duringCalls != 0 {
		t.Fatalf("another batch's read while the write was in flight = (%d, %v) at %d calls, want the pre-write (0, nil) at 0",
			during.v, during.err, duringCalls)
	}
	for _, f := range []*cluster.Future{w, own, ownAlias} {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 5 {
			t.Fatalf("the write and its batch's reads after it = (%d, %v), want (5, nil)", v, err)
		}
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 5 || calls != 0 {
		t.Fatalf("read begun after the write's ack = %d at %d calls, want the write's 5 at 0", v, calls)
	}
}

// giver is an object whose write Give adds to another object, passed to it
// as a proxy argument.
type giver struct{ rmi.RemoteBase }

// Give adds d to the counter to and returns its new total.
func (g *giver) Give(ctx context.Context, to rmi.Invoker, d int64) (int64, error) {
	res, err := to.Invoke(ctx, "Add", d)
	if err != nil {
		return 0, err
	}
	n, _ := res[0].(int64)
	return n, nil
}

// TestProxyArgumentWriteDropsLeaseAtItsAck: a root a write takes as a proxy
// argument is written by the write's server, which may reach it after any
// re-read did, so its leases are not re-read — but they end at the write's
// ack like a written root's: another batch hits the pre-write lease until
// then, and a read after the flush misses and fetches the write.
func TestProxyArgumentWriteDropsLeaseAtItsAck(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	from, err := ec.Servers[0].Peer.Export(&giver{}, "cachetest.Giver")
	if err != nil {
		t.Fatal(err)
	}
	to := ec.Servers[1].Ref
	if v, _ := cachedRead(t, ec, cache, to); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	g := bw.Root(from).Call("Give", bw.Root(to), int64(5))
	if v, calls := cachedRead(t, ec, cache, to); v != 0 || calls != 0 {
		t.Fatalf("another batch's read before the write's ack = %d at %d calls, want the pre-write 0 at 0", v, calls)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](g).Get(); err != nil || v != 5 {
		t.Fatalf("Give = (%d, %v), want (5, nil)", v, err)
	}
	if v, calls := cachedRead(t, ec, cache, to); v != 5 || calls != 1 {
		t.Fatalf("read of the proxied root after the write's ack = %d at %d calls, want a fetch of 5", v, calls)
	}
}

// TestClusterCacheReadersSeeEveryAckedWrite: reader goroutines and one
// writer share one cache, over two objects. A read begun after a write's
// ack returns at least the version that write acked — whether it hits a
// lease or fetches — and the writer's own read after each write returns the
// write.
func TestClusterCacheReadersSeeEveryAckedWrite(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	refs := [2]wire.Ref{ec.Servers[0].Ref, ec.Servers[1].Ref}
	var acked [2]atomic.Int64
	errs := make(chan error, 3) // one per reader, each sends at most once
	done := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stop := func() { once.Do(func() { close(done); wg.Wait() }) }
	defer stop()
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := [2]int64{acked[0].Load(), acked[1].Load()}
				b := cluster.New(ec.Client, cluster.WithCache(cache))
				fs := [2]*cluster.Future{b.Root(refs[0]).CallRO("Get"), b.Root(refs[1]).CallRO("Get")}
				if err := b.Flush(ctx); err != nil {
					errs <- err
					return
				}
				for i, f := range fs {
					if v, err := cluster.Typed[int64](f).Get(); err != nil || v < floor[i] {
						errs <- fmt.Errorf("object %d read (%d, %v) after version %d was acked", i, v, err, floor[i])
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for i := range 200 {
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		w := b.Root(refs[i%2]).Call("Add", int64(1))
		own := b.Root(refs[i%2]).CallRO("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := cluster.Typed[int64](w).Get()
		if err != nil {
			t.Fatal(err)
		}
		if o, err := cluster.Typed[int64](own).Get(); err != nil || o != v {
			t.Fatalf("the writer's own read after write %d = (%d, %v), want (%d, nil)", i, o, err, v)
		}
		acked[i%2].Store(v)
	}
	stop()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCachedProducerRidesTheWave: a cacheable read that misses is an
// ordinary call, so its value feeds another server's call inside the same
// wave — pushed server to server — and the flush costs one wave, not two.
// Its value still fills the cache.
func TestCachedProducerRidesTheWave(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	a, src := ec.Servers[0].Ref, ec.Servers[1].Ref
	seed := cluster.New(ec.Client)
	seed.Root(src).Call("Add", int64(4))
	if err := seed.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))

	calls := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithCache(cache))
	v := b.Root(src).CallRO("Get")
	sum := b.Root(a).Call("Add", v)
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d, w := ec.Client.CallCount()-calls, b.Waves(); d != 2 || w != 1 {
		t.Fatalf("a cached read feeding another server's call cost %d calls in %d waves, want 2 in 1", d, w)
	}
	if got, err := cluster.Typed[int64](sum).Get(); err != nil || got != 4 {
		t.Fatalf("consumer = (%d, %v), want (4, nil)", got, err)
	}
	if got, calls := cachedRead(t, ec, cache, src); got != 4 || calls != 0 {
		t.Fatalf("read of the producer's object = %d at %d calls, want its fill, 4 at 0", got, calls)
	}
}

// waitForPolls waits until the client has started n ring polls.
func waitForPolls(t *testing.T, ec *clustertest.Cluster, n int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for clientCounter(ec, "cluster.dir_refreshes") < n {
		if time.Now().After(deadline) {
			t.Fatalf("ring poll %d never started", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDirectoryRefreshCoalesces: concurrent Refresh calls share one node
// poll and its outcome. The leader is held in flight by link latency;
// followers join it, and each caller either started a poll or joined one.
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
	waitForPolls(t, ec, 1)
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
	polls, joined := clientCounter(ec, "cluster.dir_refreshes"), clientCounter(ec, "cluster.dir_refresh_coalesced")
	if polls > 2 {
		t.Fatalf("%d concurrent refreshes ran %d polls, want coalescing (<= 2)", n, polls)
	}
	if joined == 0 {
		t.Fatal("no refresh reported as coalesced")
	}
	if polls+joined != n {
		t.Fatalf("%d refreshes started %d polls and joined %d, want each to do one", n, polls, joined)
	}
}

// TestDirectoryRefreshOutlivesItsFirstCaller: a coalesced poll runs on a
// context of its own, and each caller waits under its own. Over 150 ms
// client links, a first caller with 50 ms returns its own deadline while a
// second with 30 s, joining its poll, succeeds. A caller that comes after
// every waiter gave up starts a poll of its own rather than join the
// abandoned one, which was cancelled.
func TestDirectoryRefreshOutlivesItsFirstCaller(t *testing.T) {
	ec := clustertest.New(t, 2)
	for _, ep := range ec.Endpoints() {
		ec.Network.SetLinkFaults(clustertest.ClientHost, ep,
			netsim.LinkFaults{ExtraLatency: 150 * time.Millisecond})
	}
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	refresh := func(d time.Duration) error {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return dir.Refresh(ctx)
	}

	first := make(chan error, 1)
	go func() { first <- refresh(50 * time.Millisecond) }()
	waitForPolls(t, ec, 1)
	if err := refresh(30 * time.Second); err != nil {
		t.Fatalf("the second caller's refresh: %v", err)
	}
	if err := <-first; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("the first caller's refresh = %v, want its own deadline", err)
	}
	if polls, joined := clientCounter(ec, "cluster.dir_refreshes"), clientCounter(ec, "cluster.dir_refresh_coalesced"); polls != 1 || joined != 1 {
		t.Fatalf("%d polls started, %d joined; want the second caller in the first's poll: 1, 1", polls, joined)
	}

	if err := refresh(50 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a lone caller's refresh = %v, want its own deadline", err)
	}
	if err := refresh(30 * time.Second); err != nil {
		t.Fatalf("the refresh after an abandoned poll: %v", err)
	}
	if polls := clientCounter(ec, "cluster.dir_refreshes"); polls != 3 {
		t.Fatalf("%d polls started, want 3: the abandoned poll is not joined", polls)
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
