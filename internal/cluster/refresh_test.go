package cluster_test

// Tests of the write's lease refresh: a write through a cached batch notes
// the live leases of the root it writes when recorded, re-reads them on the
// last request its flush sends the root's server, after every call of it,
// and at the flush's end ends the root's leases and files the re-reads in
// their place if every write of the root had settled when that request
// answered — so the writer's next read of its own write is a hit, and a fill
// that raced the write is dropped.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rcache"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// cachedRead flushes one cached Get of ref and returns its value and the
// client calls the flush cost.
func cachedRead(t *testing.T, ec *clustertest.Cluster, cache *rcache.Cache, ref wire.Ref) (v int64, calls uint64) {
	t.Helper()
	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithCache(cache))
	f := b.Root(ref).CallRO("Get")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	v, err := cluster.Typed[int64](f).Get()
	if err != nil {
		t.Fatal(err)
	}
	return v, ec.Client.CallCount() - before
}

// TestRefreshRidesTheWriteRoundTrip: a write flush over two destinations
// costs one call per destination, as it does without a cache, and leaves
// each written object's lease holding the write: the next read is a hit, at
// no call. The leases serve until the ack, the re-reads count as neither
// hits nor misses, and only the writes' records count as invalidations.
func TestRefreshRidesTheWriteRoundTrip(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	for _, s := range ec.Servers {
		if v, _ := cachedRead(t, ec, cache, s.Ref); v != 0 {
			t.Fatalf("filling read = %d, want 0", v)
		}
	}
	counts := func() (hits, misses, invs int64) {
		return clientCounter(ec, "cache.hits"), clientCounter(ec, "cache.misses"), clientCounter(ec, "cache.invalidations")
	}
	hits, misses, invs := counts()

	calls := ec.Client.CallCount()
	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	w0 := bw.Root(ec.Servers[0].Ref).Call("Add", int64(5))
	w1 := bw.Root(ec.Servers[1].Ref).Call("Add", int64(7))
	if n := cache.Len(); n != 2 {
		t.Fatalf("writes recorded but %d leases live, want both until the ack", n)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d, w := ec.Client.CallCount()-calls, bw.Waves(); d != 2 || w != 1 {
		t.Fatalf("write flush cost %d calls in %d waves, want 2 in 1", d, w)
	}
	for i, f := range []*cluster.Future{w0, w1} {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != []int64{5, 7}[i] {
			t.Fatalf("write %d = (%d, %v), want (%d, nil)", i, v, err, []int64{5, 7}[i])
		}
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("%d leases after the write's ack, want both refreshed", n)
	}
	if h, m, i := counts(); h != hits || m != misses || i != invs+2 {
		t.Fatalf("the write flush counted %d hits, %d misses, %d invalidations; want 0, 0, 2",
			h-hits, m-misses, i-invs)
	}

	for i, s := range ec.Servers {
		if v, calls := cachedRead(t, ec, cache, s.Ref); v != []int64{5, 7}[i] || calls != 0 {
			t.Fatalf("read after the write = %d at %d calls, want %d at 0", v, calls, []int64{5, 7}[i])
		}
	}
}

// TestRefreshDropsAFillThatRacedTheWrite: a read recorded after a write but
// executed before it fills the cache while the write is in flight. The
// write's ack drops that fill, so the next read fetches the write.
func TestRefreshDropsAFillThatRacedTheWrite(t *testing.T) {
	ec := clustertest.New(t, 1)
	ctx := context.Background()
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	ref := ec.Servers[0].Ref

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	bw.Root(ref).Call("Add", int64(5))
	if v, _ := cachedRead(t, ec, cache, ref); v != 0 {
		t.Fatalf("read before the write executed = %d, want 0", v)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("the raced read filed %d leases, want 1: the test proves nothing", n)
	}
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d leases survived the write's ack, want 0", n)
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 5 || calls != 1 {
		t.Fatalf("read after the write = %d at %d calls, want a fetch of 5", v, calls)
	}
}

// replicatedSource binds, on a two-server cluster, a counter seeded with 4
// under a name whose primary is server-1, replicated on server-0, and returns
// the name and the directory it was placed through: a value read from it
// crosses to server-0 a wave later (plan.go stages it until its quorum holds
// it).
func replicatedSource(t *testing.T, ec *clustertest.Cluster) (string, *cluster.Directory) {
	t.Helper()
	probe := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	name := nameWhere(t, probe, "src", "server-1", anyOwners)
	return name, placedDirectory(t, ec, map[string]int64{name: 4})
}

// TestRefreshAfterStagedWrite: a write whose argument is a replicated
// server's value runs a wave after it (plan.go stages the edge); the re-read
// of the written object's lease rides that second wave, after the write.
func TestRefreshAfterStagedWrite(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	srcName, dir := replicatedSource(t, ec)
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	if v, _ := cachedRead(t, ec, cache, ec.Servers[0].Ref); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	calls := ec.Client.CallCount()
	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	q, err := bw.RootNamed(ctx, srcName)
	if err != nil {
		t.Fatal(err)
	}
	w := bw.Root(ec.Servers[0].Ref).Call("Add", q.Call("Get"))
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d, w := ec.Client.CallCount()-calls, bw.Waves(); d != 2 || w != 2 {
		t.Fatalf("staged write cost %d calls in %d waves, want 2 in 2", d, w)
	}
	if v, err := cluster.Typed[int64](w).Get(); err != nil || v != 4 {
		t.Fatalf("staged write = (%d, %v), want (4, nil)", v, err)
	}
	if got, calls := cachedRead(t, ec, cache, ec.Servers[0].Ref); got != 4 || calls != 0 {
		t.Fatalf("read after the staged write = %d at %d calls, want 4 at 0", got, calls)
	}
}

// TestRefreshFollowsEveryWrite: the planner keeps program order per server
// only within a stage, so a root's last recorded write need not run last.
// Here a write staged behind a replicated server's value is recorded before
// an unstaged write of the same root: the unstaged one runs in the first
// wave, the staged one in the second. The re-read follows both, and the lease
// is filed only once both were acked, so it holds the final total.
func TestRefreshFollowsEveryWrite(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	srcName, dir := replicatedSource(t, ec)
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	a := ec.Servers[0].Ref
	if v, _ := cachedRead(t, ec, cache, a); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	calls := ec.Client.CallCount()
	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	q, err := bw.RootNamed(ctx, srcName)
	if err != nil {
		t.Fatal(err)
	}
	staged := bw.Root(a).Call("Add", q.Call("Get")) // second wave: 5
	unstaged := bw.Root(a).Call("Add", int64(1))    // first wave: 1
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if d, w := ec.Client.CallCount()-calls, bw.Waves(); d != 3 || w != 2 {
		t.Fatalf("flush cost %d calls in %d waves, want 3 in 2", d, w)
	}
	if s, err := cluster.Typed[int64](staged).Get(); err != nil || s != 5 {
		t.Fatalf("staged write = (%d, %v), want (5, nil): it did not run last", s, err)
	}
	if u, err := cluster.Typed[int64](unstaged).Get(); err != nil || u != 1 {
		t.Fatalf("unstaged write = (%d, %v), want (1, nil)", u, err)
	}
	if got, calls := cachedRead(t, ec, cache, a); got != 5 || calls != 0 {
		t.Fatalf("read after both writes = %d at %d calls, want the final 5 at 0", got, calls)
	}
}

// bytesCounter is a counter whose readonly Weigh takes a byte slice.
type bytesCounter struct {
	rmi.RemoteBase
	mu sync.Mutex
	n  int64
}

func (c *bytesCounter) Add(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n
}

// Weigh returns the total plus the first byte of b.
func (c *bytesCounter) Weigh(b []byte) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n + int64(b[0])
}

// TestRefreshSendsTheLeasesOwnArgs: a caller that reuses an argument
// buffer after the read that filled a lease flushed does not change what
// the write's re-read of that lease asks. The re-read sends the arguments
// the lease's key was built from, so the lease holds the answer to its own
// call.
func TestRefreshSendsTheLeasesOwnArgs(t *testing.T) {
	ec := clustertest.New(t, 1)
	ctx := context.Background()
	bc := &bytesCounter{}
	ref, err := ec.Servers[0].Peer.Export(bc, "refreshtest.BytesCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	weigh := func(arg []byte) (int64, uint64) {
		t.Helper()
		before := ec.Client.CallCount()
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		f := b.Root(ref).CallRO("Weigh", arg)
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := cluster.Typed[int64](f).Get()
		if err != nil {
			t.Fatal(err)
		}
		return v, ec.Client.CallCount() - before
	}
	buf := []byte{1}
	if v, _ := weigh(buf); v != 1 {
		t.Fatalf("filling read = %d, want 1", v)
	}
	buf[0] = 100 // the caller reuses its buffer

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	bw.Root(ref).Call("Add", int64(5))
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, calls := weigh([]byte{1}); v != 6 || calls != 0 {
		t.Fatalf("Weigh([1]) after the write = %d at %d calls, want the refreshed 6 at 0", v, calls)
	}
}

// parkCounter is a counter whose armed Get reads the total, then parks
// until released: a read that executed before a write and answers after it.
type parkCounter struct {
	rmi.RemoteBase
	mu     sync.Mutex
	n      int64
	park   chan struct{}
	parked chan struct{}
}

func (p *parkCounter) Add(d int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n += d
	return p.n
}

func (p *parkCounter) Get() int64 {
	p.mu.Lock()
	v, park, parked := p.n, p.park, p.parked
	p.park = nil
	p.mu.Unlock()
	if park != nil {
		close(parked)
		<-park
	}
	return v
}

// arm makes the next Get park; it returns the channels that report it
// parked and release it.
func (p *parkCounter) arm() (parked <-chan struct{}, release chan<- struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.park, p.parked = make(chan struct{}), make(chan struct{})
	return p.parked, p.park
}

// TestRefreshBypassesAParkedRead: a read recorded after a write is parked at
// the server with the pre-write total when the write flushes — the lease,
// which would have served it until the write's ack, expired in between. The
// write's re-read is a call of the write's own batch and does not wait for
// it, and the parked read's answer, landing after the write's ack, does not
// replace the re-read as the lease.
func TestRefreshBypassesAParkedRead(t *testing.T) {
	e := newRiderEnv(t)
	ec, cache := e.ec, e.cache
	ctx := context.Background()
	pc := &parkCounter{}
	ref, err := ec.Servers[0].Peer.Export(pc, "refreshtest.ParkCounter")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cachedRead(t, ec, cache, ref); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	bw.Root(ref).Call("Add", int64(5)) // the lease is live: its re-read is planned
	e.clock.advance(2 * riderTTL)      // and now expired: the next read misses

	parked, release := pc.arm()
	read := make(chan int64, 1)
	go func() {
		b := cluster.New(ec.Client, cluster.WithCache(cache))
		f := b.Root(ref).CallRO("Get")
		_ = b.Flush(ctx)
		v, _ := cluster.Typed[int64](f).Get()
		read <- v
	}()
	<-parked

	flushed := make(chan error, 1)
	go func() { flushed <- bw.Flush(ctx) }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		<-flushed
		t.Fatal("the write's flush waited for the parked read")
	}
	close(release)
	if v := <-read; v != 0 {
		t.Fatalf("parked read = %d, want the pre-write 0", v)
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 5 || calls != 0 {
		t.Fatalf("read after the write = %d at %d calls, want the refreshed 5 at 0", v, calls)
	}
}

// cutCounter is a counter whose Add, once armed, cuts the client off after
// applying: the write executes, its reply is lost.
type cutCounter struct {
	rmi.RemoteBase
	mu  sync.Mutex
	n   int64
	cut func()
}

func (c *cutCounter) Add(d int64) int64 {
	c.mu.Lock()
	c.n += d
	n, cut := c.n, c.cut
	c.cut = nil
	c.mu.Unlock()
	if cut != nil {
		cut()
	}
	return n
}

func (c *cutCounter) Get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestRefreshFailedDestinationLeavesNoLease: a destination whose reply is
// lost after it executed the write and the re-read files no lease — the
// flush cannot tell what ran — while the other destination of the same flush
// renews its own.
func TestRefreshFailedDestinationLeavesNoLease(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cc := &cutCounter{}
	ref, err := ec.Servers[0].Peer.Export(cc, "refreshtest.CutCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	for _, r := range []wire.Ref{ref, ec.Servers[1].Ref} {
		if v, _ := cachedRead(t, ec, cache, r); v != 0 {
			t.Fatalf("filling read = %d, want 0", v)
		}
	}

	cc.mu.Lock()
	cc.cut = func() { ec.Network.PartitionPair(clustertest.ClientHost, "server-0") }
	cc.mu.Unlock()
	bw := cluster.New(ec.Client, cluster.WithCache(cache))
	bw.Root(ref).Call("Add", int64(5))
	bw.Root(ec.Servers[1].Ref).Call("Add", int64(7))
	err = bw.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) || !slices.ContainsFunc(fe.Failures, func(f cluster.ServerError) bool { return f.Endpoint == "server-0" }) {
		t.Fatalf("flush = %v, want a *FlushError naming server-0", err)
	}
	ec.Network.HealAll()
	if n := cache.Len(); n != 1 {
		t.Fatalf("%d leases after the flush, want 1 (server-1's)", n)
	}
	if v, calls := cachedRead(t, ec, cache, ec.Servers[1].Ref); v != 7 || calls != 0 {
		t.Fatalf("read of the acked write = %d at %d calls, want 7 at 0", v, calls)
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 5 || calls != 1 {
		t.Fatalf("read of the unacked write = %d at %d calls, want a fetch of 5", v, calls)
	}
}

// TestRefreshReplicatedWrite: on an R=2 ring the re-read rides the
// replicated wave and its follower replays it as the read it is — the
// follower's shadow holds the write and nothing else — and, fault-free, the
// client acks exactly the calls the servers executed.
func TestRefreshReplicatedWrite(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := dir.Owners("obj-0")
	primary, follower := owners[0], ec.Server(owners[1])
	cache := cluster.NewCache(ec.Client, dir, rcache.WithTTL(time.Minute))
	read := func() (int64, uint64) {
		t.Helper()
		before := ec.Client.CallCount()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			t.Fatal(err)
		}
		f := p.CallRO("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := cluster.Typed[int64](f).Get()
		if err != nil {
			t.Fatal(err)
		}
		return v, ec.Client.CallCount() - before
	}
	executed := func() (total int64) {
		for _, s := range ec.Servers {
			total += s.Stats.Snapshot().Counter("core.calls_executed")
		}
		return total
	}
	if v, _ := read(); v != 100 {
		t.Fatalf("filling read = %d, want 100", v)
	}

	acked, ran := clientCounter(ec, "core.calls_acked"), executed()
	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	p, err := bw.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Add", int64(5))
	if err := bw.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if a, e := clientCounter(ec, "core.calls_acked")-acked, executed()-ran; a != 2 || e != 2 {
		t.Fatalf("the write and its re-read: client acked %d calls, servers executed %d; want 2 and 2", a, e)
	}
	shadow, ok := follower.Replica.Shadow(primary, "obj-0")
	if !ok {
		t.Fatal("no readable shadow of obj-0")
	}
	if c := shadow.(*clustertest.Counter); c.Get() != 105 || !slices.Equal(c.History(), []int64{5}) {
		t.Fatalf("follower shadow = %d with history %v, want 105 and [5]", c.Get(), c.History())
	}
	if v, calls := read(); v != 105 || calls != 0 {
		t.Fatalf("read after the replicated write = %d at %d calls, want 105 at 0", v, calls)
	}
}

// TestRefreshReplicatedStagedWrite: a re-read behind writes of two waves on
// a replicated root takes nothing from either — it rides the root's last
// request, unplanned — so a remote result the earlier write left on the
// primary is not something the re-read consumes in a later wave, where it no
// longer lives (*CrossWaveError). The later write takes the value of
// a read on another replicated primary, which waits for its quorum and goes
// through the client a wave later. The flush runs, and the lease holds the
// final total.
func TestRefreshReplicatedStagedWrite(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	probe := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	home, _ := probe.Owners("obj-0")
	srcHome := ec.Endpoints()[0]
	if srcHome == home[0] {
		srcHome = ec.Endpoints()[1]
	}
	srcName := nameWhere(t, probe, "src", srcHome, anyOwners)
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100, srcName: 4})
	cache := cluster.NewCache(ec.Client, dir, rcache.WithTTL(time.Minute))
	read := func() (int64, uint64) {
		t.Helper()
		before := ec.Client.CallCount()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			t.Fatal(err)
		}
		f := p.CallRO("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := cluster.Typed[int64](f).Get()
		if err != nil {
			t.Fatal(err)
		}
		return v, ec.Client.CallCount() - before
	}
	if v, _ := read(); v != 100 {
		t.Fatalf("filling read = %d, want 100", v)
	}

	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	p, err := bw.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	q, err := bw.RootNamed(ctx, srcName)
	if err != nil {
		t.Fatal(err)
	}
	p.CallBatch("Fork", int64(1))  // first wave, a remote result
	p.Call("Add", q.CallRO("Get")) // second wave: 104
	if err := bw.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if w := bw.Waves(); w != 2 {
		t.Fatalf("flush took %d waves, want 2", w)
	}
	if v, calls := read(); v != 104 || calls != 0 {
		t.Fatalf("read after the writes = %d at %d calls, want the refreshed 104 at 0", v, calls)
	}
}

// TestRefreshFollowsTheStaleRetry: a write the stale-route retry runs again
// takes its re-read with it. The client's ring is one epoch behind; a value
// ping-pongs between a staying root and one that moved. The staying root's
// last write waits, in the first wave, for a value the moved root's old home
// refuses to produce, so its server fails it unexecuted and runs the re-read
// behind it on the pre-write total; the retry runs the write again, and its
// re-read after it. The cache here stamps no epoch, so the retry's ring
// refresh does not void the renewal: both leases must hold the final totals.
func TestRefreshFollowsTheStaleRetry(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	before, after := []string{"server-0", "server-1"}, []string{"server-0", "server-1", "server-2"}
	live := cluster.NewDirectory(ec.Client, before)
	moving := clustertest.PickNames(live.Ring(), cluster.NewRing(after), "server-0", "server-2", 1)[0]
	staying := clustertest.PickNames(live.Ring(), cluster.NewRing(after), "server-1", "server-1", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, staying, 1)
	stale := cluster.NewDirectory(ec.Client, before)
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	read := func(name string) (int64, uint64) {
		t.Helper()
		calls := ec.Client.CallCount()
		b := cluster.New(ec.Client, cluster.WithDirectory(stale), cluster.WithCache(cache))
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		f := p.CallRO("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := cluster.Typed[int64](f).Get()
		if err != nil {
			t.Fatal(err)
		}
		return v, ec.Client.CallCount() - calls
	}
	for name, want := range map[string]int64{moving: 10, staying: 1} {
		if v, _ := read(name); v != want {
			t.Fatalf("filling read of %s = %d, want %d", name, v, want)
		}
	}
	if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale), cluster.WithCache(cache))
	ps, err := b.RootNamed(ctx, staying)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.RootNamed(ctx, moving)
	if err != nil {
		t.Fatal(err)
	}
	f0 := ps.Call("Add", int64(1)) // server-1: 2
	f1 := pm.Call("Add", f0)       // refused at the old home: 12 at the new
	f2 := ps.Call("Add", f1)       // server-1, waiting for f1: 14 in the retry
	pm.Call("Add", f2)             // at the new home: 26
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush over a ring one epoch behind: %v", err)
	}
	if w := b.Waves(); w != 2 || !b.StaleRetried() {
		t.Fatalf("flush took %d waves, retried %v; want 2 and the retry spent", w, b.StaleRetried())
	}
	for name, want := range map[string]int64{staying: 14, moving: 26} {
		if v, calls := read(name); v != want || calls != 0 {
			t.Errorf("read of %s after the flush = %d at %d calls, want the refreshed %d at 0", name, v, calls, want)
		}
	}
}

// TestRefreshFailedEarlierWaveLeavesNoLease: a written root whose
// destination failed in an earlier wave than its last — the first write's
// reply is lost after it executed, and a write staged behind a replicated
// server's value was to follow a wave later — sends no re-read, for the
// destination's last request never leaves the client. No lease of the root
// is filed, and the flush's end still moves the root's generation past the
// one its writes left, so no fill ticketed before can land.
func TestRefreshFailedEarlierWaveLeavesNoLease(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	srcName, dir := replicatedSource(t, ec)
	cc := &cutCounter{}
	ref, err := ec.Servers[0].Peer.Export(cc, "refreshtest.CutCounter")
	if err != nil {
		t.Fatal(err)
	}
	cache := cluster.NewCache(ec.Client, nil, rcache.WithTTL(time.Minute))
	if v, _ := cachedRead(t, ec, cache, ref); v != 0 {
		t.Fatalf("filling read = %d, want 0", v)
	}

	cc.mu.Lock()
	cc.cut = func() { ec.Network.PartitionPair(clustertest.ClientHost, "server-0") }
	cc.mu.Unlock()
	bw := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithCache(cache))
	q, err := bw.RootNamed(ctx, srcName)
	if err != nil {
		t.Fatal(err)
	}
	first := bw.Root(ref).Call("Add", int64(1))       // first wave: cut after it ran
	staged := bw.Root(ref).Call("Add", q.Call("Get")) // second wave: never sent
	obj := rcache.ObjKey(ref)
	written := cache.Gen(obj)
	err = bw.Flush(ctx)
	ec.Network.HealAll()
	var fe *cluster.FlushError
	if !errors.As(err, &fe) || len(fe.Failures) != 1 || fe.Failures[0].Endpoint != "server-0" || fe.Failures[0].Stage != 0 {
		t.Fatalf("flush = %v, want a *FlushError naming server-0 in stage 0", err)
	}
	if staged.Err() == nil || first.Err() == nil {
		t.Fatalf("writes = %v, %v; want both failed with their destination", first.Err(), staged.Err())
	}
	if n := cache.Len(); n != 0 {
		t.Fatalf("%d leases after the flush, want 0", n)
	}
	if g := cache.Gen(obj); g <= written {
		t.Fatalf("generation %d after the flush, want past the writes' %d", g, written)
	}
	if v, calls := cachedRead(t, ec, cache, ref); v != 1 || calls != 1 {
		t.Fatalf("read after the flush = %d at %d calls, want a fetch of 1", v, calls)
	}
}
