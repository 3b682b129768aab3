package cluster_test

// Tests of riders: a lease two Gets served since it was filed, in the last
// 1/25 of its TTL, is re-read by a request its flush sends to the lease's server
// anyway, and filed again before it lapses into a miss of its own. The tests
// count the client's calls through the peer and the riders sent in
// cache.renewals: a rider never adds a call, never fails or retries the
// caller's flush, and never rides where it is not let.

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rcache"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// riderTTL is the leases' lifetime in these tests: due in its last 40 ms.
const riderTTL = time.Second

// manualClock is a clock the test moves by hand.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// riderEnv is a two-server cluster and a lease cache on a hand-moved clock,
// whose counters its own registry keeps.
type riderEnv struct {
	t     *testing.T
	ec    *clustertest.Cluster
	clock *manualClock
	reg   *stats.Registry
	cache *rcache.Cache
}

func newRiderEnv(t *testing.T) *riderEnv {
	clock := &manualClock{now: time.Unix(1000, 0)}
	reg := stats.New(stats.WithClock(clock))
	return &riderEnv{t: t, ec: clustertest.New(t, 2), clock: clock, reg: reg,
		cache: rcache.New(reg, rcache.WithTTL(riderTTL))}
}

// counter exports a fresh counter seeded with seed on server s.
func (e *riderEnv) counter(s int, seed int64) (wire.Ref, *clustertest.Counter) {
	e.t.Helper()
	c := clustertest.NewCounter(seed)
	ref, err := e.ec.Servers[s].Peer.Export(c, clustertest.CounterIface)
	if err != nil {
		e.t.Fatal(err)
	}
	return ref, c
}

// read flushes one batch of Get calls on refs and returns their values and
// how many client calls the flush made.
func (e *riderEnv) read(refs []wire.Ref, opts ...cluster.Option) (vals []int64, calls uint64) {
	e.t.Helper()
	before := e.ec.Client.CallCount()
	b := cluster.New(e.ec.Client, append([]cluster.Option{cluster.WithCache(e.cache)}, opts...)...)
	var fs []*cluster.Future
	for _, ref := range refs {
		fs = append(fs, b.Root(ref).CallRO("Get"))
	}
	if err := b.Flush(context.Background()); err != nil {
		e.t.Fatalf("flush: %v", err)
	}
	if b.StaleRetried() {
		e.t.Errorf("a flush of %v spent its stale-route retry", refs)
	}
	for _, f := range fs {
		v, err := cluster.Typed[int64](f).Get()
		if err != nil {
			e.t.Fatalf("read: %v", err)
		}
		vals = append(vals, v)
	}
	return vals, e.ec.Client.CallCount() - before
}

// hot files a lease on ref and serves two hits from it, which make it due,
// then moves the clock into the lease's last 1/25.
func (e *riderEnv) hot(ref wire.Ref) {
	e.t.Helper()
	e.read([]wire.Ref{ref})
	e.clock.advance(riderTTL / 2)
	for range 2 {
		if _, calls := e.read([]wire.Ref{ref}); calls != 0 {
			e.t.Fatalf("a hit made %d calls", calls)
		}
	}
	e.clock.advance(riderTTL/2 - riderTTL/50)
}

func (e *riderEnv) renewals() int64 { return e.reg.Snapshot().Counter("cache.renewals") }

// cached returns the value the cache serves for ref's Get, if it serves one.
func (e *riderEnv) cached(ref wire.Ref) (int64, bool) {
	key, _ := rcache.Key(ref, "Get", nil)
	v, ok := e.cache.Get(key)
	n, _ := v.(int64)
	return n, ok
}

// TestRiderRidesAMissToItsServer: a due lease rides a miss's trip to its
// server. The flush costs the one call the miss costs, the rider re-reads the
// value the object holds now, and after the old expiry the read is a hit on
// it.
func TestRiderRidesAMissToItsServer(t *testing.T) {
	e := newRiderEnv(t)
	hotRef, hot := e.counter(0, 1)
	coldRef, _ := e.counter(0, 7)
	e.hot(hotRef)
	hot.Add(4) // on the server, behind the cache's back

	if vals, calls := e.read([]wire.Ref{coldRef}); calls != 1 || vals[0] != 7 {
		t.Fatalf("miss flush = %v in %d calls, want [7] in 1", vals, calls)
	}
	if got := e.renewals(); got != 1 {
		t.Fatalf("cache.renewals = %d, want 1", got)
	}
	e.clock.advance(riderTTL / 2) // past the lease's first expiry
	if vals, calls := e.read([]wire.Ref{hotRef}); calls != 0 || vals[0] != 5 {
		t.Fatalf("read after the old expiry = %v in %d calls, want the re-read [5] in 0", vals, calls)
	}
}

// TestAllHitFlushSendsNoRider: riders never open a trip. A flush whose every
// read hits sends nothing, with a lease due on the server.
func TestAllHitFlushSendsNoRider(t *testing.T) {
	e := newRiderEnv(t)
	hotRef, _ := e.counter(0, 1)
	e.hot(hotRef)
	if _, calls := e.read([]wire.Ref{hotRef}); calls != 0 {
		t.Fatalf("an all-hit flush made %d calls, want 0", calls)
	}
	if got := e.renewals(); got != 0 {
		t.Fatalf("cache.renewals = %d after an all-hit flush, want 0", got)
	}
}

// TestRiderOfAGoneObject: a rider whose object left its server — unexported,
// or migrated under a directory that has not seen the move — fails alone. The
// caller's flush returns nil, every caller future holds its value, no
// stale-route retry is spent, and no lease is filed.
func TestRiderOfAGoneObject(t *testing.T) {
	for _, gone := range []struct {
		name string
		drop func(p *rmi.Peer, ref wire.Ref)
	}{
		{"unexported", func(p *rmi.Peer, ref wire.Ref) { p.Unexport(ref) }},
		{"migrated", func(p *rmi.Peer, ref wire.Ref) { p.ForwardObject(ref.ObjID, "moved", 9) }},
	} {
		t.Run(gone.name, func(t *testing.T) {
			e := newRiderEnv(t)
			dir := cluster.NewDirectory(e.ec.Client, e.ec.Endpoints())
			hotRef, _ := e.counter(0, 1)
			coldRef, _ := e.counter(0, 7)
			otherRef, _ := e.counter(1, 9)
			e.hot(hotRef)
			gone.drop(e.ec.Servers[0].Peer, hotRef)

			vals, calls := e.read([]wire.Ref{coldRef, otherRef}, cluster.WithDirectory(dir))
			if calls != 2 || vals[0] != 7 || vals[1] != 9 {
				t.Fatalf("flush = %v in %d calls, want [7 9] in 2", vals, calls)
			}
			if got := e.renewals(); got != 1 {
				t.Fatalf("cache.renewals = %d, want 1: the rider was sent", got)
			}
			e.clock.advance(riderTTL / 2)
			if _, ok := e.cached(hotRef); ok {
				t.Errorf("the gone object's lease was filed")
			}
		})
	}
}

// blocker runs hook when called: a call the test holds the wave at.
type blocker struct {
	rmi.RemoteBase
	hook func()
}

// Fire runs the hook and returns 0.
func (b *blocker) Fire() int64 {
	b.hook()
	return 0
}

// TestWriteBetweenRiderCaptureAndFillVoidsIt: a write to the lease's object
// recorded while its rider is in flight — after the rider took its ticket,
// before it is filed — voids the fill, as it voids a miss's. The lease keeps
// its pre-write value until the write's ack, which files the write's re-read.
func TestWriteBetweenRiderCaptureAndFillVoidsIt(t *testing.T) {
	e := newRiderEnv(t)
	hotRef, hot := e.counter(0, 1)
	e.hot(hotRef)
	hot.Add(10) // the rider reads 11; the lease holds 1
	w := cluster.New(e.ec.Client, cluster.WithCache(e.cache))
	fire, err := e.ec.Servers[0].Peer.Export(&blocker{hook: func() {
		w.Root(hotRef).Call("Add", int64(1)) // recorded while the rider flies
	}}, "cluster.Blocker")
	if err != nil {
		t.Fatal(err)
	}
	b := cluster.New(e.ec.Client, cluster.WithCache(e.cache))
	f := b.Root(fire).Call("Fire")
	if err := b.Flush(context.Background()); err != nil || f.Err() != nil {
		t.Fatalf("flush = %v, Fire = %v", err, f.Err())
	}
	if got := e.renewals(); got != 1 {
		t.Fatalf("cache.renewals = %d, want 1: the rider was sent", got)
	}
	if v, ok := e.cached(hotRef); !ok || v != 1 {
		t.Errorf("lease after the rider = (%d, %v), want the pre-write (1, true): the rider's fill landed after a write to its object was recorded", v, ok)
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, ok := e.cached(hotRef); !ok || v != 12 {
		t.Errorf("lease after the write's ack = (%d, %v), want its re-read (12, true)", v, ok)
	}
}

// TestConcurrentBatchesTakeADueLeaseOnce: of two batches flushed at once to
// the lease's server, one re-reads the lease.
func TestConcurrentBatchesTakeADueLeaseOnce(t *testing.T) {
	e := newRiderEnv(t)
	hotRef, _ := e.counter(0, 1)
	refs := []wire.Ref{}
	for i := range 2 {
		ref, _ := e.counter(0, int64(10+i))
		refs = append(refs, ref)
	}
	e.hot(hotRef)
	var wg sync.WaitGroup
	for _, ref := range refs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.read([]wire.Ref{ref})
		}()
	}
	wg.Wait()
	if got := e.renewals(); got != 1 {
		t.Fatalf("cache.renewals = %d after two concurrent flushes, want 1", got)
	}
}

// TestNoDueRiderOnReplicatingDestination: a request to a replicating
// destination, whose waves ship to followers, carries no due lease. The lease
// stays due: the next plain request to its server takes it.
func TestNoDueRiderOnReplicatingDestination(t *testing.T) {
	e := newRiderEnv(t)
	hotRef, _ := e.counter(0, 1)
	e.hot(hotRef)

	dir := cluster.NewDirectory(e.ec.Client, e.ec.Endpoints(), cluster.WithReplication(2))
	name := nameWhere(t, dir, "r", e.ec.Servers[0].Endpoint, anyOwners)
	place(t, e.ec, dir, name)
	b := cluster.New(e.ec.Client, cluster.WithDirectory(dir), cluster.WithCache(e.cache))
	p, err := b.RootNamed(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Add", int64(1))
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.renewals(); got != 0 {
		t.Fatalf("cache.renewals = %d after a replicated flush, want 0", got)
	}

	lastRef, _ := e.counter(0, 8)
	if _, calls := e.read([]wire.Ref{lastRef}); calls != 1 {
		t.Fatalf("plain flush made %d calls, want 1", calls)
	}
	if got := e.renewals(); got != 1 {
		t.Fatalf("cache.renewals = %d after a plain flush, want 1", got)
	}
}

// orderLog records, in order, the calls its counters executed.
type orderLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *orderLog) add(call string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, call)
}

func (l *orderLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

// loggedCounter is a counter that logs each call it executes under its name.
type loggedCounter struct {
	rmi.RemoteBase
	name string
	log  *orderLog
	mu   sync.Mutex
	n    int64
}

func (c *loggedCounter) Add(d int64) int64 {
	c.log.add(c.name + ".Add")
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n
}

func (c *loggedCounter) Get() int64 {
	c.log.add(c.name + ".Get")
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestRiderAndRefreshShareOneRequest: a write and a lease due on its server
// ride one request, in the order the caller's calls, then the re-read of the
// written lease, then the due lease's. The flush costs the write's
// one call and hands out the one due lease, and afterwards both leases hit,
// past the old expiries, on what the objects hold.
func TestRiderAndRefreshShareOneRequest(t *testing.T) {
	e := newRiderEnv(t)
	log := &orderLog{}
	export := func(c *loggedCounter) wire.Ref {
		ref, err := e.ec.Servers[0].Peer.Export(c, "renewaltest.LoggedCounter")
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	hot := &loggedCounter{name: "hot", log: log, n: 1}
	w := &loggedCounter{name: "w", log: log, n: 5}
	hotRef, wRef := export(hot), export(w)
	e.read([]wire.Ref{wRef}) // w's lease: live, never hit, so never due
	e.hot(hotRef)
	hot.Add(4) // on the server, behind the cache's back
	log.take()

	before, renewals := e.ec.Client.CallCount(), e.renewals()
	b := cluster.New(e.ec.Client, cluster.WithCache(e.cache))
	f := b.Root(wRef).Call("Add", int64(2))
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 7 {
		t.Fatalf("write = (%d, %v), want (7, nil)", v, err)
	}
	if calls := e.ec.Client.CallCount() - before; calls != 1 {
		t.Fatalf("the write's flush made %d calls, want 1", calls)
	}
	if got := e.renewals() - renewals; got != 1 {
		t.Fatalf("cache.renewals rose by %d, want 1", got)
	}
	if got, want := log.take(), []string{"w.Add", "w.Get", "hot.Get"}; !slices.Equal(got, want) {
		t.Fatalf("the request ran %v, want %v", got, want)
	}

	e.clock.advance(riderTTL / 2) // past both leases' first expiry
	if vals, calls := e.read([]wire.Ref{wRef, hotRef}); calls != 0 || !slices.Equal(vals, []int64{7, 5}) {
		t.Fatalf("reads after the old expiries = %v in %d calls, want [7 5] in 0", vals, calls)
	}
	if got := log.take(); len(got) != 0 {
		t.Fatalf("the hits ran %v at the servers", got)
	}
}
