// Package rcache is the client-side result cache and request-coalescing
// layer behind readonly batched calls (DESIGN.md "Caching & coalescing").
//
// A Cache stores flush results of methods declared //brmi:readonly, keyed by
// (object ref, method, compiled-codec-encoded args). Every entry is a lease:
// it carries a TTL deadline and the ring epoch observed when the underlying
// call was recorded, and it is served only while both still hold. Three
// events invalidate:
//
//   - a write-batch touching the object bumps the object's generation and
//     drops its entries (per-object invalidation, at record time);
//   - a ring-epoch bump (membership change / migration) makes every older
//     lease unservable — checked lazily on Get, so an epoch bump costs O(1);
//   - the TTL deadline passes.
//
// Fills are generation-guarded: Put captures nothing itself — the caller
// passes the generation and epoch it observed when the miss was recorded,
// and the fill is dropped if either moved meanwhile. That closes the classic
// read/write race where an in-flight read's stale result lands after a
// write already invalidated the entry.
//
// The package also provides the singleflight primitives: Flight (asymmetric
// leader/follower coalescing for batch executors, where the leader's result
// arrives via its own future) and Group (symmetric Do-style coalescing for
// control-plane calls like Directory.Refresh).
package rcache

import (
	"container/list"
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// DefaultTTL is the lease lifetime when WithTTL is not given. It bounds
// staleness against writers this client cannot observe (other clients
// mutate through their own caches; only epoch bumps are globally visible).
const DefaultTTL = 5 * time.Second

// DefaultMaxEntries caps the cache's entry count; the oldest fill is evicted
// first.
const DefaultMaxEntries = 4096

// Cache is a lease-backed result cache. It is safe for concurrent use by
// any number of batches sharing it — sharing is the point: fills from one
// flush serve hits (and coalesce in-flight duplicates) for every other.
type Cache struct {
	ttl   time.Duration
	max   int              // entry cap, DefaultMaxEntries
	epoch func() uint64    // ring epoch source; nil pins epoch 0
	now   func() time.Time // clock; registry clock when instrumented

	mu      sync.Mutex
	entries map[string]*entry
	byObj   map[string]map[string]*entry
	gens    map[string]uint64
	order   *list.List // *entry, front = oldest (FIFO eviction)
	flights map[string]*Flight

	hits          *stats.Counter // cache.hits
	misses        *stats.Counter // cache.misses
	evictions     *stats.Counter // cache.evictions
	invalidations *stats.Counter // cache.invalidations
	coalesced     *stats.Counter // cache.coalesced
}

type entry struct {
	key     string
	obj     string
	val     any
	epoch   uint64
	expires time.Time
	elem    *list.Element
}

// Option configures a Cache.
type Option func(*Cache)

// WithTTL sets the lease lifetime (default DefaultTTL).
func WithTTL(d time.Duration) Option {
	return func(c *Cache) { c.ttl = d }
}

// WithEpoch wires the ring-epoch source every lease is stamped with and
// checked against (e.g. Directory.Epoch). Without it, leases never see an
// epoch bump and expire by TTL and invalidation alone.
func WithEpoch(fn func() uint64) Option {
	return func(c *Cache) { c.epoch = fn }
}

// New creates a cache. reg may be nil (uninstrumented: the counters are
// nil-safe no-ops); when given, its clock also drives the TTL so simulated
// time works end to end.
func New(reg *stats.Registry, opts ...Option) *Cache {
	c := &Cache{
		ttl:     DefaultTTL,
		max:     DefaultMaxEntries,
		entries: make(map[string]*entry),
		byObj:   make(map[string]map[string]*entry),
		gens:    make(map[string]uint64),
		order:   list.New(),
		flights: make(map[string]*Flight),
	}
	if reg != nil {
		c.now = reg.Now
		c.hits = reg.Counter("cache.hits")
		c.misses = reg.Counter("cache.misses")
		c.evictions = reg.Counter("cache.evictions")
		c.invalidations = reg.Counter("cache.invalidations")
		c.coalesced = reg.Counter("cache.coalesced")
	}
	for _, o := range opts {
		o(c)
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Epoch returns the current ring epoch as the cache sees it.
func (c *Cache) Epoch() uint64 {
	if c.epoch == nil {
		return 0
	}
	return c.epoch()
}

// Gen returns the object's current write generation. A caller recording a
// readonly miss captures it (with Epoch) and passes both back to Put, which
// drops the fill if either moved — the stale-fill guard.
func (c *Cache) Gen(obj string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[obj]
}

// Get returns the cached value for key if its lease still holds: not
// expired, and stamped with the current ring epoch. An unservable entry is
// dropped on the way out.
func (c *Cache) Get(key string) (any, bool) {
	ep := c.Epoch()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	if e.epoch != ep || now.After(e.expires) {
		c.removeLocked(e)
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return e.val, true
}

// Put stores val for key on obj, provided the object's generation and the
// ring epoch still match what the caller captured when the miss was
// recorded. A fill that lost that race is silently dropped — the entry
// would carry a value older than its lease.
func (c *Cache) Put(key, obj string, val any, gen, epoch uint64) {
	if epoch != c.Epoch() {
		return
	}
	expires := c.now().Add(c.ttl)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[obj] != gen {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	e := &entry{key: key, obj: obj, val: val, epoch: epoch, expires: expires}
	e.elem = c.order.PushBack(e)
	c.entries[key] = e
	set := c.byObj[obj]
	if set == nil {
		set = make(map[string]*entry)
		c.byObj[obj] = set
	}
	set[key] = e
	for c.max > 0 && len(c.entries) > c.max {
		oldest := c.order.Front().Value.(*entry)
		c.removeLocked(oldest)
		c.evictions.Inc()
	}
}

// InvalidateObject drops every entry of obj and bumps its generation, so
// in-flight reads that predate the write cannot re-fill stale values. The
// cluster batch calls it at record time for every non-readonly call, keyed
// by the call's root object.
func (c *Cache) InvalidateObject(obj string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[obj]++
	for _, e := range c.byObj[obj] {
		c.removeLocked(e)
	}
	c.invalidations.Inc()
}

// Len returns the live entry count (expired-but-unswept entries included).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// removeLocked unlinks e from all three indexes. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	if set, ok := c.byObj[e.obj]; ok {
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.byObj, e.obj)
		}
	}
}

// --- keys --------------------------------------------------------------------

// ObjKey is the per-object invalidation key of a remote object reference.
func ObjKey(ref wire.Ref) string {
	return ref.Endpoint + "\x00" + strconv.FormatUint(ref.ObjID, 16)
}

// Key builds the cache key of a readonly call: object, method, and the
// compiled-codec encoding of the arguments. ok is false when the call is
// not cacheable — an argument the wire codec cannot encode (proxies,
// futures, unregistered types) has no stable identity to key by, and the
// caller must fall back to an ordinary recorded call.
func Key(ref wire.Ref, method string, args []any) (key string, ok bool) {
	buf := make([]byte, 0, 64)
	buf = append(buf, ObjKey(ref)...)
	buf = append(buf, 0)
	buf = append(buf, method...)
	buf = append(buf, 0)
	buf, err := wire.MarshalValuesAppend(buf, args)
	if err != nil {
		return "", false
	}
	return string(buf), true
}

// --- singleflight ------------------------------------------------------------

// Flight is one in-flight readonly wire call that duplicates coalesce onto.
// The leader (the caller Begin said was first) executes the call and MUST
// call Cache.Finish exactly once on every outcome path; followers Wait.
type Flight struct {
	done chan struct{}
	val  any
	err  error
}

// Wait blocks until the leader finished (or ctx expired) and returns the
// leader's outcome.
func (f *Flight) Wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Begin joins or opens the flight for key. leader is true for the caller
// that must execute the call and Finish the flight; every other caller is a
// follower and settles from Wait instead of recording a wire call.
func (c *Cache) Begin(key string) (f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		c.coalesced.Inc()
		return f, false
	}
	f = &Flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// Finish publishes the leader's outcome to f's followers and retires the
// flight. Publishing before any follower can miss it: followers hold the
// *Flight from Begin, not the key.
func (c *Cache) Finish(key string, f *Flight, val any, err error) {
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	c.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
}

// Group coalesces symmetric duplicate calls: every caller of Do with the
// same key while one is in flight shares the first caller's outcome. It is
// the control-plane shape (Directory.Refresh); batch executors use the
// asymmetric Begin/Finish/Wait instead because the leader's result arrives
// through its own future.
type Group struct {
	mu    sync.Mutex
	calls map[string]*groupCall
}

type groupCall struct {
	done chan struct{}
	val  any
	err  error
}

// Do runs fn for key, unless a call for key is already in flight, in which
// case it waits for that call and returns its outcome with shared=true.
// The first caller's fn runs with the first caller's arguments/context;
// followers inherit its outcome, so fn should be idempotent.
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*groupCall)
	}
	if call, ok := g.calls[key]; ok {
		g.mu.Unlock()
		<-call.done
		return call.val, call.err, true
	}
	call := &groupCall{done: make(chan struct{})}
	g.calls[key] = call
	g.mu.Unlock()

	call.val, call.err = fn()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(call.done)
	return call.val, call.err, false
}
