// Package rcache is the client-side lease cache behind readonly batched
// calls (DESIGN.md "Caching & coalescing").
//
// A Cache stores flush results of methods declared //brmi:readonly, keyed by
// (object ref, method, compiled-codec-encoded args). Every entry is a lease:
// it carries a TTL deadline and the ring epoch observed when the underlying
// call was recorded, and it is served only while both still hold. Three
// events end a lease:
//
//   - the ack of a write touching the object (Renew) bumps the object's
//     generation and drops its entries, filing in their place the values
//     the writer re-read right after its write. The write's record
//     (RecordWrite) bumps the generation too but drops nothing: a recorded
//     call takes effect only when its batch flushes, so until the ack every
//     other batch sharing the cache may still read the pre-write lease — a
//     read that overlaps the write — while the writer's own batch consults
//     no lease of the object after its write;
//   - a ring-epoch bump (membership change / migration) makes every older
//     lease unservable — checked lazily on Get, so an epoch bump costs O(1);
//   - the TTL deadline passes.
//
// Fills are generation-guarded: Put captures nothing itself — the caller
// passes the generation and epoch it observed when the miss was recorded,
// and the fill is dropped if either moved meanwhile. That closes the classic
// read/write race where an in-flight read's stale result lands after a
// write was recorded; the bump at ack closes the other half, a read
// recorded after the write but executed before it, whose fill lands while
// the write is still in flight. Generations come from one cache-wide
// counter, and the cache forgets those of the objects that hold no entry
// once it keeps more than four per entry it may hold: an object it forgot
// reads a floor above every generation handed out before, so no fill
// captured earlier can match it again.
//
// Every lease is re-readable: its key names the call that filled it
// (KeyCall), and a batch re-reads leases one way, on a request it sends
// their server anyway. A write re-reads the object's live leases so
// (RecordWrite returns their keys) and files the fresh values at its ack
// (Renew): the writer's next read of its own write is a hit. A write
// recorded through another client's cache is seen only when the TTL ends
// the lease. And near the end of a lease's life (Due), a lease that served
// two hits since it was filed, on an object addressed by ref, is handed out in
// the last 1/25 of its TTL to one batch bound for its server, whose re-read
// files it again through Put under the same generation-and-epoch ticket
// (Lease) as a miss. A hot lease then never lapses into a miss of its own
// while its server sees traffic.
//
// The cache holds at most DefaultMaxEntries leases, and its eviction keeps
// what it serves: a fill over the cap evicts an expired lease first, then
// the oldest lease no Get has served since it was filed, and the oldest
// lease of all only when every other one has served a hit. A one-off read
// of a cold object thus displaces another one-off read, not a hot lease,
// which lives on to be due and re-read.
//
// A miss is an ordinary call of the batch that recorded it: the cache does
// not coalesce reads across batches.
package rcache

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// DefaultTTL is the lease lifetime when WithTTL is not given. It bounds
// staleness against writers this client cannot observe (other clients
// mutate through their own caches; only epoch bumps are globally visible).
const DefaultTTL = 5 * time.Second

// DefaultMaxEntries caps the cache's entry count. Past it a fill evicts an
// expired lease, else the oldest lease no Get has served, else the oldest.
const DefaultMaxEntries = 4096

// Cache is a lease-backed result cache. It is safe for concurrent use by
// any number of batches sharing it — sharing is the point: fills from one
// flush serve hits for every other.
type Cache struct {
	ttl   time.Duration
	max   int              // entry cap, DefaultMaxEntries
	epoch func() uint64    // ring epoch source; nil pins epoch 0
	now   func() time.Time // clock; registry clock when instrumented

	mu      sync.Mutex
	entries map[string]*entry
	byObj   map[string]map[string]*entry
	// gens are the objects' write generations, drawn from next. An object
	// absent from gens is at floor: bumpLocked forgets the objects that hold
	// no entry and raises floor above every generation drawn so far.
	gens  map[string]uint64
	next  uint64
	floor uint64
	// order holds every entry, front = oldest fill; a lease's TTL runs from
	// its fill, so this is expiry order too. cold holds, in the same order,
	// the entries no Get has served since they were filed: eviction's first
	// choice.
	order *list.List // *entry
	cold  *list.List // *entry

	hits          *stats.Counter // cache.hits
	misses        *stats.Counter // cache.misses
	evictions     *stats.Counter // cache.evictions
	invalidations *stats.Counter // cache.invalidations
	renewals      *stats.Counter // cache.renewals
}

type entry struct {
	key string
	obj string
	// ref is the root the lease was read through: the endpoint and export id
	// obj names (id 0 for a named root, whose ObjKey carries its name).
	ref     wire.Ref
	val     any
	epoch   uint64
	expires time.Time
	// state is what became of the lease since it was filed. It only rises,
	// and a re-filed lease is a new entry, fresh again.
	state uint8
	elem  *list.Element // in Cache.order
	cold  *list.Element // in Cache.cold while state is stateFresh
}

// The states of an entry: filed and never served, served by one Get, by two
// or more, and handed by Due to a batch to re-read.
const (
	stateFresh uint8 = iota
	stateHitOnce
	stateHitTwice
	stateTaken
)

// dueShare is the part of a lease's TTL, at its end, in which Due hands it
// out: the last 1/25, 200 ms of DefaultTTL. A wider window re-reads a hot
// lease more than once per TTL.
const dueShare = 25

// Fill is a lease a writer re-read after its write: the lease's key and the
// value the re-read returned.
type Fill struct {
	Key string
	Val any
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
		cold:    list.New(),
	}
	if reg != nil {
		c.now = reg.Now
		c.hits = reg.Counter("cache.hits")
		c.misses = reg.Counter("cache.misses")
		c.evictions = reg.Counter("cache.evictions")
		c.invalidations = reg.Counter("cache.invalidations")
		c.renewals = reg.Counter("cache.renewals")
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
	return c.genLocked(obj)
}

// genLocked is Gen. Caller holds c.mu.
func (c *Cache) genLocked(obj string) uint64 {
	if g, ok := c.gens[obj]; ok {
		return g
	}
	return c.floor
}

// bumpLocked moves obj to a fresh generation and returns it, first
// forgetting the generations of the objects that hold no entry once the
// table holds more than four times the entry cap: the floor a forgotten
// object then reads is above every generation drawn before, so a fill
// captured earlier cannot match again. Caller holds c.mu.
func (c *Cache) bumpLocked(obj string) uint64 {
	if len(c.gens) > 4*c.max {
		for o := range c.gens {
			if _, ok := c.byObj[o]; !ok {
				delete(c.gens, o)
			}
		}
		c.next++
		c.floor = c.next
	}
	c.next++
	c.gens[obj] = c.next
	return c.next
}

// Get returns the cached value for key if its lease still holds: not
// expired, and stamped with the current ring epoch. An unservable entry is
// dropped on the way out. It counts a hit in cache.hits and anything else
// in cache.misses: a batch looks once per cacheable call, when it records
// it.
func (c *Cache) Get(key string) (any, bool) {
	ep := c.Epoch()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok && (e.epoch != ep || now.After(e.expires)) {
		c.removeLocked(e)
		ok = false
	}
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	if e.state == stateFresh {
		c.cold.Remove(e.cold)
	}
	if e.state < stateHitTwice {
		e.state++
	}
	return e.val, true
}

// Put stores val for key on obj, provided the object's generation and the
// ring epoch still match what the caller captured when the miss was
// recorded. A fill that lost that race is silently dropped — the entry
// would carry a value older than its lease. key is a Key of the readonly
// call that returned val: as long as the lease is live, a write of obj gets
// the key back from RecordWrite, to re-issue the call.
func (c *Cache) Put(key, obj string, val any, gen, epoch uint64) {
	if epoch != c.Epoch() {
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.genLocked(obj) == gen {
		c.insertLocked(key, obj, val, epoch, now)
	}
}

// insertLocked files val under key as a fresh lease from now, replacing what
// was there, and evicts past the cap: an expired oldest fill, else the
// oldest fresh entry but the one it files, else the oldest fill. Caller
// holds c.mu.
func (c *Cache) insertLocked(key, obj string, val any, epoch uint64, now time.Time) {
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	e := &entry{key: key, obj: obj, ref: objRef(obj), val: val, epoch: epoch, expires: now.Add(c.ttl)}
	e.elem = c.order.PushBack(e)
	e.cold = c.cold.PushBack(e)
	c.entries[key] = e
	set := c.byObj[obj]
	if set == nil {
		set = make(map[string]*entry)
		c.byObj[obj] = set
	}
	set[key] = e
	for c.max > 0 && len(c.entries) > c.max {
		victim := c.order.Front().Value.(*entry)
		if cold := c.cold.Front().Value.(*entry); cold != e && !now.After(victim.expires) {
			victim = cold
		}
		c.removeLocked(victim)
		c.evictions.Inc()
	}
}

// RecordWrite is the record of a write to obj. It bumps obj's generation,
// so a read recorded before the write files nothing once the write is
// recorded, and returns the generation it left and the keys of obj's
// leases that are live — stamped with the current epoch, not expired — in
// order, for the writer to re-read after its write (KeyCall) and Renew. It
// drops nothing: the write takes effect when its batch flushes, and until
// its ack every other batch may read the leases. The cluster batch calls it
// at record time for every non-readonly call, keyed by the call's root
// object and by each root it takes as a proxy argument.
func (c *Cache) RecordWrite(obj string) (gen uint64, live []string) {
	ep := c.Epoch()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	gen = c.bumpLocked(obj)
	for _, e := range c.byObj[obj] {
		if e.epoch == ep && !now.After(e.expires) {
			live = append(live, e.key)
		}
	}
	c.invalidations.Inc()
	slices.Sort(live)
	return gen, live
}

// Renew is the ack of a write to obj, where the write ends obj's leases. It
// bumps obj's generation and drops its entries — the leases read before the
// write, and any fill that raced it, from a read recorded after the write
// but executed before it — but it does not count as an invalidation. Then,
// provided gen (what the writer's RecordWrite returned) and epoch (what the
// writer observed then) still hold, so no other write of obj was recorded
// or acked since, it files fills, the leases the writer re-read after its
// write, under the new generation: the writer's next read of obj is a hit
// on its own write.
func (c *Cache) Renew(obj string, gen, epoch uint64, fills []Fill) {
	fresh := epoch == c.Epoch()
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	fresh = fresh && c.genLocked(obj) == gen
	c.bumpLocked(obj)
	for _, e := range c.byObj[obj] {
		c.removeLocked(e)
	}
	if !fresh {
		return
	}
	for _, f := range fills {
		c.insertLocked(f.Key, obj, f.Val, epoch, now)
	}
}

// Lease is a lease to be filed by Put: its key, its object's ObjKey and, when
// Due handed it out to be re-read, the root it was read through; and the
// stale-fill ticket — the object's generation and the ring epoch when the
// miss was recorded or the lease handed out — the fill passes to Put.
type Lease struct {
	Key, Obj   string
	Ref        wire.Ref
	Gen, Epoch uint64
}

// Due hands a batch about to send a request to endpoint the leases there
// worth re-reading in that request: live, stamped with the current epoch,
// read through a ref on endpoint, served by two Gets since they were filed,
// and in the last 1/25 of their TTL. Each is handed out once — it is taken
// — so two batches never re-read one lease; a re-read that fails files
// nothing and leaves the lease to lapse. The oldest fill expires first, so
// Due walks only the front of the fill order, and drops the expired entries
// it passes. It counts what it hands out in cache.renewals: the caller sends
// each.
func (c *Cache) Due(endpoint string) []Lease {
	ep := c.Epoch()
	now := c.now()
	horizon := now.Add(c.ttl / dueShare)
	c.mu.Lock()
	defer c.mu.Unlock()
	var due []Lease
	for el := c.order.Front(); el != nil; {
		e := el.Value.(*entry)
		el = el.Next()
		if now.After(e.expires) {
			c.removeLocked(e)
			continue
		}
		if e.expires.After(horizon) {
			break
		}
		if e.state == stateHitTwice && e.epoch == ep && e.ref.ObjID != 0 && e.ref.Endpoint == endpoint {
			e.state = stateTaken
			due = append(due, Lease{Key: e.key, Obj: e.obj, Ref: e.ref, Gen: c.genLocked(e.obj), Epoch: ep})
		}
	}
	c.renewals.Add(uint64(len(due)))
	return due
}

// Len returns the live entry count (expired-but-unswept entries included).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// removeLocked unlinks e from every index. Caller holds c.mu.
func (c *Cache) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.order.Remove(e.elem)
	c.cold.Remove(e.cold)
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

// objRef is ObjKey's inverse: the endpoint and export id obj names, the
// zero ref for a string ObjKey did not build.
func objRef(obj string) wire.Ref {
	i := strings.LastIndexByte(obj, 0)
	if i < 0 {
		return wire.Ref{}
	}
	id, err := strconv.ParseUint(obj[i+1:], 16, 64)
	if err != nil {
		return wire.Ref{}
	}
	return wire.Ref{Endpoint: obj[:i], ObjID: id}
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

// KeyCall decodes the readonly call that key, a Key of an object whose
// ObjKey is obj, names: its method and arguments, freshly decoded — they
// encode to the key's own bytes again, and share no memory with the
// caller's. ok is false for a key that is not such a Key.
func KeyCall(obj, key string) (method string, args []any, ok bool) {
	rest, ok := strings.CutPrefix(key, obj+"\x00")
	if !ok {
		return "", nil, false
	}
	method, enc, ok := strings.Cut(rest, "\x00")
	if !ok {
		return "", nil, false
	}
	args, err := wire.UnmarshalValues([]byte(enc))
	if err != nil {
		return "", nil, false
	}
	return method, args, true
}
