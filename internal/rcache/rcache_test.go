package rcache

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

func testRef(n uint64) wire.Ref {
	return wire.Ref{Endpoint: "server-0", ObjID: n, Iface: "test.Obj"}
}

func mustKey(t *testing.T, ref wire.Ref, method string, args ...any) string {
	t.Helper()
	k, ok := Key(ref, method, args)
	if !ok {
		t.Fatalf("Key(%v, %s, %v) not cacheable", ref, method, args)
	}
	return k
}

func TestKeyDistinguishesArgsAndRejectsUnencodable(t *testing.T) {
	ref := testRef(1)
	k1 := mustKey(t, ref, "Get", int64(1))
	k2 := mustKey(t, ref, "Get", int64(2))
	k3 := mustKey(t, ref, "Get", int64(1))
	if k1 == k2 {
		t.Fatalf("distinct args produced equal keys")
	}
	if k1 != k3 {
		t.Fatalf("equal args produced distinct keys")
	}
	if km := mustKey(t, testRef(2), "Get", int64(1)); km == k1 {
		t.Fatalf("distinct objects produced equal keys")
	}
	type notRegistered struct{ X chan int }
	if _, ok := Key(ref, "Get", []any{notRegistered{}}); ok {
		t.Fatalf("unencodable argument reported cacheable")
	}
}

// TestGetPutLeaseLifecycle: a lease serves until its TTL ends or the epoch
// moves, and every Get counts once, as a hit or a miss.
func TestGetPutLeaseLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var epoch uint64 = 7
	reg := stats.New()
	c := New(reg,
		WithEpoch(func() uint64 { return epoch }),
		WithTTL(10*time.Second))
	c.now = func() time.Time { return now }
	ref := testRef(1)
	key := mustKey(t, ref, "Get")
	obj := ObjKey(ref)

	if _, ok := c.Get(key); ok {
		t.Fatalf("empty cache reported a hit")
	}
	c.Put(key, obj, int64(42), c.Gen(obj), c.Epoch())
	if v, ok := c.Get(key); !ok || v.(int64) != 42 {
		t.Fatalf("Get after Put = (%v, %v), want (42, true)", v, ok)
	}

	// TTL expiry.
	now = now.Add(11 * time.Second)
	if _, ok := c.Get(key); ok {
		t.Fatalf("expired lease served")
	}

	// Epoch bump drops the lease even inside the TTL.
	c.Put(key, obj, int64(43), c.Gen(obj), c.Epoch())
	epoch++
	if _, ok := c.Get(key); ok {
		t.Fatalf("lease served across an epoch bump")
	}
	s := reg.Snapshot()
	if hits, misses := s.Counter("cache.hits"), s.Counter("cache.misses"); hits != 1 || misses != 3 {
		t.Fatalf("four Gets counted %d hits and %d misses, want 1 and 3", hits, misses)
	}
}

// TestRecordWriteAndGenerationGuard: a recorded write leaves its object's
// leases serving until its ack, which ends them and nothing else; and a fill
// captured before the write's record is dropped.
func TestRecordWriteAndGenerationGuard(t *testing.T) {
	c := New(nil)
	refA, refB := testRef(1), testRef(2)
	keyA, keyB := mustKey(t, refA, "Get"), mustKey(t, refB, "Get")
	objA, objB := ObjKey(refA), ObjKey(refB)

	c.Put(keyA, objA, "a", c.Gen(objA), 0)
	c.Put(keyB, objB, "b", c.Gen(objB), 0)
	gen, _ := c.RecordWrite(objA)
	if v, ok := c.Get(keyA); !ok || v != "a" {
		t.Fatalf("after the write's record Get = (%v, %v), want the pre-write lease (a, true)", v, ok)
	}
	c.Renew(objA, gen, 0, nil)
	if _, ok := c.Get(keyA); ok {
		t.Fatalf("the written object's entry served after the write's ack")
	}
	if _, ok := c.Get(keyB); !ok {
		t.Fatalf("the write's ack dropped an unrelated object's entry")
	}

	// The stale-fill race: a read records a miss (capturing gen), a write is
	// recorded, then the read's result lands. The fill must be dropped.
	gen = c.Gen(objA)
	c.RecordWrite(objA)
	c.Put(keyA, objA, "stale", gen, 0)
	if _, ok := c.Get(keyA); ok {
		t.Fatalf("stale fill survived a concurrent write's record")
	}
}

// TestRefreshRecordWriteReturnsLiveCallLeases: RecordWrite hands back the
// keys of the leases a writer may re-read — every lease stamped with the
// current epoch and not expired, since every key names the call that filled
// it — in key order, and a generation Gen then reports. It drops none of
// them: a second write recorded before the ack gets the same keys back. The
// ack ends them all, a lease from another epoch and an expired one included.
func TestRefreshRecordWriteReturnsLiveCallLeases(t *testing.T) {
	now := time.Unix(0, 0)
	var epoch uint64 = 3
	c := New(nil, WithEpoch(func() uint64 { return epoch }), WithTTL(10*time.Second))
	c.now = func() time.Time { return now }
	ref := testRef(1)
	obj := ObjKey(ref)
	fill := func(key, obj string) { c.Put(key, obj, key, c.Gen(obj), c.Epoch()) }

	fill(mustKey(t, ref, "Get", int64(1)), obj) // filled at an older epoch
	epoch++
	fill(mustKey(t, ref, "Get", int64(2)), obj) // expires before the write
	now = now.Add(6 * time.Second)
	live := []string{mustKey(t, ref, "Get", int64(5)), mustKey(t, ref, "Get", int64(4)), mustKey(t, ref, "Get", int64(3))}
	for _, k := range live {
		fill(k, obj)
	}
	fill(mustKey(t, testRef(2), "Get"), ObjKey(testRef(2)))
	now = now.Add(6 * time.Second)

	before := c.Gen(obj)
	gen, got := c.RecordWrite(obj)
	if gen == before || c.Gen(obj) != gen {
		t.Fatalf("RecordWrite left generation %d (Gen says %d), want a new one (was %d)", gen, c.Gen(obj), before)
	}
	want := slices.Sorted(slices.Values(live))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RecordWrite returned %q, want the three live leases %q", got, want)
	}
	if n := c.Len(); n != 6 {
		t.Fatalf("%d entries left after the write's record, want all 6: leases end at the ack", n)
	}
	gen2, again := c.RecordWrite(obj)
	if gen2 == gen || !reflect.DeepEqual(again, want) {
		t.Fatalf("a second write's record = (%d, %q), want a new generation (not %d) and %q", gen2, again, gen, want)
	}
	c.Renew(obj, gen2, c.Epoch(), nil)
	if n := c.Len(); n != 1 {
		t.Fatalf("%d entries left after the ack, want 1 (the other object's)", n)
	}
	if _, got := c.RecordWrite(obj); got != nil {
		t.Fatalf("a write recorded after the ack returned %q, want nothing", got)
	}
}

// TestRefreshKeyCallDecodesTheKey: KeyCall recovers the method and the
// arguments of a cacheable call from its key. They are fresh values — a
// caller that reuses its argument buffer after the fill changes nothing the
// re-read sends — and encode to the key again, so the server is asked the
// call the lease answers. A key of another object, or no Key at all, is
// refused.
func TestRefreshKeyCallDecodesTheKey(t *testing.T) {
	ref := testRef(1)
	obj := ObjKey(ref)
	buf := []byte("abc")
	args := []any{buf, int64(-7), "name", []string{"x", "y"}, map[string]int64{"k": 1}, 1.5, true, time.Unix(5, 6).UTC()}
	key := mustKey(t, ref, "Lookup", args...)
	buf[0] = 'z'

	method, got, ok := KeyCall(obj, key)
	if !ok || method != "Lookup" || len(got) != len(args) {
		t.Fatalf("KeyCall = (%q, %v, %v), want Lookup and %d args", method, got, ok, len(args))
	}
	if b, _ := got[0].([]byte); string(b) != "abc" {
		t.Fatalf("decoded buffer = %q, want the bytes the key was built from, %q", b, "abc")
	}
	buf[0] = 'a'
	if again := mustKey(t, ref, method, got...); again != key {
		t.Fatalf("the decoded call keys as %q, want %q", again, key)
	}
	if _, _, ok := KeyCall(obj, mustKey(t, ref, "Get")); !ok {
		t.Fatal("a call without arguments does not decode")
	}
	if _, _, ok := KeyCall(ObjKey(testRef(2)), key); ok {
		t.Fatal("another object's key decoded")
	}
	if _, _, ok := KeyCall(obj, obj+"\x00Get"); ok {
		t.Fatal("a key without an argument encoding decoded")
	}
}

// TestRefreshRenewFilesTheWritersReReads: Renew is the write's ack. It
// drops the fill of a read that raced the write (recorded after it,
// executed before it) and files the writer's re-reads under the new
// generation — unless another write of the object was recorded, or the
// epoch moved, since the write's own record. Neither it nor the re-reads
// count as invalidations, hits or misses.
func TestRefreshRenewFilesTheWritersReReads(t *testing.T) {
	reg := stats.New()
	var epoch uint64
	c := New(reg, WithEpoch(func() uint64 { return epoch }))
	ref := testRef(1)
	obj := ObjKey(ref)
	key := mustKey(t, ref, "Get")
	c.Put(key, obj, int64(0), c.Gen(obj), 0)

	gen, live := c.RecordWrite(obj) // the write is recorded
	lease := c.entries[key]
	raced := c.Gen(obj)                 // a read recorded after it ...
	c.Put(key, obj, int64(0), raced, 0) // ... executed before it lands in flight
	if c.entries[key] == lease {
		t.Fatal("the raced fill did not land: the test proves nothing")
	}
	c.Renew(obj, gen, 0, []Fill{{Key: live[0], Val: int64(5)}})
	if v, ok := c.Get(key); !ok || v != int64(5) {
		t.Fatalf("after the ack Get = (%v, %v), want the re-read (5, true)", v, ok)
	}
	c.Put(key, obj, int64(0), raced, 0) // the raced read's fill, landing after the ack
	if v, _ := c.Get(key); v != int64(5) {
		t.Fatalf("a read recorded before the ack overwrote the re-read with %v", v)
	}
	s := reg.Snapshot()
	if inv, hits, misses := s.Counter("cache.invalidations"), s.Counter("cache.hits"), s.Counter("cache.misses"); inv != 1 || hits != 2 || misses != 0 {
		t.Fatalf("counted %d invalidations, %d hits, %d misses; want 1, 2 (the test's Gets), 0", inv, hits, misses)
	}

	// A renewed lease is re-readable in turn.
	if _, again := c.RecordWrite(obj); !reflect.DeepEqual(again, []string{key}) {
		t.Fatalf("the renewed lease invalidated as %q, want it live", again)
	}

	// Another write recorded before the ack: the re-read may predate it.
	c.Put(key, obj, int64(5), c.Gen(obj), 0)
	gen, live = c.RecordWrite(obj)
	c.RecordWrite(obj)
	c.Renew(obj, gen, 0, []Fill{{Key: live[0], Val: int64(6)}})
	if n := c.Len(); n != 0 {
		t.Fatalf("a renewal behind another write filed %d entries, want 0", n)
	}

	// An epoch bump between the record and the ack.
	c.Put(key, obj, int64(6), c.Gen(obj), 0)
	gen, live = c.RecordWrite(obj)
	epoch++
	c.Renew(obj, gen, 0, []Fill{{Key: live[0], Val: int64(7)}})
	if n := c.Len(); n != 0 {
		t.Fatalf("a renewal across an epoch bump filed %d entries, want 0", n)
	}
}

// TestGenerationsStayBounded: writes to ever new objects, each write
// renewing a lease, leave at most four generations per entry the cache may
// hold (plus the one being drawn), not one per object ever written.
func TestGenerationsStayBounded(t *testing.T) {
	c := New(nil)
	for i := range 200000 {
		ref := testRef(uint64(i))
		obj := ObjKey(ref)
		gen, _ := c.RecordWrite(obj)
		c.Renew(obj, gen, 0, []Fill{{Key: obj + "\x00Get\x00", Val: int64(i)}})
		if n := len(c.gens); n > 4*c.max+1 {
			t.Fatalf("after %d writes the cache keeps %d generations, want at most %d", i+1, n, 4*c.max+1)
		}
	}
	if n := c.Len(); n != c.max {
		t.Fatalf("%d entries after the writes, want the cap %d", n, c.max)
	}
}

// TestPrunedGenerationVoidsEarlierFill: a fill whose generation was
// captured before the cache forgot its object's generation is dropped — the
// object reads a floor above it, whether it had been written or never had —
// while one captured after the prune lands, and an object that holds a
// lease keeps its generation through the prune.
func TestPrunedGenerationVoidsEarlierFill(t *testing.T) {
	c := New(nil)
	c.max = 2
	written, unwritten, leased := testRef(1), testRef(2), testRef(3)
	wobj, uobj, lobj := ObjKey(written), ObjKey(unwritten), ObjKey(leased)
	c.Put(mustKey(t, leased, "Get"), lobj, int64(3), c.Gen(lobj), 0)
	c.RecordWrite(wobj)
	c.RecordWrite(lobj)
	c.Put(mustKey(t, leased, "Get"), lobj, int64(3), c.Gen(lobj), 0)
	wgen, ugen, lgen := c.Gen(wobj), c.Gen(uobj), c.Gen(lobj)

	for i, floor := uint64(10), c.floor; c.floor == floor; i++ {
		if i > 100 {
			t.Fatal("no prune after 90 writes")
		}
		c.RecordWrite(ObjKey(testRef(i)))
	}
	if _, ok := c.gens[wobj]; ok {
		t.Fatal("the prune kept the generation of an object without an entry")
	}
	if g := c.Gen(lobj); g != lgen {
		t.Fatalf("the leased object's generation moved from %d to %d in the prune", lgen, g)
	}
	c.Put(mustKey(t, written, "Get"), wobj, int64(1), wgen, 0)
	c.Put(mustKey(t, unwritten, "Get"), uobj, int64(2), ugen, 0)
	if _, ok := c.Get(mustKey(t, written, "Get")); ok {
		t.Fatal("a fill captured before the prune landed on a written object")
	}
	if _, ok := c.Get(mustKey(t, unwritten, "Get")); ok {
		t.Fatal("a fill captured before the prune landed on an object never written")
	}
	c.Put(mustKey(t, written, "Get"), wobj, int64(1), c.Gen(wobj), 0)
	if v, ok := c.Get(mustKey(t, written, "Get")); !ok || v != int64(1) {
		t.Fatalf("a fill captured after the prune = (%v, %v), want (1, true)", v, ok)
	}
}

// fillKeys files a lease under each of keys on ref's object, in order.
func fillKeys(t *testing.T, c *Cache, ref wire.Ref, keys ...string) {
	t.Helper()
	obj := ObjKey(ref)
	for _, k := range keys {
		c.Put(k, obj, k, c.Gen(obj), c.Epoch())
	}
}

// held reports which of keys the cache holds an entry for, without a Get.
func held(c *Cache, keys ...string) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := make([]bool, len(keys))
	for i, k := range keys {
		_, in[i] = c.entries[k]
	}
	return in
}

func evictions(reg *stats.Registry) int64 { return reg.Snapshot().Counter("cache.evictions") }

// TestEvictionNeverHitFirstAndCounter: a fill over the cap evicts the
// oldest lease no Get has served, so a lease hit once outlives any number
// of never-hit fills, and cache.evictions counts each eviction.
func TestEvictionNeverHitFirstAndCounter(t *testing.T) {
	reg := stats.New()
	c := New(reg)
	c.max = 3
	ref := testRef(1)
	hot := mustKey(t, ref, "Get", int64(-1))
	fillKeys(t, c, ref, hot)
	if _, ok := c.Get(hot); !ok {
		t.Fatal("fresh lease missed")
	}
	keys := make([]string, 2*c.max)
	for i := range keys {
		keys[i] = mustKey(t, ref, "Get", int64(i))
		fillKeys(t, c, ref, keys[i])
	}
	if got, want := held(c, append([]string{hot}, keys...)...), []bool{true, false, false, false, false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("after %d never-hit fills the cache holds %v of [hot fill0..fill5], want %v", len(keys), got, want)
	}
	if got := evictions(reg); got != 4 {
		t.Fatalf("cache.evictions = %d, want 4: 7 fills into 3 entries", got)
	}
}

// TestEvictionExpiredFrontFirst: an expired oldest fill goes before a live
// lease no Get has served, though the expired one served hits.
func TestEvictionExpiredFrontFirst(t *testing.T) {
	now := time.Unix(0, 0)
	reg := stats.New()
	c := New(reg, WithTTL(10*time.Second))
	c.now = func() time.Time { return now }
	c.max = 2
	ref := testRef(1)
	old, live, last := mustKey(t, ref, "Get", int64(0)), mustKey(t, ref, "Get", int64(1)), mustKey(t, ref, "Get", int64(2))
	fillKeys(t, c, ref, old)
	c.Get(old)
	now = now.Add(6 * time.Second)
	fillKeys(t, c, ref, live)
	now = now.Add(6 * time.Second) // old expired at 10 s; live lives to 16 s
	fillKeys(t, c, ref, last)
	if got, want := held(c, old, live, last), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("the cache holds %v of [expired live last], want %v", got, want)
	}
	if got := evictions(reg); got != 1 {
		t.Fatalf("cache.evictions = %d, want 1", got)
	}
}

// TestEvictionAllHitEvictsOldestFill: when every other lease has served a
// hit, a fill over the cap evicts the oldest fill, never itself.
func TestEvictionAllHitEvictsOldestFill(t *testing.T) {
	reg := stats.New()
	c := New(reg)
	c.max = 2
	ref := testRef(1)
	a, b, n := mustKey(t, ref, "Get", int64(0)), mustKey(t, ref, "Get", int64(1)), mustKey(t, ref, "Get", int64(2))
	fillKeys(t, c, ref, a, b)
	c.Get(b)
	c.Get(a)
	fillKeys(t, c, ref, n)
	if got, want := held(c, a, b, n), []bool{false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("the cache holds %v of [a b new], want %v", got, want)
	}
	if got := evictions(reg); got != 1 {
		t.Fatalf("cache.evictions = %d, want 1", got)
	}
}

// TestEvictionRefiledLeaseIsNeverHit: a lease filed again — by a re-read's
// Put or by a write's Renew — has served no hit since, and is evicted
// before a younger never-hit lease.
func TestEvictionRefiledLeaseIsNeverHit(t *testing.T) {
	for _, refile := range []struct {
		name string
		do   func(c *Cache, key, obj string)
	}{
		{"Put", func(c *Cache, key, obj string) { c.Put(key, obj, "again", c.Gen(obj), 0) }},
		{"Renew", func(c *Cache, key, obj string) {
			gen, live := c.RecordWrite(obj)
			c.Renew(obj, gen, 0, []Fill{{Key: live[0], Val: "again"}})
		}},
	} {
		t.Run(refile.name, func(t *testing.T) {
			reg := stats.New()
			c := New(reg)
			c.max = 2
			hotRef, ref := testRef(1), testRef(2)
			hot, b, n := mustKey(t, hotRef, "Get"), mustKey(t, ref, "Get", int64(0)), mustKey(t, ref, "Get", int64(1))
			fillKeys(t, c, hotRef, hot)
			c.Get(hot)
			refile.do(c, hot, ObjKey(hotRef))
			fillKeys(t, c, ref, b, n)
			if got, want := held(c, hot, b, n), []bool{false, true, true}; !slices.Equal(got, want) {
				t.Fatalf("the cache holds %v of [refiled b new], want %v", got, want)
			}
			if got := evictions(reg); got != 1 {
				t.Fatalf("cache.evictions = %d, want 1", got)
			}
		})
	}
}

// TestDueHandsOutHotLeasesOnce: Due hands out, for one endpoint, the leases
// two Gets served since they were filed, once they are in the last 1/25 of
// their TTL — each once, with the generation and epoch a re-read's Put needs
// — and nothing else: not a lease no Get served, nor one a single Get served
// until a second serves it, not one on another endpoint, not a named root's,
// not one of an older epoch, not one with time left. It drops the expired
// entries it walks past, counts what it hands out in cache.renewals, and a
// re-read filed under its ticket serves a fresh TTL.
func TestDueHandsOutHotLeasesOnce(t *testing.T) {
	now := time.Unix(0, 0)
	var epoch uint64 = 3
	reg := stats.New()
	c := New(reg, WithEpoch(func() uint64 { return epoch }), WithTTL(25*time.Second))
	c.now = func() time.Time { return now }
	put := func(ref wire.Ref) string {
		key := mustKey(t, ref, "Get")
		obj := ObjKey(ref)
		c.Put(key, obj, ref.ObjID, c.Gen(obj), c.Epoch())
		return key
	}
	elsewhere := wire.Ref{Endpoint: "server-1", ObjID: 9}
	named := wire.Ref{Endpoint: "accounts/alice"} // a named root's lease identity
	expired := put(testRef(1))
	now = now.Add(2 * time.Second)
	hot, cold, away, byName, once := put(testRef(2)), put(testRef(3)), put(elsewhere), put(named), put(testRef(6))
	hit := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("fresh lease %q missed", k)
			}
		}
	}
	epoch-- // a lease of the epoch before, served before the bump
	stale := put(testRef(4))
	hit(stale, stale)
	epoch++
	now = now.Add(time.Second)
	young := put(testRef(5))
	for range 2 {
		hit(expired, hot, away, byName, young)
	}
	hit(once)

	// hot expires at 27 s: due from 26 s on. expired lapsed at 25 s.
	now = time.Unix(25, 500_000_000)
	if due := c.Due("server-0"); len(due) != 0 {
		t.Fatalf("Due 1.5 s before expiry = %v, want none", due)
	}
	if c.Len() != 7 {
		t.Fatalf("Len = %d after the first Due, want 7: the expired entry dropped", c.Len())
	}
	now = time.Unix(26, 200_000_000)
	epoch++
	if due := c.Due("server-0"); len(due) != 0 {
		t.Fatalf("Due across an epoch bump = %v, want none", due)
	}
	epoch--
	due := c.Due("server-0")
	gen := c.Gen(ObjKey(testRef(2)))
	want := []Lease{{Key: hot, Obj: ObjKey(testRef(2)), Ref: wire.Ref{Endpoint: "server-0", ObjID: 2}, Gen: gen, Epoch: epoch}}
	if !reflect.DeepEqual(due, want) {
		t.Fatalf("Due = %+v, want only the hot lease %+v (not the cold, the once hit, the named, the other endpoint's, the stale or the young)", due, want)
	}
	if again := c.Due("server-0"); len(again) != 0 {
		t.Fatalf("Due handed the hot lease out twice: %v", again)
	}
	if _, ok := c.Get(hot); !ok {
		t.Fatalf("a handed-out lease stopped serving before its expiry")
	}
	if again := c.Due("server-0"); len(again) != 0 {
		t.Fatalf("a hit after Due handed the lease out again: %v", again)
	}
	hit(once)
	wantOnce := []Lease{{Key: once, Obj: ObjKey(testRef(6)), Ref: wire.Ref{Endpoint: "server-0", ObjID: 6}, Gen: c.Gen(ObjKey(testRef(6))), Epoch: epoch}}
	if again := c.Due("server-0"); !reflect.DeepEqual(again, wantOnce) {
		t.Fatalf("Due after the second hit of a lease hit once = %+v, want %+v", again, wantOnce)
	}
	if got := reg.Snapshot().Counter("cache.renewals"); got != 2 {
		t.Fatalf("cache.renewals = %d, want 2", got)
	}
	if _, ok := c.Get(cold); !ok {
		t.Fatalf("cold lease missed before its expiry")
	}

	// The re-read files under its ticket: a fresh TTL from now.
	c.Put(due[0].Key, due[0].Obj, int64(20), due[0].Gen, due[0].Epoch)
	now = now.Add(20 * time.Second)
	if v, ok := c.Get(hot); !ok || v != int64(20) {
		t.Fatalf("renewed lease after the old expiry = %v, %v; want 20, true", v, ok)
	}
}

func TestCacheConcurrentUse(t *testing.T) {
	c := New(stats.New())
	ref := testRef(1)
	obj := ObjKey(ref)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := mustKey(t, ref, "Get", int64(i%16))
				switch i % 4 {
				case 0:
					c.Put(key, obj, fmt.Sprintf("%d-%d", g, i), c.Gen(obj), 0)
				case 1:
					c.Get(key)
				case 2:
					c.RecordWrite(obj)
				default:
					gen, live := c.RecordWrite(obj)
					fills := make([]Fill, len(live))
					for j, k := range live {
						fills[j] = Fill{Key: k, Val: i}
					}
					c.Renew(obj, gen, 0, fills)
				}
			}
		}(g)
	}
	wg.Wait()
}
