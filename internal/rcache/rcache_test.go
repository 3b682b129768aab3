package rcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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

func TestGetPutLeaseLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	var epoch uint64 = 7
	c := New(nil,
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
}

func TestInvalidateObjectAndGenerationGuard(t *testing.T) {
	c := New(nil)
	refA, refB := testRef(1), testRef(2)
	keyA, keyB := mustKey(t, refA, "Get"), mustKey(t, refB, "Get")
	objA, objB := ObjKey(refA), ObjKey(refB)

	c.Put(keyA, objA, "a", c.Gen(objA), 0)
	c.Put(keyB, objB, "b", c.Gen(objB), 0)
	c.InvalidateObject(objA)
	if _, ok := c.Get(keyA); ok {
		t.Fatalf("invalidated object's entry served")
	}
	if _, ok := c.Get(keyB); !ok {
		t.Fatalf("invalidation dropped an unrelated object's entry")
	}

	// The stale-fill race: a read records a miss (capturing gen), a write
	// invalidates, then the read's result lands. The fill must be dropped.
	gen := c.Gen(objA)
	c.InvalidateObject(objA)
	c.Put(keyA, objA, "stale", gen, 0)
	if _, ok := c.Get(keyA); ok {
		t.Fatalf("stale fill survived a concurrent invalidation")
	}
}

func TestEvictionFIFOAndCounter(t *testing.T) {
	reg := stats.New()
	c := New(reg)
	c.max = 2
	ref := testRef(1)
	obj := ObjKey(ref)
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = mustKey(t, ref, "Get", int64(i))
		c.Put(keys[i], obj, i, c.Gen(obj), 0)
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatalf("oldest entry survived past the cap")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatalf("newest entry evicted")
	}
	if got := reg.Snapshot().Counter("cache.evictions"); got != 1 {
		t.Fatalf("cache.evictions = %d, want 1", got)
	}
}

func TestFlightLeaderFollower(t *testing.T) {
	reg := stats.New()
	c := New(reg)
	f, leader := c.Begin("k")
	if !leader {
		t.Fatalf("first Begin not leader")
	}
	f2, leader2 := c.Begin("k")
	if leader2 || f2 != f {
		t.Fatalf("second Begin = (%p, %v), want follower on the same flight", f2, leader2)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := f2.Wait(context.Background())
		if err != nil || v.(int) != 9 {
			t.Errorf("follower Wait = (%v, %v), want (9, nil)", v, err)
		}
	}()
	c.Finish("k", f, 9, nil)
	<-done
	if got := reg.Snapshot().Counter("cache.coalesced"); got != 1 {
		t.Fatalf("cache.coalesced = %d, want 1", got)
	}
	// The flight is retired: the next Begin leads a fresh one.
	if _, leader := c.Begin("k"); !leader {
		t.Fatalf("Begin after Finish not leader")
	}
}

func TestFlightWaitRespectsContext(t *testing.T) {
	c := New(nil)
	f, _ := c.Begin("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait on canceled ctx = %v, want context.Canceled", err)
	}
	c.Finish("k", f, nil, nil) // leaders always finish
}

func TestGroupCoalesces(t *testing.T) {
	var g Group
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	results := make([]any, n)
	shareds := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, shared := g.Do("k", func() (any, error) {
			close(started)
			<-gate
			return calls.Add(1), nil
		})
		results[0], shareds[0] = v, shared
	}()
	<-started // the leader is inside fn; everyone else must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, shared := g.Do("k", func() (any, error) { return calls.Add(1), nil })
			results[i], shareds[i] = v, shared
		}(i)
	}
	// Wait until every follower is parked on the flight, then release. The
	// loop polls the group's internal state via a fresh key as a fence; a
	// bounded sleep keeps the test honest without flaking.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	for i, v := range results {
		if v.(int64) != 1 {
			t.Fatalf("caller %d got %v, want 1", i, v)
		}
	}
	if shareds[0] {
		t.Fatalf("leader reported shared")
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
					c.InvalidateObject(obj)
				default:
					f, leader := c.Begin(key)
					if leader {
						c.Finish(key, f, i, nil)
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						_, _ = f.Wait(ctx)
						cancel()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
