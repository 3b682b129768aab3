package cluster

// In-package tests for pieces only reachable from inside the package: the
// recording partitioner and the ring's point-table internals. Everything
// that exercises the public cluster behaviour against a running deployment
// lives in the external test files (package cluster_test), on the shared
// internal/clustertest scaffolding.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// --- partitioner -------------------------------------------------------------

func TestPartitionPreservesPerGroupOrder(t *testing.T) {
	ga := &group{endpoint: "a"}
	gb := &group{endpoint: "b"}
	gc := &group{endpoint: "c"}
	mk := func(g *group, m string) *recordedCall { return &recordedCall{group: g, method: m} }
	calls := []*recordedCall{
		mk(ga, "a1"), mk(gb, "b1"), mk(ga, "a2"), mk(gc, "c1"),
		mk(gb, "b2"), mk(ga, "a3"), mk(gc, "c2"),
	}
	subs := partition(calls)
	if len(subs) != 3 {
		t.Fatalf("got %d sub-batches, want 3", len(subs))
	}
	// Sub-batches appear in first-appearance order.
	wantGroups := []*group{ga, gb, gc}
	wantCalls := [][]string{{"a1", "a2", "a3"}, {"b1", "b2"}, {"c1", "c2"}}
	for i, sb := range subs {
		if sb.group != wantGroups[i] {
			t.Errorf("sub-batch %d: wrong group %q", i, sb.group.endpoint)
		}
		if len(sb.calls) != len(wantCalls[i]) {
			t.Fatalf("sub-batch %d: %d calls, want %d", i, len(sb.calls), len(wantCalls[i]))
		}
		for j, c := range sb.calls {
			if c.method != wantCalls[i][j] {
				t.Errorf("sub-batch %d call %d: %s, want %s", i, j, c.method, wantCalls[i][j])
			}
		}
	}
}

func TestPartitionEmpty(t *testing.T) {
	if subs := partition(nil); len(subs) != 0 {
		t.Fatalf("empty recording partitioned into %d sub-batches", len(subs))
	}
}

// --- ring point-table internals ----------------------------------------------

// routesMatch compares key routing between two rings over a key sample.
func routesMatch(t *testing.T, got, want *Ring, label string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if g, w := got.Route(key), want.Route(key); g != w {
			t.Fatalf("%s: key %q routes to %q, fresh ring says %q", label, key, g, w)
		}
	}
}

// TestRingCanonicalRouting is the re-sharding property test: any sequence
// of Add/Remove ending at member set S routes every key exactly like a
// fresh NewRing(S). It runs once with the real point hash and once with a
// pathologically colliding one, which is what used to break — Remove never
// restored points a member lost to a collision at Add time, so the ring
// permanently skewed based on arrival order.
func TestRingCanonicalRouting(t *testing.T) {
	pool := []string{"a", "b", "c", "d", "e", "f"}
	run := func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		r := NewRing(nil)
		members := map[string]bool{}
		for step := 0; step < 200; step++ {
			ep := pool[rng.Intn(len(pool))]
			if members[ep] && rng.Intn(2) == 0 {
				r.Remove(ep)
				delete(members, ep)
			} else {
				r.Add(ep)
				members[ep] = true
			}
			var set []string
			for ep := range members {
				set = append(set, ep)
			}
			routesMatch(t, r, NewRing(set), fmt.Sprintf("step %d (set %v)", step, set))
		}
	}
	t.Run("realHash", run)
	t.Run("collidingHash", func(t *testing.T) {
		orig := vnodeHash
		vnodeHash = func(label []byte) uint64 { return hashOf(label) % 64 }
		defer func() { vnodeHash = orig }()
		run(t)
	})
}

// ringDigest hashes a ring's point table: every point in order and the
// member that owns it.
func ringDigest(r *Ring) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h := sha256.New()
	var b [8]byte
	for _, p := range r.points {
		binary.BigEndian.PutUint64(b[:], p)
		h.Write(b[:])
		h.Write([]byte(r.owners[p]))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestRingTableDigest pins the point table byte for byte: how the vnode
// labels are built and hashed is free to change, the table is not — every
// deployment's routing and every migration plan reads it.
func TestRingTableDigest(t *testing.T) {
	for _, tc := range []struct {
		members []string
		want    string
	}{
		{[]string{"server-0", "server-1", "server-2", "server-3"}, "0276c623ea3b627b"},
		{[]string{"a", "b", "c", "d", "e", "f"}, "160f0144c158fb92"},
	} {
		if got := ringDigest(NewRing(tc.members)); got != tc.want {
			t.Errorf("ring %v: point table digest %s, want %s", tc.members, got, tc.want)
		}
	}
	r := NewRing([]string{"server-0", "server-1", "server-2", "server-3"})
	if n := testing.AllocsPerRun(100, func() { _ = r.Route("customer-17") }); n != 0 {
		t.Errorf("Route allocates %.1f times per call, want 0", n)
	}
}

// TestRingRemoveRestoresCollisionPoints pins the specific Remove bug: under
// a colliding hash, B loses points to A at Add time; removing A must hand
// them back, leaving exactly the table a fresh single-member ring has.
func TestRingRemoveRestoresCollisionPoints(t *testing.T) {
	orig := vnodeHash
	vnodeHash = func(label []byte) uint64 { return hashOf(label) % 64 }
	defer func() { vnodeHash = orig }()

	r := NewRing([]string{"a"})
	r.Add("b") // b loses every colliding point to a
	r.Remove("a")

	fresh := NewRing([]string{"b"})
	r.mu.RLock()
	gotPoints := len(r.points)
	r.mu.RUnlock()
	fresh.mu.RLock()
	wantPoints := len(fresh.points)
	fresh.mu.RUnlock()
	if gotPoints != wantPoints {
		t.Fatalf("after add/remove, ring has %d points; fresh ring of same set has %d", gotPoints, wantPoints)
	}
	routesMatch(t, r, fresh, "after remove")
}
