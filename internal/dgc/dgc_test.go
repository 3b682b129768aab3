package dgc

import (
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// fakeClock is a settable clock for deterministic lease expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestDirtyGrantsLease(t *testing.T) {
	clk := newFakeClock()
	tbl := NewTable(nil, WithLease(10*time.Second))
	tbl.now = clk.Now
	if got := tbl.Dirty("c1", 1, []uint64{7}); got != 10*time.Second {
		t.Fatalf("granted %v", got)
	}
	if n := tbl.HolderCount(7); n != 1 {
		t.Fatalf("holders = %d", n)
	}
	tbl.Dirty("c2", 1, []uint64{7})
	if n := tbl.HolderCount(7); n != 2 {
		t.Fatalf("holders = %d", n)
	}
}

func TestCleanReleasesAndCollects(t *testing.T) {
	var collected []uint64
	tbl := NewTable(func(id uint64) { collected = append(collected, id) }, WithLease(time.Minute))
	tbl.Dirty("c1", 1, []uint64{1, 2})
	tbl.Dirty("c2", 1, []uint64{1})
	tbl.Clean("c1", 2, []uint64{1, 2})
	if len(collected) != 1 || collected[0] != 2 {
		t.Fatalf("collected %v, want [2]", collected)
	}
	tbl.Clean("c2", 2, []uint64{1})
	sort.Slice(collected, func(i, j int) bool { return collected[i] < collected[j] })
	if len(collected) != 2 || collected[0] != 1 || collected[1] != 2 {
		t.Fatalf("collected %v, want [1 2]", collected)
	}
}

func TestCleanUnknownIsNoop(t *testing.T) {
	called := false
	tbl := NewTable(func(uint64) { called = true })
	tbl.Clean("cx", 1, []uint64{99})
	if called {
		t.Fatal("collect fired for unknown object")
	}
}

func TestSweepExpiresLeases(t *testing.T) {
	clk := newFakeClock()
	var collected []uint64
	tbl := NewTable(func(id uint64) { collected = append(collected, id) },
		WithLease(10*time.Second))
	tbl.now = clk.Now
	tbl.Dirty("c1", 1, []uint64{1})
	tbl.Dirty("c2", 1, []uint64{2})

	clk.Advance(5 * time.Second)
	tbl.Dirty("c2", 1, []uint64{2}) // renewal pushes expiry out

	clk.Advance(6 * time.Second) // c1 now expired (11s), c2 alive (renewed at 5s)
	expired := tbl.Sweep()
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired %v, want [1]", expired)
	}
	if len(collected) != 1 || collected[0] != 1 {
		t.Fatalf("collected %v, want [1]", collected)
	}
	if n := tbl.HolderCount(2); n != 1 {
		t.Fatalf("object 2 holders = %d, want 1", n)
	}

	clk.Advance(10 * time.Second)
	expired = tbl.Sweep()
	if len(expired) != 1 || expired[0] != 2 {
		t.Fatalf("expired %v, want [2]", expired)
	}
}

func TestHolderCountIgnoresExpired(t *testing.T) {
	clk := newFakeClock()
	tbl := NewTable(nil, WithLease(time.Second))
	tbl.now = clk.Now
	tbl.Dirty("c1", 1, []uint64{1})
	clk.Advance(2 * time.Second)
	if n := tbl.HolderCount(1); n != 0 {
		t.Fatalf("holders = %d, want 0 after expiry", n)
	}
}

func TestBackgroundSweeper(t *testing.T) {
	collected := make(chan uint64, 1)
	tbl := NewTable(func(id uint64) { collected <- id }, WithLease(10*time.Millisecond))
	tbl.Dirty("c1", 1, []uint64{42})
	tbl.Start(5 * time.Millisecond)
	defer tbl.Stop()
	select {
	case id := <-collected:
		if id != 42 {
			t.Fatalf("collected %d", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sweeper never collected expired lease")
	}
}

func TestStopIdempotent(t *testing.T) {
	tbl := NewTable(nil)
	tbl.Start(time.Hour)
	tbl.Stop()
	tbl.Stop()
	// Start after stop must not launch a goroutine that outlives the test.
	tbl.Start(time.Millisecond)
	tbl.Stop()
}

// TestQuickLeaseInvariant: after any sequence of Dirty/Clean pairs, an
// object has a holder iff some client issued Dirty without a matching Clean.
func TestQuickLeaseInvariant(t *testing.T) {
	f := func(ops []struct {
		Client uint8
		Obj    uint8
		Clean  bool
	}) bool {
		tbl := NewTable(nil, WithLease(time.Hour))
		want := make(map[uint64]map[string]bool)
		seqs := make(map[string]uint64)
		for _, op := range ops {
			client := string(rune('a' + op.Client%8))
			obj := uint64(op.Obj % 8)
			seqs[client]++
			if op.Clean {
				tbl.Clean(client, seqs[client], []uint64{obj})
				if m := want[obj]; m != nil {
					delete(m, client)
				}
			} else {
				tbl.Dirty(client, seqs[client], []uint64{obj})
				if want[obj] == nil {
					want[obj] = make(map[string]bool)
				}
				want[obj][client] = true
			}
		}
		for obj := uint64(0); obj < 8; obj++ {
			if tbl.HolderCount(obj) != len(want[obj]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStaleDirtyCannotResurrect reproduces the dirty/clean race the
// sequence numbers exist for: a dirty issued before a clean but delivered
// after it must not revive the lease.
func TestStaleDirtyCannotResurrect(t *testing.T) {
	var collected []uint64
	tbl := NewTable(func(id uint64) { collected = append(collected, id) }, WithLease(time.Hour))
	tbl.Dirty("c1", 1, []uint64{5})
	tbl.Clean("c1", 3, []uint64{5})
	if len(collected) != 1 {
		t.Fatalf("collected %v", collected)
	}
	tbl.Dirty("c1", 2, []uint64{5}) // stale: sequenced before the clean
	if n := tbl.HolderCount(5); n != 0 {
		t.Fatalf("stale dirty resurrected lease, holders = %d", n)
	}
	// A genuinely newer dirty is honoured.
	tbl.Dirty("c1", 4, []uint64{5})
	if n := tbl.HolderCount(5); n != 1 {
		t.Fatalf("fresh dirty ignored, holders = %d", n)
	}
}

func TestStaleCleanIgnored(t *testing.T) {
	tbl := NewTable(nil, WithLease(time.Hour))
	tbl.Dirty("c1", 5, []uint64{9})
	tbl.Clean("c1", 3, []uint64{9}) // stale clean sequenced before the dirty
	if n := tbl.HolderCount(9); n != 1 {
		t.Fatalf("stale clean dropped lease, holders = %d", n)
	}
}

func TestForceClean(t *testing.T) {
	var collected []uint64
	tbl := NewTable(func(id uint64) { collected = append(collected, id) }, WithLease(time.Hour))
	tbl.Dirty("__marshal", 0, []uint64{7})
	tbl.ForceClean("__marshal", []uint64{7})
	if len(collected) != 1 || collected[0] != 7 {
		t.Fatalf("collected %v, want [7]", collected)
	}
	// ForceClean on absent holders is a no-op.
	tbl.ForceClean("__marshal", []uint64{7, 8})
}

func TestConcurrentDirtyClean(t *testing.T) {
	tbl := NewTable(nil, WithLease(time.Hour))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				tbl.Dirty(client, uint64(2*j+1), []uint64{uint64(j % 4)})
				tbl.Clean(client, uint64(2*j+2), []uint64{uint64(j % 4)})
			}
		}(i)
	}
	wg.Wait()
	for obj := uint64(0); obj < 4; obj++ {
		if n := tbl.HolderCount(obj); n != 0 {
			t.Fatalf("object %d holders = %d after balanced ops", obj, n)
		}
	}
}
