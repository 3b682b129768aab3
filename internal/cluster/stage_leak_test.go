package cluster_test

// Goroutine-leak and deadline regressions for the replication ship: a
// quorum-early flush is answered while the primary's link to a straggler is
// still shipping, and a shipment stuck on a wedged follower connection must
// expire on shipTimeout instead of outliving its flush for as long as the
// primary serves.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
)

// TestShipStragglerDoesNotLeak: under WithQuorum(1) a replicated flush acks
// off the primary alone, and the primary's ship to the follower runs on past
// its reply. With the follower's response path to the primary wedged (huge
// injected latency — the connection is alive, the Append answer just never
// arrives), the ship goroutine must exit when shipTimeout expires rather than
// leak.
func TestShipStragglerDoesNotLeak(t *testing.T) {
	restore := cluster.SetShipTimeoutForTest(250 * time.Millisecond)
	defer restore()

	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	ec.BindCounter(dir, "obj-0", 100)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, ec.Endpoints()[0]); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	owners, _ := dir.Owners("obj-0")
	primary, follower := owners[0], owners[1]

	flush := func(want int64) {
		t.Helper()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithQuorum(1))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			t.Fatal(err)
		}
		f := p.Call("Add", int64(1))
		if err := b.Flush(ctx); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != want {
			t.Fatalf("Add = %v, %v; want %d", v, err, want)
		}
	}

	// First flush on a healthy network establishes every connection the
	// ship path uses, so its readLoops land in the baseline.
	flush(101)
	clustertest.AssertGoroutinesReturn(t, runtime.NumGoroutine(), 2*time.Second)
	baseline := runtime.NumGoroutine()

	// Wedge the follower's response path and keep flushing: quorum W=1
	// acks each wave immediately, and every straggler ship hangs on the
	// primary's silent connection to it. Eight wedged flushes put any leak
	// far outside the poll's churn slack. The hour-late responses stay queued
	// on the link (graceful close drains in-flight data), so teardown must
	// reset those connections abortively — registered before clustertest's
	// own cleanup so it runs first.
	ec.Network.SetLinkFaults(follower, primary, netsim.LinkFaults{ExtraLatency: time.Hour})
	t.Cleanup(func() { ec.Network.KillConns(follower) })
	for i := int64(0); i < 8; i++ {
		flush(102 + i)
	}

	// The fix: each ship's own deadline reaps it. Without shipTimeout the
	// goroutines block in Call for as long as the primary serves — here, past
	// the end of the test — and this poll times out.
	clustertest.AssertGoroutinesReturn(t, baseline, 5*time.Second)
}

// TestWedgedFollowerDoesNotStackDeadlines: three concurrent W=all flushes
// queue their records on the primary's one link to a wedged follower. Each
// record's deadline runs from when it was queued, so each flush fails with a
// quorum miss naming the follower after one shipTimeout, not after the ones
// queued ahead of it; then every goroutine returns.
func TestWedgedFollowerDoesNotStackDeadlines(t *testing.T) {
	const timeout = 250 * time.Millisecond
	restore := cluster.SetShipTimeoutForTest(timeout)
	defer restore()

	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	ec.BindCounter(dir, "obj-0", 0)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, ec.Endpoints()[0]); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	owners, _ := dir.Owners("obj-0")
	primary, follower := owners[0], owners[1]

	flush := func() error {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		p, err := b.RootNamed(ctx, "obj-0")
		if err != nil {
			return err
		}
		p.Call("Add", int64(1))
		return b.Flush(ctx)
	}
	// A healthy flush first, so the connections the ship uses are in the
	// baseline.
	if err := flush(); err != nil {
		t.Fatalf("healthy flush: %v", err)
	}
	clustertest.AssertGoroutinesReturn(t, runtime.NumGoroutine(), 2*time.Second)
	baseline := runtime.NumGoroutine()

	ec.Network.SetLinkFaults(follower, primary, netsim.LinkFaults{ExtraLatency: time.Hour})
	t.Cleanup(func() { ec.Network.KillConns(follower) })
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			err := flush()
			took := time.Since(start)
			var qe *cluster.QuorumError
			if !errors.As(err, &qe) || len(qe.Failed) != 1 || qe.Failed[0].Endpoint != follower {
				t.Errorf("flush %d with %s wedged = %v, want a quorum miss naming it", i, follower, err)
			}
			if took > timeout+150*time.Millisecond {
				t.Errorf("flush %d failed after %v, want within one shipTimeout (%v) plus 150ms", i, took, timeout)
			}
		}()
	}
	wg.Wait()
	clustertest.AssertGoroutinesReturn(t, baseline, 5*time.Second)
}
