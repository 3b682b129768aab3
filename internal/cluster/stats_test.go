package cluster_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
)

// Satellite regression tests for PR 6: the flush executor's wrong-home
// retry and the directory's lookup retry used to recover SILENTLY — no
// counter moved and the caller could not tell a clean flush from one that
// burned its retry. These pin the new surfacing: the stats counters, the
// Batch.StaleRetried accessor, and FlushError.Retries.

// TestStaleFlushRetrySurfacesCount: a recovered wrong-home retry is visible
// on the batch accessor and the client's stats registry.
func TestStaleFlushRetrySurfacesCount(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(dir, name, 10)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	if err := b.Flush(ctx); err != nil {
		t.Fatalf("stale flush did not recover: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 15 {
		t.Fatalf("retried call = %v, %v; want 15", v, err)
	}
	if !b.StaleRetried() {
		t.Error("StaleRetried() = false after a recovered wrong-home retry")
	}
	snap := ec.ClientStats.Snapshot()
	if got := snap.Counter("cluster.wrong_home_retries"); got != 1 {
		t.Errorf("cluster.wrong_home_retries = %d, want 1", got)
	}
	if got, want := snap.Counter("cluster.flush_waves"), int64(b.Waves()); got != want {
		t.Errorf("cluster.flush_waves = %d, want %d (Waves())", got, want)
	}
}

// TestValueSplicesCounted: core.value_splices counts, on the executor that
// did it, every argument answered from a request's value table — the edges
// that stayed on their server — and core.value_pushes, on the producer's,
// every value it pushed to another server. Neither costs a wave.
func TestValueSplicesCounted(t *testing.T) {
	tc := clustertest.New(t, 2)
	b := cluster.New(tc.Client)
	a, bb := b.Root(tc.Servers[0].Ref), b.Root(tc.Servers[1].Ref)
	f0 := a.Call("Add", int64(1))
	f1 := a.Call("Apply", f0, f0) // two arguments spliced by server-0
	bb.Call("Add", f1)            // pushed by server-0 to server-1, in the same wave
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][2]int64{{2, 1}, {0, 0}} {
		snap := tc.Servers[i].Stats.Snapshot()
		if got := [2]int64{snap.Counter("core.value_splices"), snap.Counter("core.value_pushes")}; got != want {
			t.Errorf("server-%d core.value_splices, core.value_pushes = %v, want %v", i, got, want)
		}
	}
	if got := tc.ClientStats.Snapshot().Counter("cluster.flush_waves"); got != 1 || b.Waves() != 1 {
		t.Errorf("cluster.flush_waves = %d, Waves() = %d; want 1", got, b.Waves())
	}
}

// TestFlushErrorCarriesRetryCount: when the single retry is spent and the
// flush still fails, FlushError.Retries reports it — the caller knows the
// failure is final, not first-attempt. An un-named root cannot be
// re-resolved, so its retried wave fails wrong-home a second time.
func TestFlushErrorCarriesRetryCount(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(dir, name, 10)
	ref, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch-aware batch, but the root is addressed by raw ref: the retry
	// fires (and is counted) yet cannot re-home the object.
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	b.Root(ref).Call("Get")

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	err = b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	if fe.Retries != 1 {
		t.Errorf("FlushError.Retries = %d, want 1", fe.Retries)
	}
	if !b.StaleRetried() {
		t.Error("StaleRetried() = false after a spent retry")
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.wrong_home_retries"); got != 1 {
		t.Errorf("cluster.wrong_home_retries = %d, want 1", got)
	}
}

// TestFlushErrorWithoutRetryReportsZero: a first-attempt failure (no
// directory, so no retry is possible) reports Retries == 0.
func TestFlushErrorWithoutRetryReportsZero(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(dir, name, 10)
	ref, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client)
	b.Root(ref).Call("Get")
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	err = b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	if fe.Retries != 0 {
		t.Errorf("FlushError.Retries = %d, want 0", fe.Retries)
	}
}

// TestFlushErrorCarriesQuorum mirrors the Retries tests for the replication
// quorum: when the primary applies a wave but cannot reach its follower, the
// flush fails with FlushError.Quorum reporting how many replicas acked vs
// required, the futures rethrow rather than surfacing the non-durable
// values, and NO stale retry is spent (a re-send could double-apply the wave
// the primary already ran).
func TestFlushErrorCarriesQuorum(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"}, cluster.WithReplication(2))
	name := "obj-0"
	owners, _ := dir.Owners(name)
	primary, follower := owners[0], owners[1]
	ec.BindCounter(dir, name, 10)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, primary); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}

	// The client reaches the primary, the primary cannot reach the follower:
	// the wave executes, the ship is refused.
	ec.Network.PartitionPair(primary, follower)
	defer ec.Network.HealAll()

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))

	err = b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	if fe.Quorum == nil {
		t.Fatal("FlushError.Quorum = nil, want the quorum miss")
	}
	if fe.Quorum.Acked != 1 || fe.Quorum.Required != 2 {
		t.Errorf("quorum = %d/%d acked, want 1/2", fe.Quorum.Acked, fe.Quorum.Required)
	}
	if fe.Quorum.Name != name {
		t.Errorf("quorum miss names %q, want %q", fe.Quorum.Name, name)
	}
	if fe.Retries != 0 || b.StaleRetried() {
		t.Errorf("quorum miss spent the stale retry (Retries=%d, StaleRetried=%v); it must not", fe.Retries, b.StaleRetried())
	}
	var qe *cluster.QuorumError
	if !errors.As(err, &qe) {
		t.Error("errors.As cannot reach the *QuorumError through the flush error")
	}
	if _, err := cluster.Typed[int64](f).Get(); err == nil {
		t.Error("future of a non-durable wave settled with a value, want the quorum error")
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits"); got != 1 {
		t.Errorf("cluster.quorum_waits = %d, want 1", got)
	}

	// The primary DID apply the wave — the error reports lost durability,
	// not a lost write. A healed read observes it.
	ec.Network.HealAll()
	ref, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Endpoint != primary {
		t.Fatalf("%s resolves to %s, want primary %s", name, ref.Endpoint, primary)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 15 {
		t.Errorf("primary state = %d, want 15 (the wave applied before the quorum miss)", got)
	}
}

// TestStaleLookupRetrySurfacesCount: the directory's transparent
// lookup-retry now moves cluster.lookup_retries and cluster.dir_refreshes.
func TestStaleLookupRetrySurfacesCount(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	base := []string{"server-0", "server-1"}
	admin := cluster.NewDirectory(ec.Client, base)
	stale := cluster.NewDirectory(ec.Client, base)

	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(admin, name, 7)
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}
	before := ec.ClientStats.Snapshot()

	if _, err := stale.Lookup(ctx, name); err != nil {
		t.Fatalf("stale lookup: %v", err)
	}
	snap := ec.ClientStats.Snapshot()
	if got := snap.Counter("cluster.lookup_retries") - before.Counter("cluster.lookup_retries"); got != 1 {
		t.Errorf("cluster.lookup_retries moved by %d, want 1", got)
	}
	if got := snap.Counter("cluster.dir_refreshes") - before.Counter("cluster.dir_refreshes"); got != 1 {
		t.Errorf("cluster.dir_refreshes moved by %d, want 1", got)
	}
}
