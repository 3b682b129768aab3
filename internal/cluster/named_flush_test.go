package cluster_test

// The cost model of a name-addressed flush, pinned in remote calls issued by
// the client (rmi.Peer.CallCount) from before RootNamed to after Flush: a
// flush costs its waves — one call per distinct destination per wave — and
// no lookups; a stale ring costs one refresh fan-out and one extra wave on
// top; and whatever a home cannot resolve comes back through the flush.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/registry"
	"repro/internal/rmi"
)

// namesAt returns count names homed on endpoint by dir's ring.
func namesAt(dir *cluster.Directory, endpoint string, count int) []string {
	return clustertest.PickNames(dir.Ring(), dir.Ring(), endpoint, endpoint, count)
}

// TestRootNamedIsLocal: addressing a root by name touches no network, and
// asking twice for one name returns one proxy.
func TestRootNamedIsLocal(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	name := namesAt(dir, "server-1", 1)[0]
	ec.BindCounter(dir, name, 7)

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.RootNamed(ctx, name)
	if err != nil || again != p {
		t.Errorf("second RootNamed = %p, %v; want the first proxy %p", again, err, p)
	}
	if p.Endpoint() != "server-1" {
		t.Errorf("root routed to %s, want its ring home server-1", p.Endpoint())
	}
	if got := ec.Client.CallCount() - before; got != 0 {
		t.Errorf("RootNamed issued %d remote calls, want 0", got)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ec.Client.CallCount() - before; got != 0 {
		t.Errorf("flushing a batch of roots and no calls issued %d remote calls, want 0", got)
	}
}

// TestNamedFlushCostsItsWaves: brmibench's cluster_dataflow shape — 4 named
// roots, 9 calls, dependency depth 3 — costs exactly the sum, over its three
// waves, of the distinct destinations each wave reaches.
func TestNamedFlushCostsItsWaves(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := append(namesAt(dir, "server-0", 2), namesAt(dir, "server-1", 1)[0], namesAt(dir, "server-2", 1)[0])
	for _, name := range names {
		ec.BindCounter(dir, name, 0)
	}

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	roots := make([]*cluster.Proxy, len(names))
	for i, name := range names {
		var err error
		if roots[i], err = b.RootNamed(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	n := len(roots)
	var futs []*cluster.Future
	for i := 0; i < n; i++ { // a_i = root_i.Add(1)
		futs = append(futs, roots[i].Call("Add", int64(1)))
	}
	for i := 0; i < n; i++ { // b_i = root_(i+1).Add(a_i)
		futs = append(futs, roots[(i+1)%n].Call("Add", futs[i]))
	}
	futs = append(futs, roots[0].Call("Add", futs[2*n-1])) // c = root_0.Add(b_3)
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	// Waves 0 and 1 reach all three homes, wave 2 reaches root 0's alone.
	if got := ec.Client.CallCount() - before; got != 3+3+1 {
		t.Errorf("4 named roots / 9 calls / depth 3 cost %d remote calls, want 7: its waves and no lookups", got)
	}
	if w := b.Waves(); w != 3 {
		t.Errorf("flush took %d waves, want 3", w)
	}
}

// TestNamedFlushStaleRingCostsRefreshAndWave: the client's ring is one epoch
// behind and the moved root's first contact is in the middle of a 3-stage
// pipeline. The old home refuses the name, the flush refreshes once, re-routes
// the root — this stage's call and the next stage's — and runs one extra wave
// at the new home. No lookup anywhere.
func TestNamedFlushStaleRingCostsRefreshAndWave(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	live := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
	staying := clustertest.PickNames(live.Ring(), grown, "server-1", "server-1", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, staying, 1)
	stale := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	ps, err := b.RootNamed(ctx, staying)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := b.RootNamed(ctx, moving)
	if err != nil {
		t.Fatal(err)
	}
	f0 := ps.Call("Add", int64(1)) // stage 0 at server-1: 2
	f1 := pm.Call("Add", f0)       // stage 1, first contact with the old home: 12
	f2 := pm.Call("Add", f1)       // stage 2, through the session the retry opened: 24
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush over a ring one epoch behind: %v", err)
	}
	if v, err := cluster.Typed[int64](f2).Get(); err != nil || v != 24 {
		t.Errorf("last stage = %v, %v; want 24", v, err)
	}
	// Stage 0, the refused stage 1, a RingState from each member the stale
	// ring knew, the retried stage 1, stage 2.
	if got := ec.Client.CallCount() - before; got != 1+1+2+1+1 {
		t.Errorf("flush cost %d remote calls, want 6: three waves, one refresh fan-out of two, one retry wave", got)
	}
	if w := b.Waves(); w != 4 || !b.StaleRetried() {
		t.Errorf("flush took %d waves, retried %v; want 4 and the retry spent", w, b.StaleRetried())
	}
	if got := clientCounter(ec, "cluster.lookup_retries"); got != 0 {
		t.Errorf("cluster.lookup_retries = %d, want 0: nothing looks names up", got)
	}
	if e := stale.Epoch(); e != live.Epoch() {
		t.Errorf("client ring at epoch %d after the flush, want %d", e, live.Epoch())
	}
}

// TestNamedFlushNotBound: a name nobody bound is the home's to report. It
// fails that destination of the flush with the registry's typed error; the
// other destinations settle.
func TestNamedFlushNotBound(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	bound := namesAt(dir, "server-0", 1)[0]
	ghost := namesAt(dir, "server-1", 1)[0]
	ec.BindCounter(dir, bound, 5)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	pb, err := b.RootNamed(ctx, bound)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := b.RootNamed(ctx, ghost)
	if err != nil {
		t.Fatalf("RootNamed of an unbound name = %v, want nil: it resolves nothing", err)
	}
	fb, fg := pb.Call("Add", int64(1)), pg.Call("Add", int64(1))
	err = b.Flush(ctx)
	var fe *cluster.FlushError
	var notBound *registry.NotBoundError
	if !errors.As(err, &fe) || !errors.As(err, &notBound) || notBound.Name != ghost {
		t.Fatalf("flush = %v, want a *FlushError carrying *registry.NotBoundError for %q", err, ghost)
	}
	if len(fe.Failures) != 1 || fe.Failures[0].Endpoint != "server-1" || fe.Retries != 0 {
		t.Errorf("failures = %+v after %d retries, want server-1 alone and no retry", fe.Failures, fe.Retries)
	}
	if v, err := cluster.Typed[int64](fb).Get(); err != nil || v != 6 {
		t.Errorf("call on the bound name = %v, %v; want 6", v, err)
	}
	if err := fg.Err(); !errors.As(err, &notBound) {
		t.Errorf("call on the unbound name = %v, want *registry.NotBoundError", err)
	}
}

// TestNamedRootPassedByReference: a named root handed, as an argument, to a
// call bound for another server is the one root that needs a ref before the
// first wave. It costs one lookup, for that root alone.
func TestNamedRootPassedByReference(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	src := namesAt(dir, "server-0", 1)[0]
	dst := namesAt(dir, "server-1", 1)[0]
	ec.BindCounter(dir, src, 40)
	ec.BindCounter(dir, dst, 2)

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	ps, _ := b.RootNamed(ctx, src)
	pd, _ := b.RootNamed(ctx, dst)
	sum := pd.Call("AddRemote", ps) // server-1 calls back into src's stub
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](sum).Get(); err != nil || v != 42 {
		t.Errorf("AddRemote(src) = %v, %v; want 42", v, err)
	}
	if got := ec.Client.CallCount() - before; got != 2 {
		t.Errorf("flush cost %d remote calls, want 2: one lookup for the forwarded root, one wave", got)
	}
}

// migrateOnCall is a remote object whose one method runs a hook, inside the
// wave that calls it.
type migrateOnCall struct {
	rmi.RemoteBase
	hook func() error
}

func (m *migrateOnCall) Fire(int64) (int64, error) { return 1, m.hook() }

// TestUnretriedWrongHomeStillRefreshes: a root migrates between two waves of
// one flush, while its old home holds the flush's chained session. That
// wrong-home rejection cannot be retried — but it must still bring the
// client's ring up to date, or the client's next flush routes the name to
// the same dead home.
func TestUnretriedWrongHomeStillRefreshes(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	live := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
	keeping := clustertest.PickNames(live.Ring(), grown, "server-0", "server-0", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, keeping, 20)
	stale := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	trigger, err := ec.Server("server-1").Peer.Export(&migrateOnCall{hook: func() error {
		_, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2")
		return err
	}}, "cluster.MigrateOnCall")
	if err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	pk, _ := b.RootNamed(ctx, keeping)
	pm, _ := b.RootNamed(ctx, moving)
	f0 := pk.Call("Add", int64(1))         // stage 0: opens server-0's session over both roots
	f1 := b.Root(trigger).Call("Fire", f0) // stage 1: the cluster grows, moving leaves server-0
	f2 := pm.Call("Add", f1)               // stage 2: server-0, mid-session, no longer has it
	err = b.Flush(ctx)
	var wrong *rmi.WrongHomeError
	if !errors.As(err, &wrong) || b.StaleRetried() {
		t.Fatalf("flush = %v (retried %v), want an unretried wrong-home failure", err, b.StaleRetried())
	}
	if err := f1.Err(); err != nil {
		t.Fatalf("the migration itself failed: %v", err)
	}
	if err := f2.Err(); !errors.As(err, &wrong) {
		t.Errorf("stage 2 = %v, want the wrong-home rejection", err)
	}
	if e := stale.Epoch(); e != live.Epoch() {
		t.Fatalf("client ring still at epoch %d after the failed flush, want %d", e, live.Epoch())
	}

	// The next flush routes by the fresh ring: straight to the new home.
	b = cluster.New(ec.Client, cluster.WithDirectory(stale))
	pm, _ = b.RootNamed(ctx, moving)
	f := pm.Call("Add", int64(5))
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 15 {
		t.Errorf("Add at the new home = %v, %v; want 15", v, err)
	}
	if w, retries := b.Waves(), clientCounter(ec, "cluster.wrong_home_retries"); w != 1 || retries != 0 {
		t.Errorf("fresh flush took %d waves, cluster.wrong_home_retries = %d; want 1 and 0", w, retries)
	}
}
