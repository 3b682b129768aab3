package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// --- migration on membership change ------------------------------------------

func TestAddServerMigratesStateAndBindings(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	base := []string{"server-0", "server-1"}
	dir := cluster.NewDirectory(ec.Client, base)
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})

	// Three names that will move to the newcomer, one that stays.
	moving := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 2)
	moving = append(moving, clustertest.PickNames(dir.Ring(), grown, "server-1", "server-2", 1)...)
	staying := clustertest.PickNames(dir.Ring(), grown, "server-1", "server-1", 1)[0]

	seeds := map[string]int64{staying: 99}
	oldRefs := map[string]wire.Ref{}
	for i, name := range moving {
		seeds[name] = int64(10 * (i + 1))
		oldRefs[name] = ec.BindCounter(dir, name, seeds[name])
	}
	ec.BindCounter(dir, staying, seeds[staying])

	reb := cluster.NewRebalancer(dir)
	stats, err := reb.AddServer(ctx, "server-2")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != len(moving) {
		t.Errorf("moved %d names, want %d", stats.Moved, len(moving))
	}
	if stats.Epoch != 1 || dir.Epoch() != 1 {
		t.Errorf("epoch after scale-out = %d (dir %d), want 1", stats.Epoch, dir.Epoch())
	}

	// Every moved name resolves at the newcomer with its state intact, and
	// keeps working.
	for _, name := range moving {
		ref, err := dir.Lookup(ctx, name)
		if err != nil {
			t.Fatalf("lookup %s after scale-out: %v", name, err)
		}
		if ref.Endpoint != "server-2" {
			t.Errorf("%s resolves to %s, want server-2", name, ref.Endpoint)
		}
		res, err := ec.Client.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if got := res[0].(int64); got != seeds[name] {
			t.Errorf("%s lost state: got %d, want %d", name, got, seeds[name])
		}
	}
	// The staying name is untouched.
	if ref, err := dir.Lookup(ctx, staying); err != nil || ref.Endpoint != "server-1" {
		t.Errorf("staying name: ref %v err %v, want home server-1", ref, err)
	}

	// Stale direct references to moved objects fail with the typed
	// wrong-home error carrying the name and new epoch.
	var wrong *rmi.WrongHomeError
	name := moving[0]
	if _, err := ec.Client.Call(ctx, oldRefs[name], "Get"); !errors.As(err, &wrong) {
		t.Fatalf("stale ref error = %v, want *WrongHomeError", err)
	} else if wrong.Key != name || wrong.NewEpoch != 1 {
		t.Errorf("WrongHomeError = %+v, want key %s epoch 1", wrong, name)
	}

	// Every node learned the new membership.
	for i, s := range ec.Servers {
		snap := s.Node.RingState()
		if snap.Epoch != 1 || len(snap.Members) != 3 {
			t.Errorf("node %d ring state = %+v, want 3 members at epoch 1", i, snap)
		}
	}

	// Re-adding is a no-op.
	if again, err := reb.AddServer(ctx, "server-2"); err != nil || again.Moved != 0 {
		t.Errorf("second AddServer: %+v, %v; want no-op", again, err)
	}
}

func TestRemoveServerDrains(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1", "server-2"})

	seeds := map[string]int64{}
	var onVictim int
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("drain-%d", i)
		seeds[name] = int64(100 + i)
		ec.BindCounter(dir, name, seeds[name])
		if home, _ := dir.Home(name); home == "server-1" {
			onVictim++
		}
	}
	if onVictim == 0 {
		t.Fatal("test needs at least one name homed on the victim server")
	}

	reb := cluster.NewRebalancer(dir)
	stats, err := reb.RemoveServer(ctx, "server-1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != onVictim {
		t.Errorf("moved %d names, want %d", stats.Moved, onVictim)
	}
	if got := dir.Servers(); len(got) != 2 {
		t.Fatalf("servers after remove = %v", got)
	}
	for name, seed := range seeds {
		ref, err := dir.Lookup(ctx, name)
		if err != nil {
			t.Fatalf("lookup %s after drain: %v", name, err)
		}
		if ref.Endpoint == "server-1" {
			t.Errorf("%s still resolves to the removed server", name)
		}
		res, err := ec.Client.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if got := res[0].(int64); got != seed {
			t.Errorf("%s lost state: got %d, want %d", name, got, seed)
		}
	}

	// Removing the last member is refused.
	if _, err := reb.RemoveServer(ctx, "server-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := reb.RemoveServer(ctx, "server-2"); err == nil {
		t.Error("removing the last server succeeded, want error")
	}
}

// TestStaleDirectoryLookupRetries: a directory that did not witness the
// membership change follows the wrong-home error to the nodes, refreshes
// its ring, and retries the lookup at the new home — transparently.
func TestStaleDirectoryLookupRetries(t *testing.T) {
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

	ref, err := stale.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("stale lookup: %v", err)
	}
	if ref.Endpoint != "server-2" {
		t.Errorf("stale lookup resolved to %s, want server-2", ref.Endpoint)
	}
	if e := stale.Epoch(); e != 1 {
		t.Errorf("stale directory epoch after retry = %d, want 1", e)
	}
}

// --- epoch-aware flushes -------------------------------------------------------

// TestStaleFlushRetry is the acceptance scenario: a cluster batch recorded
// BEFORE a scale-out flushes AFTER it — the old home rejects the wave with
// wrong-home, the flush refreshes the ring, re-partitions the affected
// calls to the objects' new homes, and completes in a single retry.
func TestStaleFlushRetry(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})

	moving := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 2)
	staying := clustertest.PickNames(dir.Ring(), grown, "server-1", "server-1", 1)[0]
	ec.BindCounter(dir, moving[0], 10)
	ec.BindCounter(dir, moving[1], 20)
	ec.BindCounter(dir, staying, 30)

	// Record before the membership change: the roots resolve to the OLD
	// homes.
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p0, err := b.RootNamed(ctx, moving[0])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.RootNamed(ctx, moving[1])
	if err != nil {
		t.Fatal(err)
	}
	ps, err := b.RootNamed(ctx, staying)
	if err != nil {
		t.Fatal(err)
	}
	f0 := p0.Call("Add", int64(5))
	f1 := p1.Call("Get")
	fs := ps.Call("Add", int64(1))

	// The cluster grows while the batch is in flight.
	stats, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != 2 {
		t.Fatalf("moved %d names, want 2", stats.Moved)
	}

	if err := b.Flush(ctx); err != nil {
		t.Fatalf("stale flush did not recover: %v", err)
	}
	if v, err := cluster.Typed[int64](f0).Get(); err != nil || v != 15 {
		t.Errorf("moved counter add = %v, %v; want 15", v, err)
	}
	if v, err := cluster.Typed[int64](f1).Get(); err != nil || v != 20 {
		t.Errorf("moved counter get = %v, %v; want 20", v, err)
	}
	if v, err := cluster.Typed[int64](fs).Get(); err != nil || v != 31 {
		t.Errorf("staying counter add = %v, %v; want 31", v, err)
	}
	// One regular wave plus exactly one retry wave.
	if w := b.Waves(); w != 2 {
		t.Errorf("flush took %d waves, want 2 (wave + single retry)", w)
	}

	// The retried calls really executed at the new home: read back there.
	ref, err := dir.Lookup(ctx, moving[0])
	if err != nil {
		t.Fatal(err)
	}
	if ref.Endpoint != "server-2" {
		t.Fatalf("%s not homed on server-2 after flush", moving[0])
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 15 {
		t.Errorf("counter at new home = %d, want 15", got)
	}
}

// TestStaleRetryMergesPerNewHome: two named roots on two DIFFERENT old homes
// both re-home to the newcomer. The retry regroups the calls of every
// rejected destination together, so the newcomer sees one sub-batch — one
// round trip per destination per wave holds for the retry wave too.
func TestStaleRetryMergesPerNewHome(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	from0 := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	from1 := clustertest.PickNames(dir.Ring(), grown, "server-1", "server-2", 1)[0]
	ec.BindCounter(dir, from0, 10)
	ec.BindCounter(dir, from1, 20)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p0, err := b.RootNamed(ctx, from0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := b.RootNamed(ctx, from1)
	if err != nil {
		t.Fatal(err)
	}
	f0 := p0.Call("Add", int64(1))
	f1 := p1.Call("Add", int64(2))

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}
	batches := func() int64 {
		if h := ec.Server("server-2").Stats.Snapshot().Hist("core.batch_calls"); h != nil {
			return h.Count
		}
		return 0
	}
	before := batches()

	if err := b.Flush(ctx); err != nil {
		t.Fatalf("stale flush did not recover: %v", err)
	}
	if v, err := cluster.Typed[int64](f0).Get(); err != nil || v != 11 {
		t.Errorf("root from server-0 = %v, %v; want 11", v, err)
	}
	if v, err := cluster.Typed[int64](f1).Get(); err != nil || v != 22 {
		t.Errorf("root from server-1 = %v, %v; want 22", v, err)
	}
	if w := b.Waves(); w != 2 {
		t.Errorf("flush took %d waves, want 2 (wave + single retry)", w)
	}
	if got := batches() - before; got != 1 {
		t.Errorf("newcomer executed %d InvokeBatch calls for the retry, want 1 (one merged sub-batch)", got)
	}
}

// Without a directory the batch has no way to re-route, so the wrong-home
// rejection surfaces as a per-destination flush failure.
func TestStaleFlushWithoutDirectoryFails(t *testing.T) {
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
	f := b.Root(ref).Call("Get")

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	err = b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	var wrong *rmi.WrongHomeError
	if !errors.As(err, &wrong) {
		t.Fatalf("flush error %v does not wrap *WrongHomeError", err)
	}
	if wrong.Key != name {
		t.Errorf("wrong-home key = %q, want %q", wrong.Key, name)
	}
	if _, err := f.Get(); err == nil {
		t.Error("future on stale destination settled, want error")
	}
}

// --- session close on canceled context ----------------------------------------

// boom is a remote object whose method cancels the flush's context before
// failing, simulating a pipeline abort mid-flush.
type boom struct {
	rmi.RemoteBase
	fire func()
}

func (b *boom) Boom() (int64, error) {
	// Let the other stage-0 destinations finish their waves first, so the
	// cancellation deterministically lands between stage 0 and stage 1.
	time.Sleep(100 * time.Millisecond)
	if b.fire != nil {
		b.fire()
	}
	return 0, errors.New("boom")
}

// TestSessionCloseSurvivesCancel is the regression test for the chained
// session leak: when every stage-1 call of a destination settles locally
// (its dependency failed) and the flush's context is already canceled, the
// pure session close must still reach the server — otherwise the session
// leaks until its TTL.
func TestSessionCloseSurvivesCancel(t *testing.T) {
	tc := clustertest.New(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	boomRef, err := tc.Servers[1].Peer.Export(&boom{fire: cancel}, "cluster.Boom")
	if err != nil {
		t.Fatal(err)
	}

	b := cluster.New(tc.Client)
	a := b.Root(tc.Servers[0].Ref)
	bp := b.Root(boomRef)
	a.Call("Add", int64(1)) // server-0, stage 0: opens the chained session
	g := bp.Call("Boom")    // server-1, stage 0: cancels ctx, then fails
	dep := a.Call("Add", g) // server-0, stage 1: settles locally (dep failed)
	err = b.Flush(ctx)      // stage 1 on server-0 is a pure session close

	// The dependent call never ran.
	if _, derr := dep.Get(); derr == nil {
		t.Error("dependent future settled, want the boom/cancel error")
	}
	// server-0 must not appear among the failures: its close succeeded even
	// though ctx was canceled by then.
	var fe *cluster.FlushError
	if errors.As(err, &fe) {
		for _, f := range fe.Failures {
			if f.Endpoint == "server-0" {
				t.Errorf("server-0 failed (%v): the session close used the canceled context", f.Err)
			}
		}
	}
	// The regression: no chained session may leak on server-0.
	if n := tc.Servers[0].Exec.NumSessions(); n != 0 {
		t.Errorf("server-0 leaked %d chained sessions after canceled flush", n)
	}
}

// anchored is a non-movable remote object: no factory is registered for its
// interface, so re-sharding moves only its binding while the object stays
// on the server that exported it.
type anchored struct {
	rmi.RemoteBase
	v int64
}

func (a *anchored) Get() int64 { return a.v }

// TestAddServerNonMovableKeepsObjectCallable: migrating a non-movable name
// must not tombstone its export — the re-bound reference still points at
// the original server, and calls through it keep working.
func TestAddServerNonMovableKeepsObjectCallable(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	base := []string{"server-0", "server-1"}
	dir := cluster.NewDirectory(ec.Client, base)
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]

	ref, err := ec.Server("server-0").Peer.Export(&anchored{v: 41}, "cluster.Anchored")
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Bind(ctx, name, ref); err != nil {
		t.Fatal(err)
	}

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	// The binding moved to the newcomer but still points at server-0...
	got, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatalf("lookup after scale-out: %v", err)
	}
	if got != ref {
		t.Errorf("non-movable binding re-resolved to %+v, want the original %+v", got, ref)
	}
	// ...and the object is still callable, both via the fresh lookup and
	// via a stale direct reference.
	res, err := ec.Client.Call(ctx, got, "Get")
	if err != nil {
		t.Fatalf("call after scale-out: %v", err)
	}
	if res[0].(int64) != 41 {
		t.Errorf("value = %v, want 41", res[0])
	}
	if _, err := ec.Client.Call(ctx, ref, "Get"); err != nil {
		t.Errorf("stale direct ref to non-movable object failed: %v", err)
	}
}

// TestAddServerRetryCompletesPartialMigration: a prior AddServer that grew
// the ring but died before migrating (simulated by mutating the ring
// directly) is completed by calling AddServer again — it must not
// short-circuit on existing membership.
func TestAddServerRetryCompletesPartialMigration(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	ec.BindCounter(dir, name, 77)

	// Simulate the failed first attempt: membership changed, nothing moved.
	dir.Ring().Add("server-2")

	stats, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != 1 {
		t.Fatalf("retry moved %d names, want 1", stats.Moved)
	}
	ref, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Endpoint != "server-2" {
		t.Errorf("%s resolves to %s after retry, want server-2", name, ref.Endpoint)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 77 {
		t.Errorf("value after retried migration = %v, want 77", res[0])
	}
}

// TestRemoveServerStaleLookupRetries: the membership broadcast must land
// before the drain's tombstones, so a directory that routes a drained name
// to the removed server recovers via refresh + retry.
func TestRemoveServerStaleLookupRetries(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	all := []string{"server-0", "server-1", "server-2"}
	admin := cluster.NewDirectory(ec.Client, all)
	stale := cluster.NewDirectory(ec.Client, all)

	// A name homed on the victim.
	var victimName string
	for i := 0; ; i++ {
		n := fmt.Sprintf("vic-%d", i)
		if admin.Ring().Route(n) == "server-2" {
			victimName = n
			break
		}
	}
	ec.BindCounter(admin, victimName, 13)

	if _, err := cluster.NewRebalancer(admin).RemoveServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	// The stale directory still routes to the removed server; the forward
	// there must carry it to the survivors.
	ref, err := stale.Lookup(ctx, victimName)
	if err != nil {
		t.Fatalf("stale lookup after remove: %v", err)
	}
	if ref.Endpoint == "server-2" {
		t.Errorf("stale lookup still resolves to the removed server")
	}
	if e := stale.Epoch(); e != 1 {
		t.Errorf("stale directory epoch after retry = %d, want 1", e)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int64) != 13 {
		t.Errorf("value after drain = %v, want 13", res[0])
	}
}

// TestAddServerRetryAfterPartialArrive: the migration is copy-then-
// tombstone, so a run that died between the arrive and depart trips leaves
// the name live at BOTH homes. The retry must depart the old copy without
// overwriting the adopted one — even after routed traffic has mutated it.
func TestAddServerRetryAfterPartialArrive(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	oldRef := ec.BindCounter(dir, name, 5)

	// Simulate the partial first run: ring grown, snapshot taken, copy
	// adopted at the newcomer — but the depart trip never landed.
	dir.Ring().Add("server-2")
	state := &clustertest.CounterState{N: 5}
	if err := ec.Servers[2].Node.Arrive(name, clustertest.CounterIface, true, state, wire.Ref{}); err != nil {
		t.Fatal(err)
	}
	// New-ring traffic mutates the adopted copy before the retry.
	adopted, err := registry.Lookup(ctx, ec.Client, "server-2", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.Client.Call(ctx, adopted, "Add", int64(10)); err != nil {
		t.Fatal(err)
	}

	stats, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != 1 {
		t.Fatalf("retry moved %d names, want 1 (the leftover on server-0)", stats.Moved)
	}

	// The adopted, mutated copy survived — the retry did not overwrite it
	// with the old home's stale state.
	ref, err := dir.Lookup(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Endpoint != "server-2" {
		t.Fatalf("%s resolves to %s, want server-2", name, ref.Endpoint)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int64); got != 15 {
		t.Errorf("adopted copy = %d after retry, want 15 (5 restored + 10 routed write)", got)
	}
	// The old copy is tombstoned now.
	var wrong *rmi.WrongHomeError
	if _, err := ec.Client.Call(ctx, oldRef, "Get"); !errors.As(err, &wrong) {
		t.Errorf("old copy error = %v, want *WrongHomeError", err)
	}
}

// TestStaleFlushRetrySplitDependency: when re-sharding moves one of two
// co-located roots, cross-root dataflow recorded between them can no longer
// replay on a single server. The retry must settle exactly those calls with
// a clear error carrying the wrong-home cause — and still execute the rest
// of the sub-batch at the new homes.
func TestStaleFlushRetrySplitDependency(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})

	// Two names on server-0; the first moves to the newcomer, the second
	// stays.
	movingName := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	stayingName := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-0", 1)[0]
	ec.BindCounter(dir, movingName, 10)
	ec.BindCounter(dir, stayingName, 100)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	pm, err := b.RootNamed(ctx, movingName)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := b.RootNamed(ctx, stayingName)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-root dataflow within what is, at record time, one server: the
	// staying counter absorbs the moving one's result object.
	self := pm.CallBatch("Self")
	absorbed := ps.Call("Absorb", self)
	independent := ps.Call("Add", int64(1))

	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The split call settled with a clear, typed-cause error.
	_, aerr := absorbed.Get()
	if aerr == nil {
		t.Fatal("split-dependency call settled, want error")
	}
	var wrong *rmi.WrongHomeError
	if !errors.As(aerr, &wrong) {
		t.Errorf("split-dependency error %v does not carry the wrong-home cause", aerr)
	}
	// The independent call on the same (staying) root executed at its home.
	if v, err := cluster.Typed[int64](independent).Get(); err != nil || v != 101 {
		t.Errorf("independent call = %v, %v; want 101", v, err)
	}
	// The moved root's producing call replayed at the new home.
	if err := self.Ok(); err != nil {
		t.Errorf("moved root's producing call failed: %v", err)
	}
}

// TestFailedDestinationSessionReaped: a destination that fails mid-pipeline
// with a chained session open drops out of the flush, so no later wave will
// close its session — the executor must reap it in the background instead
// of leaking it until the server TTL.
func TestFailedDestinationSessionReaped(t *testing.T) {
	tc := clustertest.New(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	boomRef, err := tc.Servers[1].Peer.Export(&boom{fire: cancel}, "cluster.Boom2")
	if err != nil {
		t.Fatal(err)
	}

	b := cluster.New(tc.Client)
	a := b.Root(tc.Servers[0].Ref)
	bp := b.Root(boomRef)
	a.Call("Add", int64(1))                               // server-0, stage 0: opens the chained session
	bp.Call("Boom")                                       // server-1, stage 0: cancels ctx after a delay
	f0 := b.Root(tc.Servers[2].Ref).Call("Add", int64(1)) // server-2, stage 0: settles before the cancel
	a.Call("Add", f0)                                     // server-0, stage 1: REAL pending call under canceled ctx

	err = b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError (server-0's stage-1 flush ran under a canceled context)", err, err)
	}
	if !slices.ContainsFunc(fe.Failures, func(f cluster.ServerError) bool { return f.Endpoint == "server-0" && f.Stage == 1 }) {
		t.Fatalf("failures = %+v, want server-0 failing in stage 1, its session still open", fe.Failures)
	}

	// The orphaned session on server-0 is reaped in the background.
	deadline := time.Now().Add(2 * time.Second)
	for tc.Servers[0].Exec.NumSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server-0 still holds %d chained sessions after failed flush", tc.Servers[0].Exec.NumSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
