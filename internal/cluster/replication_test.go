package cluster_test

// End-to-end tests for shard replication and epoch-bump failover: owner
// lists, batch-log shipping to followers, promotion of the best replica
// after a primary dies with its state, and the headline durability claim —
// an acked flush survives the primary's crash, and an in-flight flush
// recorded against the dead primary recovers with exactly one retry wave.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
)

// TestRingOwners pins the owner-list contract: owners[0] is Route(key), the
// list holds min(R, size) distinct members, and the epoch is read atomically
// with the list.
func TestRingOwners(t *testing.T) {
	eps := []string{"server-0", "server-1", "server-2"}
	ring := cluster.NewRing(eps, cluster.WithReplication(2))
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("obj-%d", i)
		owners, epoch := ring.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("Owners(%s) = %v, want 2 owners", key, owners)
		}
		if owners[0] != ring.Route(key) {
			t.Errorf("Owners(%s)[0] = %s, want Route's pick %s", key, owners[0], ring.Route(key))
		}
		if owners[0] == owners[1] {
			t.Errorf("Owners(%s) = %v, owners not distinct", key, owners)
		}
		if epoch != ring.Epoch() {
			t.Errorf("Owners(%s) epoch = %d, want %d", key, epoch, ring.Epoch())
		}
	}

	// R larger than the membership: capped, never padded.
	wide := cluster.NewRing([]string{"a", "b"}, cluster.WithReplication(5))
	if owners, _ := wide.Owners("k"); len(owners) != 2 {
		t.Errorf("R=5 over 2 members: owners = %v, want both members", owners)
	}
	// Default ring: replication off, single owner.
	single := cluster.NewRing(eps)
	if owners, _ := single.Owners("k"); len(owners) != 1 {
		t.Errorf("default ring owners = %v, want exactly the home", owners)
	}
}

// placedDirectory builds a replicated directory over the cluster and runs
// the idempotent member re-add that seeds every bound name's followers
// (replica placement piggybacks on the rebalance flow).
func placedDirectory(t testing.TB, ec *clustertest.Cluster, seeds map[string]int64) *cluster.Directory {
	t.Helper()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	for name, seed := range seeds {
		ec.BindCounter(dir, name, seed)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(context.Background(), ec.Endpoints()[0]); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	return dir
}

// TestReplicatedFlushShipsToFollower: a flush against a replicated directory
// lands on the primary AND its follower — the follower's shard log grows, a
// seeded shadow applies the record, and the client observed one quorum wait.
func TestReplicatedFlushShipsToFollower(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})

	owners, _ := dir.Owners("obj-0")
	primary, follower := owners[0], owners[1]

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("replicated flush: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 105 {
		t.Fatalf("Add = %v, %v; want 105", v, err)
	}

	si := ec.Server(follower).Replica.ShardInfo(primary)
	var found bool
	for _, ni := range si.Names {
		if ni.Name == "obj-0" {
			found = true
			if !ni.Seeded {
				t.Error("follower shadow not seeded; placement did not run")
			}
			if ni.Applied != 1 {
				t.Errorf("follower applied %d records, want 1", ni.Applied)
			}
		}
	}
	if !found {
		t.Fatalf("follower %s holds no shadow of obj-0 (shard info %+v)", follower, si)
	}
	if got := ec.Server(follower).Stats.Snapshot().Counter("cluster.replica_appends"); got != 1 {
		t.Errorf("follower cluster.replica_appends = %d, want 1", got)
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits"); got != 1 {
		t.Errorf("client cluster.quorum_waits = %d, want 1", got)
	}
}

// TestFailoverRecoversAckedFlush: the primary crashes with its state after
// acking a replicated flush; FailoverServer promotes the follower's shadow
// and the acked write is still there. A second failover call is a converged
// no-op.
func TestFailoverRecoversAckedFlush(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := dir.Owners("obj-0")
	primary := owners[0]

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(7))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("acked flush: %v", err)
	}
	if v, _ := cluster.Typed[int64](f).Get(); v != 107 {
		t.Fatalf("acked flush value = %d, want 107", v)
	}

	ec.CrashServer(primary)
	stats, err := cluster.NewRebalancer(dir).FailoverServer(ctx, primary)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if stats.Promoted < 1 {
		t.Errorf("failover promoted %d names, want at least obj-0", stats.Promoted)
	}
	if dir.Ring().Contains(primary) {
		t.Error("dead primary still in the ring after failover")
	}

	ref, err := dir.Lookup(ctx, "obj-0")
	if err != nil {
		t.Fatalf("lookup after failover: %v", err)
	}
	if ref.Endpoint == primary {
		t.Fatalf("obj-0 still resolves to the dead primary %s", primary)
	}
	res, err := ec.Client.Call(ctx, ref, "Get")
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if got := res[0].(int64); got != 107 {
		t.Errorf("recovered state = %d, want 107 (the acked flush was lost)", got)
	}
	checkConverged(t, ec, dir, map[string]int64{"obj-0": 107})

	again, err := cluster.NewRebalancer(dir).FailoverServer(ctx, primary)
	if err != nil {
		t.Fatalf("repeated failover: %v", err)
	}
	if again.Promoted != 0 || again.Moved != 0 {
		t.Errorf("repeated failover = %+v, want converged no-op", again)
	}
}

// TestInFlightFlushSurvivesPrimaryCrash is the acceptance criterion pinned
// deterministically: a client records a flush against the primary, the
// primary dies with its state and is failed over, and the flush — whose
// first wave cannot even dial the dead endpoint — recovers at the promoted
// home with EXACTLY one extra retry wave. The earlier acked write is part of
// the recovered state.
func TestInFlightFlushSurvivesPrimaryCrash(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	admin := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, _ := admin.Owners("obj-0")
	primary := owners[0]

	// An acked write before the crash — it must be in the recovered state.
	wb := cluster.New(ec.Client, cluster.WithDirectory(admin))
	wp, err := wb.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	wp.Call("Add", int64(7))
	if err := wb.Flush(ctx); err != nil {
		t.Fatalf("pre-crash acked flush: %v", err)
	}

	// A second client with its own (soon stale) shard map records in-flight
	// work against the primary.
	stale := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	p, err := b.RootNamed(ctx, "obj-0")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(5))

	ec.CrashServer(primary)
	if _, err := cluster.NewRebalancer(admin).FailoverServer(ctx, primary); err != nil {
		t.Fatalf("failover: %v", err)
	}

	// The flush's first wave dials the dead primary (refused), classifying
	// as retry-safe; the single stale retry re-routes the root on the
	// refreshed ring and lands, by name, at the promoted home.
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("in-flight flush did not survive the crash: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 112 {
		t.Fatalf("in-flight call = %v, %v; want 112 (100 seed + 7 acked + 5 in-flight)", v, err)
	}
	if !b.StaleRetried() {
		t.Error("StaleRetried() = false; the flush did not take the retry path")
	}
	if b.Waves() != 2 {
		t.Errorf("flush took %d waves, want exactly 2 (the dead wave + one retry)", b.Waves())
	}

	// The retried wave replicated like any other: the promoted home's new
	// follower holds the record under the bumped epoch.
	newOwners, _ := stale.Owners("obj-0")
	if len(newOwners) < 2 {
		t.Fatalf("post-failover owners = %v, want primary + follower", newOwners)
	}
	si := ec.Server(newOwners[1]).Replica.ShardInfo(newOwners[0])
	var applied int64
	for _, ni := range si.Names {
		if ni.Name == "obj-0" {
			applied = ni.Applied
		}
	}
	if applied < 1 {
		t.Errorf("retried wave did not replicate to the new follower %s (shard info %+v)", newOwners[1], si)
	}
	checkConverged(t, ec, admin, map[string]int64{"obj-0": 112})
}

// shippedPayload flushes one name-addressed Add(delta) on name at its primary
// and returns the payload the primary would ship for it: its executor's ship
// hook is swapped, for this one flush, for one that keeps the payload instead
// of sending it.
func shippedPayload(t testing.TB, ec *clustertest.Cluster, primary, name string, delta int64) any {
	t.Helper()
	s := ec.Server(primary)
	var payload any
	s.Exec.SetShipHook(func(*core.Wave) (core.ShipFunc, error) {
		return func(_ context.Context, p any) (time.Duration, error) { payload = p; return 0, nil }, nil
	})
	defer s.Exec.SetShipHook(s.Replica.ShipHook())
	cb := core.NewNamed(ec.Client, primary, name)
	cb.Ship(&core.ShipDirective{})
	cb.Root().Call("Add", delta)
	if err := cb.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	return payload
}

// appendTo ships recs to follower in one Append call, the way a wave does,
// and returns the answer's per-record slots.
func appendTo(t testing.TB, ec *clustertest.Cluster, follower string, recs ...*cluster.ReplRecord) []error {
	t.Helper()
	res, err := ec.Client.Call(context.Background(), cluster.ReplicaRef(follower), "Append", recs)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	slots, ok := res[0].([]any)
	if !ok || len(slots) != len(recs) {
		t.Fatalf("append of %d records answered %v, want one slot per record", len(recs), res[0])
	}
	errs := make([]error, len(slots))
	for i, s := range slots {
		if s != nil {
			errs[i] = s.(error)
		}
	}
	return errs
}

// TestReplayIgnoresRootNames: the payload of a name-addressed wave carries
// the names its primary resolved. A follower replays it against its shadows
// and nothing else — even when its own registry binds the same name to a
// live object, as it does on a follower promoted since.
func TestReplayIgnoresRootNames(t *testing.T) {
	ec := clustertest.New(t, 3)
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, epoch := dir.Owners("obj-0")
	primary, follower := owners[0], ec.Server(owners[1])

	impostor := clustertest.NewCounter(1000)
	ref, err := follower.Peer.Export(impostor, clustertest.CounterIface)
	if err != nil {
		t.Fatal(err)
	}
	follower.Reg.Rebind("obj-0", ref)

	rec := &cluster.ReplRecord{
		Primary: primary, Epoch: epoch,
		Names: []string{"obj-0"}, Ifaces: []string{clustertest.CounterIface},
		Payload: shippedPayload(t, ec, primary, "obj-0", 5),
	}
	if errs := appendTo(t, ec, follower.Endpoint, rec); errs[0] != nil {
		t.Fatalf("append: %v", errs[0])
	}
	if got := impostor.Get(); got != 1000 {
		t.Errorf("the object the follower's registry binds obj-0 to = %d, want the untouched 1000", got)
	}
	shadow, ok := follower.Replica.Shadow(primary, "obj-0")
	if !ok {
		t.Fatal("no readable shadow of obj-0")
	}
	if got := shadow.(*clustertest.Counter).Get(); got != 105 {
		t.Errorf("shadow = %d, want 105: the seeded 100 plus the replayed 5", got)
	}
}

// TestAppendRejectsRootCountMismatch: a record that names two roots for a
// payload recorded over one is refused before anything replays, and leaves
// no shadow behind: the follower exports no more objects, and its survey
// reports no never-replayed obj-1 an election could promote.
func TestAppendRejectsRootCountMismatch(t *testing.T) {
	ec := clustertest.New(t, 3)
	dir := placedDirectory(t, ec, map[string]int64{"obj-0": 100})
	owners, epoch := dir.Owners("obj-0")
	primary, follower := owners[0], ec.Server(owners[1])

	rec := &cluster.ReplRecord{
		Primary: primary, Epoch: epoch,
		Names:   []string{"obj-0", "obj-1"},
		Ifaces:  []string{clustertest.CounterIface, clustertest.CounterIface},
		Payload: shippedPayload(t, ec, primary, "obj-0", 5),
	}
	appends := func() int64 { return follower.Stats.Snapshot().Counter("cluster.replica_appends") }
	before, exports, survey := appends(), follower.Peer.NumExported(), follower.Replica.Survey("")
	if errs := appendTo(t, ec, follower.Endpoint, rec); errs[0] == nil {
		t.Fatal("append of a two-name record over a one-root payload succeeded")
	}
	if got := appends() - before; got != 0 {
		t.Errorf("follower applied %d records, want none", got)
	}
	if got := follower.Peer.NumExported(); got != exports {
		t.Errorf("follower exports %d objects after the refused record, want the %d before it", got, exports)
	}
	if got := follower.Replica.Survey(""); !reflect.DeepEqual(got, survey) {
		deref := func(shards []*cluster.ShardInfo) (out []cluster.ShardInfo) {
			for _, si := range shards {
				out = append(out, *si)
			}
			return out
		}
		t.Errorf("follower's survey after the refused record = %+v, want %+v", deref(got), deref(survey))
	}
	shadow, ok := follower.Replica.Shadow(primary, "obj-0")
	if !ok {
		t.Fatal("no readable shadow of obj-0")
	}
	if c := shadow.(*clustertest.Counter); c.Get() != 100 || len(c.History()) != 0 {
		t.Errorf("shadow = %d with history %v after the refused record, want the seeded 100 and nothing replayed", c.Get(), c.History())
	}
}
