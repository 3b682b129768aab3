package cluster_test

// The cost and failure model of wave-level log shipping, pinned on a 4-server
// R=3 cluster: a replicated wave costs one call per primary plus one per
// distinct FOLLOWER SERVER — not one per (destination, follower) pair — while
// quorum is still judged destination by destination, a quorum-early ack still
// leaves the straggler behind, and a chained pipeline still replays on its
// followers in wave order.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
)

// shipCluster is a 4-server cluster behind an R=3 directory.
func shipCluster(t *testing.T) (*clustertest.Cluster, *cluster.Directory) {
	t.Helper()
	ec := clustertest.New(t, 4)
	return ec, cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
}

// nameWhere returns the first name (per prefix) homed at home whose owner list
// satisfies ok.
func nameWhere(t *testing.T, dir *cluster.Directory, prefix, home string, ok func(owners []string) bool) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if owners, _ := dir.Owners(name); owners[0] == home && ok(owners) {
			return name
		}
	}
	t.Fatalf("no name homed at %s with the wanted owners", home)
	return ""
}

func anyOwners([]string) bool { return true }

// place binds a zero counter under every name and seeds its followers.
func place(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, names ...string) {
	t.Helper()
	for _, name := range names {
		ec.BindCounter(dir, name, 0)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(context.Background(), ec.Endpoints()[0]); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
}

// followersOf returns, for the destinations names route to, each
// destination's distinct followers (the union over its names), and the
// distinct followers of the whole set.
func followersOf(dir *cluster.Directory, names ...string) (perDest map[string][]string, distinct []string) {
	perDest = map[string][]string{}
	for _, name := range names {
		owners, _ := dir.Owners(name)
		for _, ep := range owners[1:] {
			if !slices.Contains(perDest[owners[0]], ep) {
				perDest[owners[0]] = append(perDest[owners[0]], ep)
			}
			if !slices.Contains(distinct, ep) {
				distinct = append(distinct, ep)
			}
		}
	}
	return perDest, distinct
}

// replicaCounters sums a counter over every server.
func replicaCounters(ec *clustertest.Cluster, name string) (total int64) {
	for _, s := range ec.Servers {
		total += s.Stats.Snapshot().Counter(name)
	}
	return total
}

// lagCount is how many times the client observed cluster.replication_lag.
func lagCount(ec *clustertest.Cluster) int64 {
	if h := ec.ClientStats.Snapshot().Hist("cluster.replication_lag"); h != nil {
		return int64(h.Count)
	}
	return 0
}

// shadowHistory reads the applied-delta log of follower's shadow of name.
func shadowHistory(t *testing.T, ec *clustertest.Cluster, follower, primary, name string) []int64 {
	t.Helper()
	s := ec.Server(follower)
	ids, err := s.Replica.ShadowIDs(primary, []string{name}, 0)
	if err != nil || ids[0] == 0 {
		t.Fatalf("%s holds no readable shadow of %s: %v, %v", follower, name, ids, err)
	}
	shadow, _ := s.Peer.LocalObject(ids[0])
	return shadow.(*clustertest.Counter).History()
}

// TestReplicatedWaveCostsOneCallPerFollower: brmibench's replicated_write
// shape — 4 named roots over 3 homes, one wave — costs D primary flushes plus
// ONE Append per distinct follower server. The per-destination and per-record
// counters keep their meaning: one quorum wait per destination, one applied
// record per (destination, follower) pair.
func TestReplicatedWaveCostsOneCallPerFollower(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	names := []string{
		nameWhere(t, dir, "a", "server-0", anyOwners),
		nameWhere(t, dir, "b", "server-0", anyOwners),
		nameWhere(t, dir, "c", "server-1", anyOwners),
		nameWhere(t, dir, "d", "server-2", anyOwners),
	}
	place(t, ec, dir, names...)
	perDest, distinct := followersOf(dir, names...)
	pairs := 0
	for _, f := range perDest {
		pairs += len(f)
	}
	if len(perDest) != 3 || pairs <= len(distinct) {
		t.Fatalf("setup: %d destinations, %d (destination, follower) pairs over %d distinct followers; the test needs shared followers",
			len(perDest), pairs, len(distinct))
	}

	calls := ec.Client.CallCount()
	waits := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits")
	lags := lagCount(ec)
	appends, ships := replicaCounters(ec, "cluster.replica_appends"), replicaCounters(ec, "cluster.replica_ships")

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	futs := make([]*cluster.Future, len(names))
	for i, name := range names {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = p.Call("Add", int64(i+1))
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if v, err := cluster.Typed[int64](f).Get(); err != nil || v != int64(i+1) {
			t.Errorf("Add on %s = %v, %v; want %d", names[i], v, err, i+1)
		}
	}

	if got, want := ec.Client.CallCount()-calls, uint64(len(perDest)+len(distinct)); got != want {
		t.Errorf("replicated wave cost %d remote calls, want %d: %d primaries + %d distinct followers (per pair it would be %d)",
			got, want, len(perDest), len(distinct), len(perDest)+pairs)
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits") - waits; got != int64(len(perDest)) {
		t.Errorf("cluster.quorum_waits moved by %d, want one per destination = %d", got, len(perDest))
	}
	if got := lagCount(ec) - lags; got != 1 {
		t.Errorf("cluster.replication_lag observed %d times, want once per wave", got)
	}
	if got := replicaCounters(ec, "cluster.replica_appends") - appends; got != int64(pairs) {
		t.Errorf("followers applied %d records, want one per (destination, follower) pair = %d", got, pairs)
	}
	if got := replicaCounters(ec, "cluster.replica_ships") - ships; got != int64(len(distinct)) {
		t.Errorf("followers served %d Append calls, want one per distinct follower = %d", got, len(distinct))
	}
	for i, name := range names {
		owners, _ := dir.Owners(name)
		for _, f := range owners[1:] {
			if got := shadowHistory(t, ec, f, owners[0], name); !reflect.DeepEqual(got, []int64{int64(i + 1)}) {
				t.Errorf("%s's shadow of %s replayed %v, want [%d]", f, name, got, i+1)
			}
		}
	}
}

// TestPartitionedFollowerFailsOnlyItsDestinations: under W=all, a follower
// the client cannot reach fails exactly the destinations that list it as an
// owner — each with a *QuorumError naming it, none with a stale retry — and
// the destinations it does not follow settle with their values, although
// their records left in the same wave.
func TestPartitionedFollowerFailsOnlyItsDestinations(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const down = "server-3"
	follows := func(owners []string) bool { return slices.Contains(owners, down) }
	spared := nameWhere(t, dir, "spared", "server-0", func(o []string) bool { return !follows(o) })
	hit := []string{nameWhere(t, dir, "hit", "server-1", follows), nameWhere(t, dir, "hit", "server-2", follows)}
	place(t, ec, dir, append([]string{spared}, hit...)...)

	ec.Network.Partition(clustertest.ClientHost, down)
	defer ec.Network.HealAll()

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	futs := map[string]*cluster.Future{}
	for _, name := range append([]string{spared}, hit...) {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		futs[name] = p.Call("Add", int64(7))
	}
	err := b.Flush(ctx)
	var fe *cluster.FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("flush error = %T %v, want *FlushError", err, err)
	}
	var failed []string
	for _, f := range fe.Failures {
		failed = append(failed, f.Endpoint)
		var qe *cluster.QuorumError
		if !errors.As(f.Err, &qe) {
			t.Errorf("%s failed with %T %v, want *QuorumError", f.Endpoint, f.Err, f.Err)
			continue
		}
		if qe.Acked != 2 || qe.Required != 3 || !strings.Contains(qe.Err.Error(), down+": ") {
			t.Errorf("%s: quorum miss %v, want 2 of 3 acked, blaming %s", f.Endpoint, qe, down)
		}
	}
	slices.Sort(failed)
	if want := []string{"server-1", "server-2"}; !slices.Equal(failed, want) {
		t.Errorf("failed destinations = %v, want exactly the ones %s follows: %v", failed, down, want)
	}
	if fe.Retries != 0 || b.StaleRetried() {
		t.Errorf("a quorum miss spent the stale retry (Retries=%d)", fe.Retries)
	}
	if v, err := cluster.Typed[int64](futs[spared]).Get(); err != nil || v != 7 {
		t.Errorf("Add on %s = %v, %v; want 7: %s does not follow it", spared, v, err, down)
	}
	for _, name := range hit {
		var qe *cluster.QuorumError
		if _, err := futs[name].Get(); !errors.As(err, &qe) || qe.Name != name {
			t.Errorf("Add on %s settled with %v, want the quorum miss for that name", name, err)
		}
	}
}

// TestQuorumEarlyAckLeavesSlowFollowerBehind: under W=2 of R=3 the flush acks
// as soon as every destination's other follower holds its record — before
// the slow follower, which is in every destination's owner list, answers. The
// slow shipment finishes in the background and carries every destination's
// record in its one call.
func TestQuorumEarlyAckLeavesSlowFollowerBehind(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const slow = "server-3"
	const delay = 2 * time.Second
	follows := func(owners []string) bool { return slices.Contains(owners, slow) }
	names := []string{nameWhere(t, dir, "q", "server-0", follows), nameWhere(t, dir, "q", "server-1", follows)}
	place(t, ec, dir, names...)
	before := ec.Server(slow).Stats.Snapshot()

	// The slow follower applies its records promptly; its ANSWER crawls. Once
	// the test has seen what it came for, the straggler is cut loose rather
	// than waited out (the late answer stays queued on the link, so teardown
	// must reset the connection abortively — before clustertest's own cleanup).
	ec.Network.SetLinkFaults(slow, clustertest.ClientHost, netsim.LinkFaults{ExtraLatency: delay})
	t.Cleanup(func() { ec.Network.KillConns(slow) })
	b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithQuorum(2))
	for _, name := range names {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		p.Call("Add", int64(1))
	}
	start := time.Now()
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("W=2 flush: %v", err)
	}
	if took := time.Since(start); took >= delay {
		t.Errorf("W=2 flush took %v: it waited for the follower whose answers take %v", took, delay)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		s := ec.Server(slow).Stats.Snapshot()
		appends := s.Counter("cluster.replica_appends") - before.Counter("cluster.replica_appends")
		ships := s.Counter("cluster.replica_ships") - before.Counter("cluster.replica_ships")
		if appends == 2 && ships == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow follower applied %d records in %d Append calls, want both destinations' records in one", appends, ships)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChainedReplicatedStagesShipInWaveOrder: a two-stage pipeline over
// replicated roots — stage 1's call on root A consumes a stage-0 result from
// root B's server — ships one round per stage, and A's followers replay its
// two waves in wave order through one chained shadow session.
func TestChainedReplicatedStagesShipInWaveOrder(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	bb := nameWhere(t, dir, "b", "server-1", anyOwners)
	place(t, ec, dir, a, bb)
	_, stage0 := followersOf(dir, a, bb)
	_, stage1 := followersOf(dir, a)

	calls := ec.Client.CallCount()
	ships := replicaCounters(ec, "cluster.replica_ships")
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	pa, err := b.RootNamed(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.RootNamed(ctx, bb)
	if err != nil {
		t.Fatal(err)
	}
	pa.Call("Add", int64(1))
	five := pb.Call("Add", int64(5))
	last := pa.Call("Add", five) // stage 1: spliced by value through the client
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := cluster.Typed[int64](last).Get(); err != nil || v != 6 {
		t.Fatalf("chained Add = %v, %v; want 6", v, err)
	}
	if w := b.Waves(); w != 2 {
		t.Fatalf("flush took %d waves, want 2", w)
	}
	if got, want := ec.Client.CallCount()-calls, uint64(2+len(stage0)+1+len(stage1)); got != want {
		t.Errorf("two replicated stages cost %d remote calls, want %d: (2 primaries + %d followers) + (1 primary + %d followers)",
			got, want, len(stage0), len(stage1))
	}
	if got := replicaCounters(ec, "cluster.replica_ships") - ships; got != int64(len(stage0)+len(stage1)) {
		t.Errorf("followers served %d Append calls, want one round per stage = %d", got, len(stage0)+len(stage1))
	}
	owners, _ := dir.Owners(a)
	for _, f := range owners[1:] {
		if got := shadowHistory(t, ec, f, owners[0], a); !reflect.DeepEqual(got, []int64{1, 5}) {
			t.Errorf("%s's shadow of %s replayed %v, want the primary's order [1 5]", f, a, got)
		}
	}
}
