package cluster_test

// The cost and failure model of log shipping from the primary, pinned on a
// 4-server R=3 cluster: a replicated wave costs the CLIENT one call per
// primary and nothing else — each primary forwards its own wave to its
// followers, server to server, before it replies — while quorum is still
// judged destination by destination, a quorum-early ack still leaves the
// straggler behind, and a chained pipeline still replays on its followers in
// wave order.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rmi"
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

// lagCount is how many times the servers, as primaries, observed
// cluster.replication_lag.
func lagCount(ec *clustertest.Cluster) (total int64) {
	for _, s := range ec.Servers {
		if h := s.Stats.Snapshot().Hist("cluster.replication_lag"); h != nil {
			total += int64(h.Count)
		}
	}
	return total
}

// shadowHistory reads the applied-delta log of follower's shadow of name.
func shadowHistory(t *testing.T, ec *clustertest.Cluster, follower, primary, name string) []int64 {
	t.Helper()
	s := ec.Server(follower)
	shadow, ok := s.Replica.Shadow(primary, name)
	if !ok {
		t.Fatalf("%s holds no readable shadow of %s", follower, name)
	}
	return shadow.(*clustertest.Counter).History()
}

// TestReplicatedWaveCostsOneCallPerFollower: brmibench's replicated_write
// shape — 4 named roots over 3 homes, one wave — costs the client exactly D
// calls, one per primary; the followers cost server-to-server calls, one
// Append per (destination, follower) pair, sent by that destination's primary.
// One quorum wait per destination at the client, one lag observation per
// destination at its primary, one applied record per pair.
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
	perDest, _ := followersOf(dir, names...)
	pairs := 0
	for _, f := range perDest {
		pairs += len(f)
	}
	if len(perDest) != 3 || pairs <= len(perDest) {
		t.Fatalf("setup: %d destinations, %d (destination, follower) pairs", len(perDest), pairs)
	}

	calls := ec.Client.CallCount()
	serverCalls := map[string]uint64{}
	for _, s := range ec.Servers {
		serverCalls[s.Endpoint] = s.Peer.CallCount()
	}
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

	if got, want := ec.Client.CallCount()-calls, uint64(len(perDest)); got != want {
		t.Errorf("replicated wave cost the client %d remote calls, want %d: its primaries and no follower", got, want)
	}
	for _, s := range ec.Servers {
		if got, want := s.Peer.CallCount()-serverCalls[s.Endpoint], uint64(len(perDest[s.Endpoint])); got != want {
			t.Errorf("%s made %d remote calls, want one per follower of its destination = %d", s.Endpoint, got, want)
		}
	}
	if got := ec.ClientStats.Snapshot().Counter("cluster.quorum_waits") - waits; got != int64(len(perDest)) {
		t.Errorf("cluster.quorum_waits moved by %d, want one per destination = %d", got, len(perDest))
	}
	if got := lagCount(ec) - lags; got != int64(len(perDest)) {
		t.Errorf("cluster.replication_lag observed %d times, want once per primary = %d", got, len(perDest))
	}
	if h := ec.ClientStats.Snapshot().Hist("cluster.replication_lag"); h == nil || h.Count != int64(len(perDest)) {
		t.Errorf("client's cluster.replication_lag = %+v, want the %d lags its primaries reported", h, len(perDest))
	}
	if got := replicaCounters(ec, "cluster.replica_appends") - appends; got != int64(pairs) {
		t.Errorf("followers applied %d records, want one per (destination, follower) pair = %d", got, pairs)
	}
	if got := replicaCounters(ec, "cluster.replica_ships") - ships; got != int64(pairs) {
		t.Errorf("followers served %d Append calls, want one per (destination, follower) pair = %d", got, pairs)
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
// its primaries cannot reach fails exactly the destinations that list it as
// an owner — each with a *QuorumError naming it, none with a stale retry —
// and the destination it does not follow settles with its values in the same
// wave. The client reaches every server throughout: only primary↔follower
// links are cut.
func TestPartitionedFollowerFailsOnlyItsDestinations(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const down = "server-3"
	follows := func(owners []string) bool { return slices.Contains(owners, down) }
	spared := nameWhere(t, dir, "spared", "server-0", func(o []string) bool { return !follows(o) })
	hit := []string{nameWhere(t, dir, "hit", "server-1", follows), nameWhere(t, dir, "hit", "server-2", follows)}
	place(t, ec, dir, append([]string{spared}, hit...)...)

	ec.Network.PartitionPair("server-1", down)
	ec.Network.PartitionPair("server-2", down)
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
		if qe.Acked != 2 || qe.Required != 3 || len(qe.Failed) != 1 || qe.Failed[0].Endpoint != down {
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

// TestQuorumEarlyAckLeavesSlowFollowerBehind: under W=2 of R=3 each primary
// answers as soon as its other follower holds the record — before the slow
// follower, which is in every destination's owner list, answers. The slow
// ships finish in the background, on the primaries, one per destination.
func TestQuorumEarlyAckLeavesSlowFollowerBehind(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const slow = "server-3"
	const delay = 2 * time.Second
	follows := func(owners []string) bool { return slices.Contains(owners, slow) }
	names := []string{nameWhere(t, dir, "q", "server-0", follows), nameWhere(t, dir, "q", "server-1", follows)}
	place(t, ec, dir, names...)
	before := ec.Server(slow).Stats.Snapshot()

	// The slow follower applies its records promptly; its ANSWERS to the two
	// primaries crawl. Once the test has seen what it came for, the stragglers
	// are cut loose rather than waited out (the late answers stay queued on the
	// links, so teardown must reset the connections abortively — before
	// clustertest's own cleanup).
	for _, primary := range []string{"server-0", "server-1"} {
		ec.Network.SetLinkFaults(slow, primary, netsim.LinkFaults{ExtraLatency: delay})
	}
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
		if appends == 2 && ships == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow follower applied %d records in %d Append calls, want each destination's record from its primary", appends, ships)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gate is a remote object whose one method returns once open reports true,
// or fails after a bound: a wave that calls it ends no earlier.
type gate struct {
	rmi.RemoteBase
	open func() bool
}

func (g *gate) Pass() (int64, error) {
	for deadline := time.Now().Add(5 * time.Second); !g.open(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return 0, errors.New("gate: never opened")
		}
	}
	return 1, nil
}

// TestChainedReplicatedStagesShipInWaveOrder: a two-stage pipeline over
// replicated roots — stage 1's call on root A consumes a stage-0 value from
// root B's server, staged until B's quorum holds it — costs the client one call per primary per stage, and A's
// followers replay its two waves, each a record of its own, in wave order.
// Under W=2 of R=3 that holds for a straggler too: while the slow follower's
// answer to wave 0 is still on its way, A's primary holds wave 1's ship to it
// back. (A gate in wave 0, on an unreplicated root, ends that wave only once
// wave 0's Append has reached the slow follower: a link that had not sent it
// yet would send both records as one Append, as it should.)
func TestChainedReplicatedStagesShipInWaveOrder(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const delay = 500 * time.Millisecond
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	bb := nameWhere(t, dir, "b", "server-1", anyOwners)
	place(t, ec, dir, a, bb)
	owners, _ := dir.Owners(a)
	slow := owners[2]
	ec.Network.SetLinkFaults(slow, owners[0], netsim.LinkFaults{ExtraLatency: delay})
	t.Cleanup(func() { ec.Network.KillConns(slow) })
	perDest, _ := followersOf(dir, a, bb)

	calls := ec.Client.CallCount()
	ships := replicaCounters(ec, "cluster.replica_ships")
	applied := replicaCounters(ec, "cluster.replica_appends")
	slowShips := func() int64 { return ec.Server(slow).Stats.Snapshot().Counter("cluster.replica_ships") }
	slowBefore := slowShips()
	if slices.Contains(perDest["server-1"], slow) {
		slowBefore++ // b's wave reaches it too, undelayed
	}
	sent, err := ec.Server(slow).Peer.Export(&gate{open: func() bool { return slowShips() > slowBefore }}, "cluster.Gate")
	if err != nil {
		t.Fatal(err)
	}
	b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithQuorum(2))
	pa, err := b.RootNamed(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.RootNamed(ctx, bb)
	if err != nil {
		t.Fatal(err)
	}
	passed := b.Root(sent).Call("Pass")
	pa.Call("Add", int64(1))
	pb.Call("Add", int64(5))
	last := pa.Call("Add", pb.Call("Get")) // stage 1: b's replicated value, through the client
	start := time.Now()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= delay {
		t.Fatalf("W=2 flush took %v: it waited for the follower whose answers take %v", took, delay)
	}
	if got := slowShips() - slowBefore; got > 1 {
		t.Errorf("the slow follower was sent %d of %s's waves before it answered the first", got, a)
	}
	if v, err := cluster.Typed[int64](last).Get(); err != nil || v != 6 {
		t.Fatalf("chained Add = %v, %v; want 6", v, err)
	}
	if _, err := passed.Get(); err != nil {
		t.Fatalf("gate: %v", err)
	}
	if w := b.Waves(); w != 2 {
		t.Fatalf("flush took %d waves, want 2", w)
	}
	if got := ec.Client.CallCount() - calls; got != 4 {
		t.Errorf("two replicated stages cost the client %d remote calls, want 4: 2 primaries and the gate, then 1", got)
	}
	// An Append call counts when it arrives, its records when applied: both
	// are awaited before the shadows are read.
	want := int64(2*len(perDest["server-0"]) + len(perDest["server-1"]))
	for deadline := time.Now().Add(10 * delay); replicaCounters(ec, "cluster.replica_ships")-ships != want ||
		replicaCounters(ec, "cluster.replica_appends")-applied != want; {
		if time.Now().After(deadline) {
			t.Fatalf("followers served %d Append calls and applied %d records, want one of each per follower per stage = %d",
				replicaCounters(ec, "cluster.replica_ships")-ships, replicaCounters(ec, "cluster.replica_appends")-applied, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if waited := time.Since(start); waited < delay {
		t.Errorf("the slow follower had both waves after %v, before its first answer (%v) could have arrived", waited, delay)
	}
	for _, f := range owners[1:] {
		if got := shadowHistory(t, ec, f, owners[0], a); !reflect.DeepEqual(got, []int64{1, 5}) {
			t.Errorf("%s's shadow of %s replayed %v, want the primary's order [1 5]", f, a, got)
		}
	}
}

// TestMutualFollowersDoNotDeadlock: two servers that follow each other, each
// flushed as a primary by its own client at the same time, ship to each other
// from inside their flush handlers. Neither holds a lock the other's Append
// needs, so every flush returns.
func TestMutualFollowersDoNotDeadlock(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	names := []string{nameWhere(t, dir, "m", "server-0", anyOwners), nameWhere(t, dir, "m", "server-1", anyOwners)}
	place(t, ec, dir, names...)
	other := rmi.NewPeer(ec.Network.Host("client-2"), rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = other.Close() })

	const rounds = 50
	var wg sync.WaitGroup
	for i, peer := range []*rmi.Peer{ec.Client, other} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := cluster.NewDirectory(peer, ec.Endpoints(), cluster.WithReplication(2))
			for n := 0; n < rounds; n++ {
				b := cluster.New(peer, cluster.WithDirectory(d))
				p, err := b.RootNamed(ctx, names[i])
				if err == nil {
					p.Call("Add", int64(1))
				}
				if err = errors.Join(err, b.Flush(ctx)); err != nil {
					t.Errorf("flush %d on %s: %v", n, names[i], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, name := range names {
		follower := ec.Endpoints()[1-i]
		if got := len(shadowHistory(t, ec, follower, ec.Endpoints()[i], name)); got != rounds {
			t.Errorf("%s's shadow of %s replayed %d waves, want %d", follower, name, got, rounds)
		}
	}
}

// TestWavesQueuedBehindAnAppendRideTheNext: under W=2 of R=3 a primary's
// link to its slow follower has one Append out — the test waits until it has
// reached the follower — and two waves from two other batches execute and
// queue behind it. When that Append returns, both leave in the next one: the
// follower serves 2 Append calls for 3 records, and replays the waves in the
// order the primary queued them.
func TestWavesQueuedBehindAnAppendRideTheNext(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const delay = 200 * time.Millisecond
	name := nameWhere(t, dir, "a", "server-0", anyOwners)
	place(t, ec, dir, name)
	owners, _ := dir.Owners(name)
	primary, slow := owners[0], owners[2]
	ec.Network.SetLinkFaults(slow, primary, netsim.LinkFaults{ExtraLatency: delay})
	t.Cleanup(func() { ec.Network.KillConns(slow) })
	counter := func(name string) int64 { return ec.Server(slow).Stats.Snapshot().Counter(name) }
	ships, appends := counter("cluster.replica_ships"), counter("cluster.replica_appends")

	start := time.Now()
	for _, delta := range []int64{1, 2, 4} {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithQuorum(2))
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		p.Call("Add", delta)
		if err := b.Flush(ctx); err != nil {
			t.Fatalf("W=2 flush of %d: %v", delta, err)
		}
		// Only the follower's answers crawl: the first Append reaches it at once.
		for deadline := time.Now().Add(delay); counter("cluster.replica_ships") == ships; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the first wave's Append never reached the slow follower")
			}
		}
	}
	if took := time.Since(start); took >= delay {
		t.Fatalf("setup: the three flushes took %v, longer than the first Append's answer (%v)", took, delay)
	}

	for deadline := time.Now().Add(10 * delay); counter("cluster.replica_appends")-appends != 3; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("slow follower applied %d records, want 3", counter("cluster.replica_appends")-appends)
		}
	}
	if got := counter("cluster.replica_ships") - ships; got != 2 {
		t.Errorf("slow follower served %d Append calls for 3 records, want 2: the first, then the two queued behind it", got)
	}
	if got := shadowHistory(t, ec, slow, primary, name); !reflect.DeepEqual(got, []int64{1, 2, 4}) {
		t.Errorf("%s's shadow of %s replayed %v, want the primary's queue order [1 2 4]", slow, name, got)
	}
}

// TestLinkSendsARecordOnce: a follower applies each record once because its
// primary's link sends it once, not because it dedupes. The connection from
// the primary to its slow follower is cut after the follower applied wave 1's
// Append and before its reply arrived. Wave 1 then misses W=all on that
// follower's failure, and wave 2, acked at W=2 while its record waited on the
// link behind wave 1's call, fails there unsent. Nothing is resent: after two
// later waves the follower's shadow holds wave 1's delta exactly once, wave
// 2's not at all, and the later two in order.
func TestLinkSendsARecordOnce(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	// Long enough that wave 1's reply is still on its way when the cut
	// lands; nothing waits it out.
	const delay = 2 * time.Second
	name := nameWhere(t, dir, "a", "server-0", anyOwners)
	place(t, ec, dir, name)
	owners, _ := dir.Owners(name)
	primary, slow := owners[0], owners[2]
	ec.Network.SetLinkFaults(slow, primary, netsim.LinkFaults{ExtraLatency: delay})
	t.Cleanup(func() { ec.Network.KillConns(slow) })
	counter := func(name string) int64 { return ec.Server(slow).Stats.Snapshot().Counter(name) }
	ships, appends := counter("cluster.replica_ships"), counter("cluster.replica_appends")
	flush := func(delta int64, quorum int) error {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir), cluster.WithQuorum(quorum))
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			return err
		}
		p.Call("Add", delta)
		return b.Flush(ctx)
	}

	first := make(chan error, 1)
	go func() { first <- flush(1, 0) }()
	// Only the follower's answers crawl: wave 1's Append reaches it at once.
	for deadline := time.Now().Add(delay); counter("cluster.replica_appends") == appends; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("wave 1's Append never reached the slow follower")
		}
	}
	if err := flush(2, 2); err != nil {
		t.Fatalf("W=2 flush of wave 2: %v", err)
	}
	ec.Network.KillConns(slow)
	ec.Network.SetLinkFaults(slow, primary, netsim.LinkFaults{})
	var qe *cluster.QuorumError
	var fe *cluster.FollowerError
	switch err := <-first; {
	case err == nil:
		t.Fatal("setup: wave 1's reply arrived before the cut")
	case !errors.As(err, &qe) || qe.Acked != 2 || qe.Required != 3:
		t.Fatalf("wave 1 = %v, want a quorum miss at 2 of 3", err)
	case !errors.As(err, &fe) || fe.Endpoint != slow:
		t.Fatalf("wave 1's quorum miss %v does not name %s", err, slow)
	}
	if got := counter("cluster.replica_ships") - ships; got != 1 {
		t.Errorf("the slow follower served %d Append calls, want 1: wave 2 fails unsent behind the cut one", got)
	}

	for _, delta := range []int64{4, 8} {
		if err := flush(delta, 0); err != nil {
			t.Fatalf("W=all flush of %d after the cut: %v", delta, err)
		}
	}
	if got := shadowHistory(t, ec, slow, primary, name); !reflect.DeepEqual(got, []int64{1, 4, 8}) {
		t.Errorf("%s's shadow of %s replayed %v, want [1 4 8]: wave 1 once, wave 2 never", slow, name, got)
	}
	if got := counter("cluster.replica_appends") - appends; got != 3 {
		t.Errorf("the slow follower applied %d records, want 3", got)
	}
}
