package cluster_test

// Replica placement at the primary: the client asks each primary once, and
// the primary snapshots its own names and installs them at their followers
// server to server. The call arrives from outside the server, so the primary
// vets it before it installs anything; every member places into every other
// at once; and a follower lost mid-placement fails the change, which a retry
// then completes.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// placeAt asks primary to place, as the rebalancer's place trip does.
func placeAt(ctx context.Context, p *rmi.Peer, primary string, members []string, replication int, epoch uint64, names []string) error {
	return placement(ctx, p, "Place", primary, members, replication, epoch, names)
}

// placement calls method, Place or Seed, at primary's replication service.
func placement(ctx context.Context, p *rmi.Peer, method, primary string, members []string, replication int, epoch uint64, names []string) error {
	cb := core.New(p, cluster.ReplicaRef(primary))
	f := cb.Root().Call(method, members, replication, epoch, names)
	if err := cb.Flush(ctx); err != nil {
		return err
	}
	_, err := f.Get()
	return err
}

// TestPrimaryVetsPlacement: every malformed, hostile or stale placement call
// is refused with its typed error, with nothing installed and not one call
// made by the primary; the well-formed one next to them installs the name's
// shadow at its follower. Seed, which also hands a migration's names to
// their new home, accepts a replication of 1 and a ring without the server
// — an unreplicated ring, a leaving source — and installs at the owners
// that ring gives the name; Place refuses both.
func TestPrimaryVetsPlacement(t *testing.T) {
	ec, dir, primary, _, _, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	members := ec.Endpoints()
	others := make([]string, 0, len(members))
	for _, ep := range members {
		if ep != primary {
			others = append(others, ep)
		}
	}
	// Bound after the placement that seeded obj-0: no follower shadows it.
	fresh := nameWhere(t, dir, "fresh", primary, anyOwners)
	ec.BindCounter(dir, fresh, 7)
	many := make([]string, 1025)
	for i := range many {
		many[i] = fmt.Sprintf("server-%d", i)
	}
	corrupt, stale, notBound := new(*wire.CorruptError), new(*cluster.StaleShipError), new(*registry.NotBoundError)
	for _, tc := range []struct {
		method      string
		name        string
		members     []string
		replication int
		epoch       uint64
		names       []string
		want        any // **wire.CorruptError, **cluster.StaleShipError or **registry.NotBoundError
	}{
		{"Place", "replication 1", members, 1, epoch, []string{fresh}, corrupt},
		{"Place", "replication 0", members, 0, epoch, nil, corrupt},
		{"Seed", "replication 0", members, 0, epoch, []string{fresh}, corrupt},
		{"Place", "replication past the members", members, len(members) + 1, epoch, []string{fresh}, corrupt},
		{"Seed", "replication past the members", others, len(others) + 1, epoch, []string{fresh}, corrupt},
		{"Place", "a member listed twice", append([]string{primary}, members...), 2, epoch, []string{fresh}, corrupt},
		{"Place", "a ring without the primary", others, 2, epoch, nil, corrupt},
		{"Place", "more members than a ring may have", append(many, primary), 2, epoch, nil, corrupt},
		{"Place", "an epoch behind the primary's ring", members, 2, epoch - 1, []string{fresh}, stale},
		{"Seed", "an epoch behind the primary's ring", others, 1, epoch - 1, []string{fresh}, stale},
		{"Place", "a name not bound here", members, 2, epoch, []string{fresh, "nowhere"}, notBound},
	} {
		calls := ps.Peer.CallCount()
		err := placement(ctx, ec.Client, tc.method, primary, tc.members, tc.replication, tc.epoch, tc.names)
		if !errors.As(err, tc.want) {
			t.Errorf("%s, %s: %T %v, want %T", tc.method, tc.name, err, err, reflect.ValueOf(tc.want).Elem().Interface())
		}
		if got := ps.Peer.CallCount() - calls; got != 0 {
			t.Errorf("%s: the primary made %d calls for a placement it refused", tc.name, got)
		}
	}
	owners, _ := dir.Owners(fresh)
	if _, ok := ec.Server(owners[1]).Replica.Shadow(primary, fresh); ok {
		t.Fatalf("a refused placement installed %s at %s", fresh, owners[1])
	}

	if err := placeAt(ctx, ec.Client, primary, members, 2, epoch, []string{fresh}); err != nil {
		t.Fatalf("well-formed placement: %v", err)
	}
	shadow, ok := ec.Server(owners[1]).Replica.Shadow(primary, fresh)
	if !ok {
		t.Fatalf("the placement left %s without a shadow of %s", owners[1], fresh)
	}
	if got := shadow.(*clustertest.Counter).Get(); got != 7 {
		t.Errorf("%s's shadow of %s holds %d, want the primary's 7", owners[1], fresh, got)
	}

	for _, tc := range []struct {
		name        string
		members     []string
		replication int
	}{
		{"at replication 1", members, 1},
		{"from a non-member", others, 2},
		{"from a non-member at replication 1", others, 1},
	} {
		if err := placement(ctx, ec.Client, "Seed", primary, tc.members, tc.replication, epoch, []string{fresh}); err != nil {
			t.Errorf("Seed %s: %v", tc.name, err)
			continue
		}
		ring := cluster.NewRing(tc.members, cluster.WithReplication(tc.replication))
		seeded, _ := ring.Owners(fresh)
		for _, ep := range seeded {
			if ep == primary {
				continue
			}
			if obj, ok := ec.Server(ep).Replica.Shadow(primary, fresh); !ok || obj.(*clustertest.Counter).Get() != 7 {
				t.Errorf("Seed %s: %s holds no shadow of %s with the primary's 7 (%v)", tc.name, ep, fresh, obj)
			}
		}
	}
}

// TestMembersPlaceIntoEachOther: on four servers at R=3 every member follows
// every other, and two clients ask all four to place at once, round after
// round. Each primary's handler installs at the three others while they do
// the same into it, so a lock held across the outbound Installs would
// deadlock; every call returns, and every name stays seeded at its
// followers.
func TestMembersPlaceIntoEachOther(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
	var names []string
	for _, ep := range ec.Endpoints() {
		for i := 0; i < 4; i++ {
			names = append(names, nameWhere(t, dir, fmt.Sprintf("m%d", i), ep, anyOwners))
		}
	}
	place(t, ec, dir, names...)
	other := rmi.NewPeer(ec.Network.Host("client-2"), rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = other.Close() })

	const rounds = 20
	epoch := dir.Epoch()
	var wg sync.WaitGroup
	for _, peer := range []*rmi.Peer{ec.Client, other} {
		for _, ep := range ec.Endpoints() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < rounds; n++ {
					if err := placeAt(ctx, peer, ep, ec.Endpoints(), 3, epoch, nil); err != nil {
						t.Errorf("placement %d at %s: %v", n, ep, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, name := range names {
		owners, _ := dir.Owners(name)
		for _, f := range owners[1:] {
			if _, ok := ec.Server(f).Replica.Shadow(owners[0], name); !ok {
				t.Errorf("%s holds no seeded shadow of %s after the placements", f, name)
			}
		}
	}
}

// TestFollowerKilledMidPlacement: a member dies with its state while the
// converged R=3 cluster re-places. Every primary that seeds it fails its
// placement, naming the lost follower, and so does the change. The member
// comes back empty, and until the change is run again a primary whose
// Install it missed acks no write it follows there: the restarted member
// would hold it on a shadow without the name's history. The same call run
// again converges: it rescues the names whose only copies are shadows
// elsewhere, acked writes included, and homes them, and the write is acked.
func TestFollowerKilledMidPlacement(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
	want := map[string]int64{}
	for _, ep := range ec.Endpoints() {
		bindAll(ec, dir, want, namesWithOwners(t, dir.Ring(), 2, ep)...)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	for name := range want {
		ackedAdd(t, ec, dir, want, name)
	}

	const victim = "server-2"
	faulty := cluster.NewRebalancer(dir)
	var once sync.Once
	faulty.SetProbe(func(k cluster.TripKind, endpoint string, _ []string) error {
		if k == cluster.TripPlace && endpoint != victim {
			once.Do(func() { ec.CrashServer(victim) })
		}
		return nil
	})
	_, err := faulty.AddServer(ctx, "server-0")
	var lost *cluster.FollowerError
	if !errors.As(err, &lost) || lost.Endpoint != victim {
		t.Fatalf("placement with %s killed = %v, want a FollowerError naming it", victim, err)
	}

	ec.StartServer(victim)
	followed := ""
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if owners, _ := dir.Owners(name); owners[0] != victim && slices.Contains(owners, victim) {
			followed = name
			break
		}
	}
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, followed)
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Add", int64(1))
	var quorum *cluster.QuorumError
	if err := b.Flush(ctx); !errors.As(err, &quorum) {
		t.Errorf("write to %s, which %s follows, before the retry = %v, want a *QuorumError", followed, victim, err)
	}
	want[followed]++ // executed at its primary, never acked
	st, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0")
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if st.Promoted != 2 {
		t.Errorf("retry promoted %d names, want the victim's 2", st.Promoted)
	}
	ackedAdd(t, ec, dir, want, followed)
	checkConverged(t, ec, dir, want)
}

// TestPlacementLandsBetweenShips: a placement snapshots at the primary while
// a wave it already executed is still queued for a slow follower — under
// W=2 of R=3 the flush was answered without it — and while the next waves
// execute. The follower's shadow must end with every wave exactly once:
// the Install waits for the records its snapshot holds, and a record the
// snapshot does not hold waits for the Install. The placement is the
// primary's fence too, so the wave beside it runs either before the flip, at
// the old epoch, or after it, refused at the old epoch and sent again at the
// new one.
func TestPlacementLandsBetweenShips(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	const delay = 200 * time.Millisecond
	name := nameWhere(t, dir, "a", "server-0", anyOwners)
	place(t, ec, dir, name)
	owners, epoch := dir.Owners(name)
	primary, slow := owners[0], owners[2]
	ec.Network.SetLinkFaults(slow, primary, netsim.LinkFaults{ExtraLatency: delay})
	t.Cleanup(func() { ec.Network.KillConns(slow) })

	// Two independent waves: the second's ship to the slow follower queues
	// behind the first's, whose answer takes delay.
	d := &core.ShipDirective{Epoch: epoch, Replication: 3, Quorum: 2}
	for _, delta := range []int64{1, 2} {
		cb := core.NewNamed(ec.Client, primary, name)
		cb.Ship(d)
		cb.Root().Call("Add", delta)
		if err := cb.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// A placement at the next epoch overwrites every seeded shadow, while a
	// third wave runs beside it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, at := range []uint64{epoch, epoch + 1} {
			cb := core.NewNamed(ec.Client, primary, name)
			cb.Ship(&core.ShipDirective{Epoch: at, Replication: 3, Quorum: 2})
			cb.Root().Call("Add", int64(4))
			err := cb.Flush(ctx)
			if errors.As(err, new(*cluster.StaleShipError)) && at == epoch {
				continue // admitted after the flip
			}
			if err != nil {
				t.Errorf("wave beside the placement at epoch %d: %v", at, err)
			}
			return
		}
	}()
	if err := placeAt(ctx, ec.Client, primary, ec.Endpoints(), 3, epoch+1, nil); err != nil {
		t.Fatalf("placement: %v", err)
	}
	wg.Wait()

	want := counterAt(t, ec, primary, name).Get()
	for deadline := time.Now().Add(10 * delay); ; time.Sleep(5 * time.Millisecond) {
		shadow, ok := ec.Server(slow).Replica.Shadow(primary, name)
		got := int64(-1)
		if ok {
			got = shadow.(*clustertest.Counter).Get()
		}
		if got == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s's shadow of %s holds %d, the primary %d", slow, name, got, want)
		}
	}
}

// TestNodeVetsRingBroadcast: a ring broadcast that lists a member twice or
// without an endpoint is refused typed, and the node keeps its view — else a
// directive's follower index would resolve against a membership no client
// ring has ([a a b c] at index 1 ships to a, where every client means b). The
// well-formed broadcast next to them is adopted.
func TestNodeVetsRingBroadcast(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	members := ec.Endpoints()
	target := members[2]
	setRing := func(s *cluster.RingSnapshot) error {
		cb := core.New(ec.Client, cluster.NodeRef(target))
		f := cb.Root().Call("SetRing", s)
		if err := cb.Flush(ctx); err != nil {
			return err
		}
		_, err := f.Get()
		return err
	}
	if err := setRing(&cluster.RingSnapshot{Members: members, Epoch: 1}); err != nil {
		t.Fatalf("first broadcast: %v", err)
	}
	view := ec.Server(target).Node.RingState()
	for _, tc := range []struct {
		name    string
		members []string
		epoch   uint64
	}{
		{"a member listed twice", append([]string{members[0]}, members...), 2},
		{"a member listed twice at the node's epoch", append([]string{members[0]}, members...), 1},
		{"a member without an endpoint", append([]string{""}, members...), 2},
	} {
		var corrupt *wire.CorruptError
		if err := setRing(&cluster.RingSnapshot{Members: tc.members, Epoch: tc.epoch}); !errors.As(err, &corrupt) {
			t.Errorf("%s: set ring = %T %v, want *wire.CorruptError", tc.name, err, err)
		}
		if got := ec.Server(target).Node.RingState(); !reflect.DeepEqual(got, view) {
			t.Errorf("%s: the node's view moved to %+v, want %+v", tc.name, got, view)
		}
	}

	if err := setRing(&cluster.RingSnapshot{Members: members[1:], Epoch: 2}); err != nil {
		t.Fatalf("well-formed broadcast: %v", err)
	}
	if got := ec.Server(target).Node.RingState(); got.Epoch != 2 || !reflect.DeepEqual(got.Members, members[1:]) {
		t.Errorf("the node's view is %+v after the well-formed broadcast, want %v at epoch 2", got, members[1:])
	}
}

// TestFencedPlacementLosesNoWave: a writer flushes replicated R=2 waves
// without pause — and once more before every trip of the change — while
// AddServer grows the ring from three members to four and RemoveServer
// shrinks it back. Each member flips its ring in the same hold of its gate
// that seeds its followers, so no wave slips between the seed and the flip:
// after each change, once the writer stopped, every follower the new ring
// assigns a name holds every write to it that was acked, and so does its
// primary.
func TestFencedPlacementLosesNoWave(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	base := []string{"server-0", "server-1", "server-2"}
	dir := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(2))
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("w-%d", i)
	}
	place(t, ec, dir, names...)

	var mu sync.Mutex
	acked := map[string][]int64{}
	flushes, during := 0, 0
	// writeOnce flushes one wave adding a fresh token to each of two names.
	writeOnce := func() {
		mu.Lock()
		i := flushes
		flushes++
		mu.Unlock()
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		pair := []string{names[i%len(names)], names[(i+3)%len(names)]}
		tokens := []int64{int64(2*i + 1), int64(2*i + 2)}
		var recorded []int
		for j, name := range pair {
			if p, err := b.RootNamed(ctx, name); err == nil {
				p.Call("Add", tokens[j])
				recorded = append(recorded, j)
			}
		}
		if b.Flush(ctx) == nil && len(recorded) > 0 {
			mu.Lock()
			for _, j := range recorded {
				acked[pair[j]] = append(acked[pair[j]], tokens[j])
			}
			during++
			mu.Unlock()
		}
	}
	reb := cluster.NewRebalancer(dir)
	reb.SetProbe(func(cluster.TripKind, string, []string) error {
		writeOnce()
		return nil
	})
	for _, step := range []struct {
		name   string
		change func() (*cluster.RebalanceStats, error)
	}{
		{"add", func() (*cluster.RebalanceStats, error) { return reb.AddServer(ctx, "server-3") }},
		{"remove", func() (*cluster.RebalanceStats, error) { return reb.RemoveServer(ctx, "server-3") }},
	} {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					writeOnce()
				}
			}
		}()
		_, err := step.change()
		close(stop)
		<-done
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for _, name := range names {
			owners, _ := dir.Owners(name)
			holders := map[string]*clustertest.Counter{owners[0]: counterAt(t, ec, owners[0], name)}
			for _, f := range owners[1:] {
				obj, ok := ec.Server(f).Replica.Shadow(owners[0], name)
				if !ok {
					t.Fatalf("%s: %s holds no seeded shadow of %s", step.name, f, name)
				}
				holders[f] = obj.(*clustertest.Counter)
			}
			for ep, c := range holders {
				history := c.History()
				for _, tok := range acked[name] {
					if !slices.Contains(history, tok) {
						t.Errorf("%s: %s's copy of %s lacks acked write %d (holds %v)", step.name, ep, name, tok, history)
					}
				}
			}
		}
	}
	if during == 0 {
		t.Fatal("no write was acked while the ring changed")
	}
}

// TestMembershipChurnLeaksNoShadow: a follower unexports every shadow it
// drops — one forgotten when its name leaves the primary's shard, one
// replaced by a placement under another primary, one made stale by its name
// binding here — so membership changes do not grow the export tables. Six
// AddServer/RemoveServer cycles of 16 names at R=2 on four servers end each
// with the exports the first cycle left.
func TestMembershipChurnLeaksNoShadow(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1", "server-2"}, cluster.WithReplication(2))
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("churn-%d", i)
	}
	place(t, ec, dir, names...)
	exported := func() int {
		n := 0
		for _, s := range ec.Servers {
			n += s.Peer.NumExported()
		}
		return n
	}
	reb := cluster.NewRebalancer(dir)
	var after []int
	for cycle := 0; cycle < 6; cycle++ {
		if _, err := reb.AddServer(ctx, "server-3"); err != nil {
			t.Fatalf("cycle %d: add: %v", cycle, err)
		}
		if _, err := reb.RemoveServer(ctx, "server-3"); err != nil {
			t.Fatalf("cycle %d: remove: %v", cycle, err)
		}
		after = append(after, exported())
	}
	for cycle, n := range after[1:] {
		if n != after[0] {
			t.Fatalf("exports after each cycle %v: cycle %d left %d, the first %d", after, cycle+1, n, after[0])
		}
	}
}
