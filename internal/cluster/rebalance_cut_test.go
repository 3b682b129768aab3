package cluster_test

// Fault-injection tests for the membership-change procedure. Every batched
// round trip of the rebalancer goes through one primitive, and that
// primitive consults one probe: cutting there leaves exactly the partial
// state a real fault would. The table below cuts every operation before
// every trip it takes and asserts the retry contract — the cut run fails
// with the injected error, no state is lost, a plain retry converges (every
// name resolves at its ring home exactly once with its state intact), and a
// third call is a no-op. The round-trip pin at the bottom asserts that the
// one-mechanism control plane costs the same trips as the one it replaced.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rmi"
	"repro/internal/wire"
)

var errInjected = errors.New("injected migration fault")

// cutFrom returns a probe failing the n-th trip of the given kind and every
// later one (n counts from 1), and a func reporting whether it fired. With
// n = 1 every flow dies at that kind; larger n lets the earlier trips of
// the kind through — pre-seeding before the migration's own placement, one
// flow before the next — so every trip of the operation gets its own cut.
func cutFrom(kind cluster.TripKind, n int) (probe func(cluster.TripKind, string, []string) error, fired func() bool) {
	var mu sync.Mutex
	seen, cut := 0, false
	probe = func(k cluster.TripKind, endpoint string, names []string) error {
		if k != kind {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if seen++; seen < n {
			return nil
		}
		cut = true
		return fmt.Errorf("%w: %s trip #%d at %s %v", errInjected, k, seen, endpoint, names)
	}
	return probe, func() bool { mu.Lock(); defer mu.Unlock(); return cut }
}

// checkConverged asserts the cluster-wide post-rebalance invariant for the
// given names: resolvable at the ring-assigned home, expected state, and
// exactly one manifest entry across the cluster.
func checkConverged(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, want map[string]int64) {
	t.Helper()
	ctx := context.Background()
	for name, value := range want {
		home, err := dir.Home(name)
		if err != nil {
			t.Fatalf("home %s: %v", name, err)
		}
		ref, err := dir.Lookup(ctx, name)
		if err != nil {
			t.Fatalf("lookup %s after retry: %v", name, err)
		}
		if ref.Endpoint != home {
			t.Errorf("%s resolves to %s, want ring home %s", name, ref.Endpoint, home)
		}
		res, err := ec.Client.Call(ctx, ref, "Get")
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if got := res[0].(int64); got != value {
			t.Errorf("%s state = %d, want %d (lost or doubly-restored)", name, got, value)
		}
		holders := 0
		for _, s := range ec.Servers {
			for _, b := range s.Node.Manifest() {
				if b.Name == name {
					holders++
				}
			}
		}
		if holders != 1 {
			t.Errorf("%s appears in %d manifests, want exactly 1", name, holders)
		}
	}
}

// cutCase is one prepared cluster: the operation under test, the state it
// must preserve, and what only this operation can assert.
type cutCase struct {
	ec   *clustertest.Cluster
	dir  *cluster.Directory
	op   func(*cluster.Rebalancer) (*cluster.RebalanceStats, error)
	want map[string]int64
	// moving is how many names the operation migrates. After a depart cut
	// the copies arrived but no source tombstoned, so the retry must still
	// see all of them mis-homed and re-run the (idempotent) flows.
	moving int
	// live: the moving names are bound at a live server throughout, so
	// they must stay readable after the cut. Not so when the operation's
	// whole point is to resurrect names bound nowhere.
	live bool
	// post holds the operation-specific assertions on the converged
	// cluster, if any.
	post func(t *testing.T)
}

// namesWithOwners generates count names whose owner list under ring starts
// with the given endpoints, in order.
func namesWithOwners(t *testing.T, ring *cluster.Ring, count int, owners ...string) []string {
	t.Helper()
	var names []string
next:
	for i := 0; len(names) < count; i++ {
		if i > 100000 {
			t.Fatalf("no name with owner geometry %v", owners)
		}
		name := fmt.Sprintf("obj-%d", i)
		got, _ := ring.Owners(name)
		if len(got) < len(owners) {
			t.Fatalf("ring replicates %d-fold, geometry %v needs more", len(got), owners)
		}
		for j, ep := range owners {
			if got[j] != ep {
				continue next
			}
		}
		names = append(names, name)
	}
	return names
}

// bindAll binds one movable counter per name, seeded 100, 200, ….
func bindAll(ec *clustertest.Cluster, dir *cluster.Directory, want map[string]int64, names ...string) {
	for _, name := range names {
		want[name] = int64(100 * (len(want) + 1))
		ec.BindCounter(dir, name, want[name])
	}
}

// ackedAdd flushes one replicated write on top of name's seed: the converged
// state must carry it through every cut.
func ackedAdd(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, want map[string]int64, name string) {
	t.Helper()
	ctx := context.Background()
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	p.Call("Add", int64(1))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("acked flush: %v", err)
	}
	want[name]++
}

// addCase: a 2-server cluster (plus R-1 so every name has a full follower
// set) grows by one; three names from two sources move to the newcomer, one
// stays.
func addCase(replication int) func(t *testing.T) cutCase {
	return func(t *testing.T) cutCase {
		ec := clustertest.New(t, 3)
		base := []string{"server-0", "server-1"}
		dir := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(replication))
		grown := cluster.NewRing(append(base, "server-2"), cluster.WithReplication(replication))
		c := cutCase{ec: ec, dir: dir, want: map[string]int64{}, moving: 3, live: true}
		bindAll(ec, dir, c.want, clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 2)...)
		bindAll(ec, dir, c.want, clustertest.PickNames(dir.Ring(), grown, "server-1", "server-2", 1)...)
		bindAll(ec, dir, c.want, clustertest.PickNames(dir.Ring(), grown, "server-0", "server-0", 1)...)
		c.op = func(r *cluster.Rebalancer) (*cluster.RebalanceStats, error) {
			return r.AddServer(context.Background(), "server-2")
		}
		c.post = func(t *testing.T) {
			if !dir.Ring().Contains("server-2") {
				t.Error("newcomer not in the ring after the retried add")
			}
		}
		return c
	}
}

// removeCase: a 3-server cluster drains server-2, which homes two names; a
// third name stays on a survivor.
func removeCase(replication int) func(t *testing.T) cutCase {
	return func(t *testing.T) cutCase {
		ec := clustertest.New(t, 3)
		ctx := context.Background()
		dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(replication))
		c := cutCase{ec: ec, dir: dir, want: map[string]int64{}, moving: 2, live: true}
		drained := namesWithOwners(t, dir.Ring(), 2, "server-2")
		bindAll(ec, dir, c.want, drained...)
		bindAll(ec, dir, c.want, namesWithOwners(t, dir.Ring(), 1, "server-0")...)
		c.op = func(r *cluster.Rebalancer) (*cluster.RebalanceStats, error) {
			return r.RemoveServer(ctx, "server-2")
		}
		c.post = func(t *testing.T) {
			if dir.Ring().Contains("server-2") {
				t.Fatal("victim still in the ring after retried remove")
			}
			// The departed copies on the victim answer wrong-home, not stale
			// data.
			for _, name := range drained {
				if ref, err := dir.Lookup(ctx, name); err != nil || ref.Endpoint == "server-2" {
					t.Errorf("%s still resolves to the removed server (ref %v, err %v)", name, ref, err)
				}
				var wrong *rmi.WrongHomeError
				if _, err := ec.Server("server-2").Reg.Lookup(name); !errors.As(err, &wrong) {
					t.Errorf("drained binding %s error = %v, want WrongHomeError", name, err)
				}
			}
		}
		return c
	}
}

// failoverCase: the promotion-idempotence scenario. The election geometry
// forces a post-promotion migration (by consistent hashing the FIRST
// follower is always the new home, so a 2-owner shard never migrates after
// promotion): with owners [server-0, server-2, server-1], both followers
// hold equally-credentialed seeded shadows and the election tie-break
// promotes the lexically-lowest — server-1 — while the survivor ring homes
// the name at server-2. The failover then promotes at server-1 AND migrates
// to server-2, so every trip kind is reachable.
func failoverCase(t *testing.T) cutCase {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
	c := cutCase{ec: ec, dir: dir, want: map[string]int64{}, moving: 1}
	lost := namesWithOwners(t, dir.Ring(), 1, "server-0", "server-2", "server-1")[0]
	bindAll(ec, dir, c.want, lost)
	bindAll(ec, dir, c.want, namesWithOwners(t, dir.Ring(), 1, "server-3")...)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	ackedAdd(t, ec, dir, c.want, lost)
	ec.CrashServer("server-0")
	c.op = func(r *cluster.Rebalancer) (*cluster.RebalanceStats, error) {
		return r.FailoverServer(ctx, "server-0")
	}
	c.post = func(t *testing.T) {
		if dir.Ring().Contains("server-0") {
			t.Error("dead server still in the ring after retried failover")
		}
	}
	return c
}

// rescueCase: orphan rescue through AddServer. server-0 dies with its state
// and comes back empty without ever being failed over, so its name is bound
// nowhere and survives only as server-1's shadow; re-admitting server-0
// must promote that shadow and migrate it home — promote, then every trip
// of an ordinary replicated migration.
func rescueCase(t *testing.T) cutCase {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	c := cutCase{ec: ec, dir: dir, want: map[string]int64{}, moving: 1}
	lost := namesWithOwners(t, dir.Ring(), 1, "server-0", "server-1")[0]
	bindAll(ec, dir, c.want, lost)
	bindAll(ec, dir, c.want, namesWithOwners(t, dir.Ring(), 1, "server-2")...)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	ackedAdd(t, ec, dir, c.want, lost)
	ec.CrashServer("server-0")
	ec.StartServer("server-0")
	c.op = func(r *cluster.Rebalancer) (*cluster.RebalanceStats, error) {
		return r.AddServer(ctx, "server-0")
	}
	return c
}

func TestMembershipChangeConvergesFromEveryCut(t *testing.T) {
	migration := []cluster.TripKind{cluster.TripSnapshot, cluster.TripArrive, cluster.TripDepart}
	replicated := append([]cluster.TripKind{cluster.TripPlace}, migration...)
	recovery := append([]cluster.TripKind{cluster.TripPromote}, replicated...)
	table := []struct {
		name  string
		build func(t *testing.T) cutCase
		kinds []cluster.TripKind
	}{
		{"AddServer/R=1", addCase(1), migration},
		{"AddServer/R=2", addCase(2), replicated},
		{"RemoveServer/R=1", removeCase(1), migration},
		{"RemoveServer/R=2", removeCase(2), replicated},
		{"FailoverServer/R=3", failoverCase, recovery},
		{"AddServer-orphan-rescue/R=2", rescueCase, recovery},
	}
	for _, row := range table {
		for _, kind := range row.kinds {
			// Cut from the n-th trip of the kind on, for every n the
			// operation reaches; stop once the cut no longer fires.
			// A cell that is filtered out by -run, or fails, ends the sweep.
			for n := 1; ; n++ {
				fired := false
				ok := t.Run(fmt.Sprintf("%s/%s/%d", row.name, kind, n), func(t *testing.T) {
					fired = cutOnce(t, row.build(t), kind, n)
					if n == 1 && !fired {
						t.Errorf("%s takes no %s trip; the table row is wrong", row.name, kind)
					}
				})
				if !ok || !fired {
					break
				}
			}
		}
	}
}

// cutOnce runs one cell of the table and reports whether the cut fired (it
// does not once n exceeds the number of trips of the kind).
func cutOnce(t *testing.T, c cutCase, kind cluster.TripKind, n int) bool {
	ctx := context.Background()
	faulty := cluster.NewRebalancer(c.dir)
	probe, fired := cutFrom(kind, n)
	faulty.SetProbe(probe)
	_, err := c.op(faulty)
	if !fired() {
		if err != nil {
			t.Fatalf("uncut run failed: %v", err)
		}
	} else if !errors.Is(err, errInjected) {
		t.Fatalf("cut run error = %v, want the injected fault", err)
	}

	if c.live && fired() {
		// No state is lost mid-way: every name reads back its value at
		// whichever members bind it (old home, or both homes in the
		// arrive/depart window).
		for name, value := range c.want {
			holders := 0
			for _, s := range c.ec.Servers {
				for _, b := range s.Node.Manifest() {
					if b.Name != name {
						continue
					}
					holders++
					res, err := c.ec.Client.Call(ctx, b.Ref, "Get")
					if err != nil {
						t.Fatalf("read %s at %s after the cut: %v", name, s.Endpoint, err)
					}
					if got := res[0].(int64); got != value {
						t.Errorf("%s = %d at %s after the cut run, want %d", name, got, s.Endpoint, value)
					}
				}
			}
			if holders == 0 {
				t.Errorf("%s is bound nowhere after the cut run", name)
			}
			if n > 1 {
				// Some flows completed and others did not, so a directory
				// that refreshes now may route to a home the name has not
				// reached yet (DESIGN.md, "In-flight windows") — a routing
				// window, not lost state.
				continue
			}
			// Every flow died at the same trip, and the live ring is
			// committed last: the directory never answers NotBound.
			ref, err := c.dir.Lookup(ctx, name)
			if err != nil {
				t.Fatalf("lookup %s after the cut: %v", name, err)
			}
			res, err := c.ec.Client.Call(ctx, ref, "Get")
			if err != nil {
				t.Fatalf("read %s through the directory after the cut: %v", name, err)
			}
			if got := res[0].(int64); got != value {
				t.Errorf("%s = %d through the directory after the cut run, want %d", name, got, value)
			}
		}
	}

	retry, err := c.op(cluster.NewRebalancer(c.dir))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if fired() && kind == cluster.TripDepart && n == 1 && retry.Moved != c.moving {
		t.Errorf("retry after the depart cut moved %d, want all %d leftovers", retry.Moved, c.moving)
	}
	checkConverged(t, c.ec, c.dir, c.want)
	if c.post != nil {
		c.post(t)
	}
	if again, err := c.op(cluster.NewRebalancer(c.dir)); err != nil || again.Moved != 0 || again.Promoted != 0 {
		t.Errorf("third call = %+v, %v; want a converged no-op", again, err)
	}
	return fired()
}

// TestOrphanRescueSparesHalfRemovedMember: a name shadowed in the ring but
// bound on no MEMBER is not necessarily an orphan. A RemoveServer that died
// after its broadcast leaves the victim out of every node's ring yet alive
// and still binding its names; rescuing those names from their (older)
// shadows would fork them, and the fork would win — the later drain of the
// victim finds the name already adopted at its home and drops the
// authoritative copy. Chaos seed 59 found this as a lost acked flush.
func TestOrphanRescueSparesHalfRemovedMember(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	want := map[string]int64{}
	name := namesWithOwners(t, dir.Ring(), 1, "server-1", "server-2")[0]
	bindAll(ec, dir, want, name)
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}

	// The removal dies between its broadcast and its drain.
	faulty := cluster.NewRebalancer(dir)
	probe, _ := cutFrom(cluster.TripArrive, 1)
	faulty.SetProbe(probe)
	if _, err := faulty.RemoveServer(ctx, "server-1"); !errors.Is(err, errInjected) {
		t.Fatalf("cut RemoveServer error = %v, want the injected fault", err)
	}
	// The victim's copy moves ahead of every shadow.
	ref, err := ec.Server("server-1").Reg.Lookup(name)
	if err != nil {
		t.Fatalf("%s left the half-removed victim: %v", name, err)
	}
	if _, err := ec.Client.Call(ctx, ref, "Add", int64(7)); err != nil {
		t.Fatal(err)
	}
	want[name] += 7

	// An operator converges on the broadcast membership, then retries the
	// removal.
	fresh := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(2))
	st, err := cluster.NewRebalancer(fresh).AddServer(ctx, "server-0")
	if err != nil {
		t.Fatalf("AddServer(server-0): %v", err)
	}
	if fresh.Ring().Contains("server-1") {
		t.Fatal("the broadcast membership still lists the victim; the scenario is wrong")
	}
	if st.Promoted != 0 {
		t.Errorf("rescue promoted %d names bound at the live, half-removed server-1", st.Promoted)
	}
	if _, err := cluster.NewRebalancer(fresh).RemoveServer(ctx, "server-1"); err != nil {
		t.Fatalf("retried RemoveServer: %v", err)
	}
	checkConverged(t, ec, fresh, want)
}

// TestReplicatedAddServerRoundTrips pins the cost of the replicated control
// plane, so "one mechanism, same trips" is asserted rather than assumed: an
// R=2 scale-out from 3 to 4 servers with 8 names moving and 8 staying, then
// the same call again — the pure re-placement pass a converged cluster pays.
// Totals are client round trips: the trips plus the unbatched control calls
// (ring refresh and broadcast, manifests, shard listings). They were
// measured on the control plane this one replaced, which took the same 18
// place trips; the R=1 counterpart is internal/bench's
// TestRebalanceRoundTrips.
func TestReplicatedAddServerRoundTrips(t *testing.T) {
	ec := clustertest.New(t, 4)
	base := []string{"server-0", "server-1", "server-2"}
	dir := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(2))
	grown := cluster.NewRing(append(base, "server-3"), cluster.WithReplication(2))
	moving, staying := 0, 0
	for i := 0; moving < 8 || staying < 8; i++ {
		name := fmt.Sprintf("pin-%d", i)
		n := &staying
		if grown.Route(name) == "server-3" {
			n = &moving
		}
		if *n < 8 {
			*n++
			ec.BindCounter(dir, name, int64(i))
		}
	}

	var mu sync.Mutex
	trips := map[cluster.TripKind]int{}
	reb := cluster.NewRebalancer(dir)
	reb.SetProbe(func(k cluster.TripKind, _ string, _ []string) error {
		mu.Lock()
		defer mu.Unlock()
		trips[k]++
		return nil
	})
	for _, pass := range []struct {
		name  string
		moved int
		calls uint64
		trips map[cluster.TripKind]int
	}{
		// Snapshot trips: one per primary for the pre-seed (3) and the final
		// placement (4), plus one per migration flow (3).
		{"scale-out", 8, 66, map[cluster.TripKind]int{
			cluster.TripSnapshot: 10, cluster.TripArrive: 3, cluster.TripPlace: 18, cluster.TripDepart: 3}},
		{"re-placement", 0, 63, map[cluster.TripKind]int{
			cluster.TripSnapshot: 8, cluster.TripPlace: 18}},
	} {
		clear(trips)
		before := ec.Client.CallCount()
		st, err := reb.AddServer(context.Background(), "server-3")
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		if st.Moved != pass.moved {
			t.Errorf("%s moved %d names, want %d", pass.name, st.Moved, pass.moved)
		}
		if got := ec.Client.CallCount() - before; got != pass.calls {
			t.Errorf("%s cost %d client round trips, want %d", pass.name, got, pass.calls)
		}
		if fmt.Sprint(trips) != fmt.Sprint(pass.trips) {
			t.Errorf("%s trips = %v, want %v", pass.name, trips, pass.trips)
		}
	}
}

// TestSnapshotTripOneRoundTrip: reading K=16 objects off one server is one
// multi-root flush — one client round trip — and the states come back in
// item order.
func TestSnapshotTripOneRoundTrip(t *testing.T) {
	const k = 16
	ec := clustertest.New(t, 1)
	dir := cluster.NewDirectory(ec.Client, []string{"server-0"})
	names := make([]string, k)
	refs := make([]wire.Ref, k)
	for i := range names {
		names[i] = fmt.Sprintf("snap-%d", i)
		refs[i] = ec.BindCounter(dir, names[i], int64(100+i))
	}
	before := ec.Client.CallCount()
	states, err := cluster.NewRebalancer(dir).SnapshotTrip(context.Background(), "server-0", names, refs)
	if err != nil {
		t.Fatal(err)
	}
	if got := ec.Client.CallCount() - before; got != 1 {
		t.Errorf("snapshot trip over %d roots cost %d client round trips, want 1", k, got)
	}
	if len(states) != k {
		t.Fatalf("snapshot trip returned %d states, want %d", len(states), k)
	}
	for i, st := range states {
		if cs, ok := st.(*clustertest.CounterState); !ok || cs.N != int64(100+i) {
			t.Errorf("state %d = %+v, want counter %d", i, st, 100+i)
		}
	}
}
