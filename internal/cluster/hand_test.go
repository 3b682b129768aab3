package cluster_test

// Migration moves state server to server: a flow's source hands its moving
// names to their new home over its ordered replication link, the home
// promotes them, and the client carries names, never state.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestMigrationClientBytesIndependentOfState: AddServer from three servers
// to four moves K=8 names to the newcomer, and RemoveServer moves them back,
// at R=1 and at R=2. Run once with 1 KiB objects and once with 64 KiB ones,
// each operation costs the client the same bytes to within 1 KiB: the states
// travel between the servers, and each still arrives whole.
func TestMigrationClientBytesIndependentOfState(t *testing.T) {
	const k = 8
	for _, r := range []int{1, 2} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			small := migrationClientBytes(t, r, k, 1<<10)
			large := migrationClientBytes(t, r, k, 64<<10)
			for i, op := range []string{"AddServer", "RemoveServer"} {
				if d := large[i] - small[i]; d <= -1024 || d >= 1024 {
					t.Errorf("%s cost the client %d bytes with 1 KiB objects and %d with 64 KiB ones", op, small[i], large[i])
				}
			}
		})
	}
}

// migrationClientBytes runs the scale-out and the removal on a fresh
// four-server cluster with k moving blobs of size bytes, and returns the
// client's bytes, out and in, for each.
func migrationClientBytes(t *testing.T, r, k, size int) (spent [2]int64) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	base := ec.Endpoints()[:3]
	dir := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(r))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(r))
	var names []string
	for i := 0; len(names) < k; i++ {
		name := fmt.Sprintf("blob-%d", i)
		if grown.Route(name) != "server-3" {
			continue
		}
		home, _ := dir.Home(name)
		ref, err := ec.Server(home).Peer.Export(clustertest.NewBlob(size), clustertest.BlobIface)
		if err != nil {
			t.Fatal(err)
		}
		if err := dir.Bind(ctx, name, ref); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	bytes := func() int64 {
		s := ec.ClientStats.Snapshot()
		return s.Counter("transport.bytes_out") + s.Counter("transport.bytes_in")
	}
	reb := cluster.NewRebalancer(dir)
	for i, op := range []func() (*cluster.RebalanceStats, error){
		func() (*cluster.RebalanceStats, error) { return reb.AddServer(ctx, "server-3") },
		func() (*cluster.RebalanceStats, error) { return reb.RemoveServer(ctx, "server-3") },
	} {
		before := bytes()
		st, err := op()
		if err != nil {
			t.Fatal(err)
		}
		if st.Moved != k {
			t.Fatalf("moved %d names, want %d", st.Moved, k)
		}
		spent[i] = bytes() - before
		for _, name := range names {
			home, _ := dir.Home(name)
			ref, err := ec.Server(home).Reg.Lookup(name)
			if err != nil {
				t.Fatalf("%s at %s: %v", name, home, err)
			}
			obj, _ := ec.Server(home).Peer.LocalObject(ref.ObjID)
			if b, ok := obj.(*clustertest.Blob); !ok || b.Len() != size {
				t.Fatalf("%s arrived at %s as %v, want a blob of %d bytes", name, home, obj, size)
			}
		}
	}
	if spent[0] == 0 || spent[1] == 0 {
		t.Fatalf("client bytes %v: the client's transport counts nothing", spent)
	}
	t.Logf("%d-byte objects: AddServer %d client bytes, RemoveServer %d", size, spent[0], spent[1])
	return spent
}

// TestHandIsABarrier: at R=3 under W=2 the source's link to the name's new
// home is slowed, and a write lands at the source between the fence and the
// hand: its quorum is the source and the other follower, while the record is
// still on its way to the destination. The hand's Install queues behind that
// record, so once the hand is answered the destination has applied it, and
// the object it promotes holds the write. A write the source runs between the
// promote and the depart lands on its old copy and never on the promoted one.
func TestHandIsABarrier(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	const delay = 100 * time.Millisecond
	base := ec.Endpoints()[:3]
	dir := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(3))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(3))
	name := "obj-0"
	for i := 1; grown.Route(name) != "server-3"; i++ {
		name = fmt.Sprintf("obj-%d", i)
	}
	place(t, ec, dir, name)
	src, dst := dir.Ring().Route(name), "server-3"
	t.Cleanup(func() { ec.Network.KillConns(dst) })

	// write flushes token on name at src, routed by the ring src now holds.
	write := func(token int64, quorum int) error {
		cb := core.NewNamed(ec.Client, src, name)
		cb.Ship(&core.ShipDirective{Epoch: ec.Server(src).Node.Epoch(), Replication: 3, Quorum: quorum})
		cb.Root().Call("Add", token)
		if err := cb.Flush(ctx); err != nil {
			return fmt.Errorf("write %d at %s: %w", token, src, err)
		}
		return nil
	}
	// history reads the object name is bound to at dst, or the shadow of it
	// there under src's shard.
	history := func(shadow bool) []int64 {
		s := ec.Server(dst)
		if shadow {
			obj, ok := s.Replica.Shadow(src, name)
			if !ok {
				return nil
			}
			return obj.(*clustertest.Counter).History()
		}
		ref, err := s.Reg.Lookup(name)
		if err != nil {
			return nil
		}
		obj, _ := s.Peer.LocalObject(ref.ObjID)
		return obj.(*clustertest.Counter).History()
	}
	const before, after = 11, 13
	var mu sync.Mutex
	reb := cluster.NewRebalancer(dir)
	reb.SetProbe(func(k cluster.TripKind, endpoint string, _ []string) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case k == cluster.TripHand && endpoint == src:
			ec.Network.SetLinkFaults(src, dst, netsim.LinkFaults{ExtraLatency: delay})
			if err := write(before, 2); err != nil {
				return err
			}
			if slices.Contains(history(true), before) {
				return fmt.Errorf("%s applied write %d before its quorum answered; the link is not slow enough", dst, before)
			}
		case k == cluster.TripDepart && endpoint == src:
			// W=all: the record has reached the destination once this
			// returns.
			if err := write(after, 0); err != nil {
				return err
			}
			if got := history(false); slices.Contains(got, after) {
				t.Errorf("write %d at the source between the promote and the depart reached the promoted copy (%v)", after, got)
			}
		}
		return nil
	})
	if _, err := reb.AddServer(ctx, dst); err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	if got := history(false); !slices.Equal(got, []int64{before}) {
		t.Errorf("%s's promoted copy of %s holds %v, want the write the hand waited for, once: [%d]", dst, name, got, before)
	}
}

// TestPromoteRefusesLostHand: the destination dies with its state after the
// hand and comes back empty before the arrive trip. Its promote finds no
// handed shadow and fails the flow, so the depart never tombstones the only
// copy; the retry hands the name again and converges.
func TestPromoteRefusesLostHand(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints()[:2])
	grown := cluster.NewRing(ec.Endpoints())
	name := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-2", 1)[0]
	want := map[string]int64{name: 5}
	ec.BindCounter(dir, name, want[name])

	faulty := cluster.NewRebalancer(dir)
	faulty.SetProbe(func(k cluster.TripKind, _ string, _ []string) error {
		if k == cluster.TripArrive {
			ec.CrashServer("server-2")
			ec.StartServer("server-2")
		}
		return nil
	})
	if _, err := faulty.AddServer(ctx, "server-2"); err == nil {
		t.Fatal("AddServer whose destination lost the handed state succeeded")
	}
	if _, err := ec.Server("server-0").Reg.Lookup(name); err != nil {
		t.Fatalf("%s left its source without reaching its home: %v", name, err)
	}
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-2"); err != nil {
		t.Fatalf("retry: %v", err)
	}
	checkConverged(t, ec, dir, want)
}

// TestHandInstallsOnlyAtTheNewHome: an R=3 scale-out from three servers to
// four moves k names from server-0 to the newcomer in one flow. Its hand
// installs each name at the newcomer alone: k Installs between the hand and
// the arrive. Seeding each name's owners under the new ring, server-0 aside,
// cost 2k, half of them superseded by the newcomer's own placement one trip
// later. That placement, in the arrive trip, still seeds every other owner,
// so each holds a shadow of the name's written state under its new home.
func TestHandInstallsOnlyAtTheNewHome(t *testing.T) {
	const k, written = 4, 5
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints()[:3], cluster.WithReplication(3))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(3))
	names := clustertest.PickNames(dir.Ring(), grown, "server-0", "server-3", k)
	place(t, ec, dir, names...)
	want := make(map[string]int64, k)
	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	for _, name := range names {
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		p.Call("Add", int64(written))
		want[name] = written
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	installs := func() (n int64) {
		for _, s := range ec.Servers {
			n += s.Stats.Snapshot().Counter("cluster.replica_installs")
		}
		return n
	}
	var mu sync.Mutex
	hands, atHand, handed := 0, int64(0), int64(-1)
	reb := cluster.NewRebalancer(dir)
	reb.SetProbe(func(kind cluster.TripKind, _ string, _ []string) error {
		mu.Lock()
		defer mu.Unlock()
		switch kind {
		case cluster.TripHand:
			hands++
			atHand = installs()
		case cluster.TripArrive:
			handed = installs() - atHand
		}
		return nil
	})
	st, err := reb.AddServer(ctx, "server-3")
	if err != nil {
		t.Fatalf("AddServer: %v", err)
	}
	if st.Moved != k || hands != 1 {
		t.Fatalf("moved %d names in %d hands, want %d in 1", st.Moved, hands, k)
	}
	if handed != k {
		t.Errorf("the hand installed %d shadows, want %d: one per moving name, at its new home", handed, k)
	}
	checkConverged(t, ec, dir, want)
	for _, name := range names {
		owners, _ := dir.Owners(name)
		for _, f := range owners[1:] {
			obj, ok := ec.Server(f).Replica.Shadow(owners[0], name)
			if !ok || obj.(*clustertest.Counter).Get() != written {
				t.Errorf("%s's shadow of %s under %s = %v, want a seeded %d", f, name, owners[0], obj, written)
			}
		}
	}
}
