package cluster_test

// The cluster's two cost claims, pinned as counts: a wave costs one round-trip
// time however many servers it reaches, and a scale-out costs a fixed number
// of client round trips however many objects it moves.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestWaveTimeIsOneRTT: on four servers behind links with RTT r, a
// dependency-free flush reaches all four in one wave and one r of (virtual)
// time, where flushing the same calls server by server as core batches takes
// 4r. A recording whose values cross servers D times in a row still costs one
// wave — one trip per server — and r plus one server-to-server delay of r/2
// per crossing: each value goes from its producer's server straight to its
// consumer's. The virtual clock makes elapsed time a count of link delays; a
// send the host schedules later than the clock's quiet window departs one
// delay late. A hop is a hand-off through several goroutines — the push's
// delivery, the consumer's replay, the next push — which under the race
// detector outlasted the default 200 µs window in about 1 flush in 20, and a
// 2 ms window on a host loaded by another test binary; the window here is
// 10 ms, as in TestConvergedReAddCriticalPath, and the bounds stay half-open
// by one r.
func TestWaveTimeIsOneRTT(t *testing.T) {
	const r = 10 * time.Millisecond
	clk := netsim.NewVirtualClock()
	clk.SetGrace(10 * time.Millisecond)
	t.Cleanup(clk.Stop)
	network := netsim.New(netsim.Profile{Name: "rtt", RTT: r}, netsim.WithClock(clk))
	t.Cleanup(func() { _ = network.Close() })
	tc := clustertest.New(t, 4, clustertest.WithNetwork(network))
	refs := tc.Refs()
	ctx := context.Background()
	elapsed := func(flush func() error) time.Duration {
		t.Helper()
		start := clk.Now()
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		return clk.Now().Sub(start)
	}

	b := cluster.New(tc.Client)
	for _, ref := range refs {
		b.Root(ref).Call("Add", int64(1))
		b.Root(ref).Call("Add", int64(2))
	}
	before := tc.Client.CallCount()
	d := elapsed(func() error { return b.Flush(ctx) })
	if trips, waves := tc.Client.CallCount()-before, b.Waves(); trips != 4 || waves != 1 {
		t.Errorf("dependency-free flush over 4 servers: %d trips in %d waves, want 4 in 1", trips, waves)
	}
	if d < r || d >= 2*r {
		t.Errorf("dependency-free flush over 4 servers took %v, want [%v, %v)", d, r, 2*r)
	}

	d = elapsed(func() error {
		for _, ref := range refs {
			cb := core.New(tc.Client, ref)
			cb.Root().Call("Add", int64(1))
			cb.Root().Call("Add", int64(2))
			if err := cb.Flush(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if d < 4*r {
		t.Errorf("the same calls as 4 sequential core batches took %v, want at least %v", d, 4*r)
	}

	// One chain starts on each server; hop s of chain c runs on server
	// (c+s) mod 4 and consumes hop s-1's value, so every hop's calls reach all
	// four servers and every edge crosses servers. The hops are recorded one
	// after the other, each across the four chains: a server replays in
	// recording order, so a chain's hop never queues behind a later hop of
	// another chain.
	for depth := 0; depth <= 3; depth++ {
		b := cluster.New(tc.Client)
		lasts := make([]*cluster.Future, len(refs))
		for s := 0; s <= depth; s++ {
			for c := range refs {
				root := b.Root(refs[(c+s)%len(refs)])
				if s == 0 {
					lasts[c] = root.Call("Add", int64(c))
				} else {
					lasts[c] = root.Call("Apply", int64(s), lasts[c])
				}
			}
		}
		before := tc.Client.CallCount()
		d := elapsed(func() error { return b.Flush(ctx) })
		if trips := tc.Client.CallCount() - before; trips != 4 || b.Waves() != 1 {
			t.Errorf("depth %d: %d trips in %d waves, want 4 in 1", depth, trips, b.Waves())
		}
		if lo := r + time.Duration(depth)*r/2; d < lo || d >= lo+r {
			t.Errorf("depth %d took %v, want [%v, %v)", depth, d, lo, lo+r)
		}
		for c, f := range lasts {
			if err := f.Err(); err != nil {
				t.Errorf("depth %d chain %d: %v", depth, c, err)
			}
		}
	}
}

// TestScaleOutTripsIndependentOfObjects: growing three servers to four while
// K objects move to the newcomer costs 11 client round trips of control —
// the ring refresh (3), its broadcast (4) and the manifests (4) — plus one
// snapshot, one arrive and one depart trip per (source, destination) flow,
// whatever K is. Every moved object keeps its state.
func TestScaleOutTripsIndependentOfObjects(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			ec := clustertest.New(t, 4)
			base := []string{"server-0", "server-1", "server-2"}
			dir := cluster.NewDirectory(ec.Client, base)
			grown := cluster.NewRing(append(base, "server-3"))
			var names []string
			for i := 0; len(names) < k; i++ {
				if name := fmt.Sprintf("obj-%d", i); grown.Route(name) == "server-3" {
					ec.BindCounter(dir, name, int64(i))
					names = append(names, name)
				}
			}

			before := ec.Client.CallCount()
			st, err := cluster.NewRebalancer(dir).AddServer(ctx, "server-3")
			if err != nil {
				t.Fatal(err)
			}
			trips := ec.Client.CallCount() - before
			if st.Moved != k {
				t.Errorf("moved %d objects, want %d", st.Moved, k)
			}
			if want := uint64(11 + 3*st.Pairs); trips != want {
				t.Errorf("scale-out over %d flows cost %d client round trips, want %d", st.Pairs, trips, want)
			}

			for _, name := range names {
				ref, err := dir.Lookup(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ec.Client.Call(ctx, ref, "Get")
				if err != nil {
					t.Fatal(err)
				}
				var seed int64
				if _, err := fmt.Sscanf(name, "obj-%d", &seed); err != nil {
					t.Fatal(err)
				}
				if ref.Endpoint != "server-3" || res[0] != seed {
					t.Errorf("%s: %v at %s after the scale-out, want %d at server-3", name, res[0], ref.Endpoint, seed)
				}
			}
		})
	}
}

// TestConvergedReAddCriticalPath: placing an R=3 cluster of four servers and
// then re-adding one of its members — the placement call every replicated
// deployment makes — on links with RTT r. Neither mints an epoch, so its
// fence is its ring refresh: one client phase, one trip per member in
// parallel, that flips its ring, seeds its followers — one server-to-server
// hop, the primaries' Installs — and reads its name table and replicas.
// First placement and settled re-add alike cost 4 calls in 2r of virtual
// time. Bounds are half-open by one r, as in TestWaveTimeIsOneRTT.
func TestConvergedReAddCriticalPath(t *testing.T) {
	const r = 10 * time.Millisecond
	clk := netsim.NewVirtualClock()
	// Four primaries snapshot and encode their Installs at once; with a 2 ms
	// quiet window one of them stalled past it about 1 run in 20 under
	// -race, and the clock moved on a hop before its Installs left.
	clk.SetGrace(10 * time.Millisecond)
	t.Cleanup(clk.Stop)
	network := netsim.New(netsim.Profile{Name: "rtt", RTT: r}, netsim.WithClock(clk))
	t.Cleanup(func() { _ = network.Close() })
	ec := clustertest.New(t, 4, clustertest.WithNetwork(network))
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
	for i := 0; i < 16; i++ {
		ec.BindCounter(dir, fmt.Sprintf("kv-%d", i), int64(i))
	}
	ctx := context.Background()
	reb := cluster.NewRebalancer(dir)
	for _, pass := range []struct {
		name  string
		calls uint64
		rtts  time.Duration
	}{
		{"first placement", 4, 2},
		{"converged re-add", 4, 2},
	} {
		before, start := ec.Client.CallCount(), clk.Now()
		st, err := reb.AddServer(ctx, "server-0")
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		d := clk.Now().Sub(start)
		if calls := ec.Client.CallCount() - before; calls != pass.calls || st.Moved != 0 || st.Promoted != 0 {
			t.Errorf("%s: %d client calls, %d moved, %d promoted; want %d calls, nothing moved", pass.name, calls, st.Moved, st.Promoted, pass.calls)
		}
		if lo := pass.rtts * r; d < lo || d >= lo+r {
			t.Errorf("%s took %v, want [%v, %v)", pass.name, d, lo, lo+r)
		}
	}
}
