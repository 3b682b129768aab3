package cluster_test

// The cost model of a name-addressed flush, pinned in remote calls issued by
// the client (rmi.Peer.CallCount) from before RootNamed to after Flush: a
// flush costs its waves — one call per distinct destination per wave — and
// no lookups; a stale ring costs one refresh fan-out and one extra wave on
// top; and whatever a home cannot resolve comes back through the flush.

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
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

// recordDataflow records brmibench's cluster_dataflow shape over roots:
// a_i = root_i.Add(1), b_i = root_(i+1).Add(a_i), c = root_0.Add(b_last).
func recordDataflow(roots []*cluster.Proxy) []*cluster.Future {
	n := len(roots)
	var futs []*cluster.Future
	for i := 0; i < n; i++ {
		futs = append(futs, roots[i].Call("Add", int64(1)))
	}
	for i := 0; i < n; i++ {
		futs = append(futs, roots[(i+1)%n].Call("Add", futs[i]))
	}
	return append(futs, roots[0].Call("Add", futs[2*n-1]))
}

// flushDataflow binds one fresh name per entry of homes (a server index
// each), flushes the cluster_dataflow shape over them from client and returns
// what that cost from RootNamed to Flush: remote calls issued by the client,
// and waves.
func flushDataflow(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer, dir *cluster.Directory, homes []int) (calls uint64, waves int) {
	t.Helper()
	ctx := context.Background()
	perHome := make(map[int]int)
	for _, h := range homes {
		perHome[h]++
	}
	free := make(map[int][]string)
	for h, count := range perHome {
		free[h] = namesAt(dir, ec.Endpoints()[h], count)
	}
	names := make([]string, len(homes))
	for i, h := range homes {
		names[i], free[h] = free[h][0], free[h][1:]
		ec.BindCounter(dir, names[i], 0)
	}

	before := client.CallCount()
	b := cluster.New(client, cluster.WithDirectory(dir))
	roots := make([]*cluster.Proxy, len(names))
	for i, name := range names {
		var err error
		if roots[i], err = b.RootNamed(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	futs := recordDataflow(roots)
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	// Wherever the roots live: every a_i is its root's first Add, every b_i its
	// second, and c adds b_3 to the root that holds a_0 and b_3.
	for i, want := range []int64{1, 1, 1, 1, 2, 2, 2, 2, 4} {
		if got, err := cluster.Typed[int64](futs[i]).Get(); err != nil || got != want {
			t.Errorf("call %d = %d, %v; want %d", i, got, err, want)
		}
	}
	return client.CallCount() - before, b.Waves()
}

// TestNamedFlushCostsItsWaves: brmibench's cluster_dataflow shape — 4 named
// roots, 9 calls — with two of the roots sharing a home costs exactly one
// round trip per distinct home, in one wave: every a_i → b_i edge that
// crosses servers is a push between them.
func TestNamedFlushCostsItsWaves(t *testing.T) {
	ec := clustertest.New(t, 3)
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	calls, waves := flushDataflow(t, ec, ec.Client, dir, []int{0, 0, 1, 2})
	if calls != 3 {
		t.Errorf("4 named roots / 9 calls over 2+1+1 homes cost %d remote calls, want 3: one per home and no lookups", calls)
	}
	if waves != 1 {
		t.Errorf("flush took %d waves, want 1", waves)
	}
}

// TestDataflowCostByPlacement: what the same nine calls cost is decided by
// where the roots live, and by nothing else — one round trip per distinct
// home (D0: every root has an a_i), all in one wave, however many of the
// a_i → b_i edges cross servers.
func TestDataflowCostByPlacement(t *testing.T) {
	for _, tc := range []struct {
		name  string
		homes []int
		calls uint64
	}{
		{"co-located", []int{0, 0, 0, 0}, 1},
		{"four homes", []int{0, 1, 2, 3}, 4},
		{"pairs, adjacent", []int{0, 0, 1, 1}, 2},
		{"pairs, alternating", []int{0, 1, 0, 1}, 2},
		{"3+1", []int{0, 0, 0, 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d0 := make(map[int]bool)
			for _, h := range tc.homes {
				d0[h] = true
			}
			if model := uint64(len(d0)); model != tc.calls {
				t.Fatalf("table says %d calls, D0 = %d", tc.calls, model)
			}
			ec := clustertest.New(t, 4)
			dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
			calls, waves := flushDataflow(t, ec, ec.Client, dir, tc.homes)
			if calls != tc.calls || waves != 1 {
				t.Errorf("cost %d remote calls in %d waves, want %d in 1", calls, waves, tc.calls)
			}
		})
	}
}

// TestNamedFlushStaleRingCostsRefreshAndWave: the client's ring is one epoch
// behind, and a value ping-pongs four times between a staying root and the
// moved one, in one wave. The moved root's old home refuses its request; the
// client tells the staying root's server at once that the value it waits for
// will not come, so that request answers with its consumer failed, unexecuted.
// The flush then refreshes once, re-routes the root, and runs the refused
// calls and the failed consumer again, in one more wave — as two requests
// when the new home is the staying root's own server (a shrink), whose
// values go from one to the other in the server's own rendezvous table. No
// lookup anywhere.
func TestNamedFlushStaleRingCostsRefreshAndWave(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after []string
		to            string
		change        func(context.Context, *cluster.Rebalancer) error
		refresh       uint64
	}{
		{"grow", []string{"server-0", "server-1"}, []string{"server-0", "server-1", "server-2"}, "server-2",
			func(ctx context.Context, r *cluster.Rebalancer) error {
				_, err := r.AddServer(ctx, "server-2")
				return err
			}, 2},
		{"shrink", []string{"server-0", "server-1", "server-2"}, []string{"server-1", "server-2"}, "server-1",
			func(ctx context.Context, r *cluster.Rebalancer) error {
				_, err := r.RemoveServer(ctx, "server-0")
				return err
			}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ec := clustertest.New(t, 3)
			ctx := context.Background()
			live := cluster.NewDirectory(ec.Client, tc.before)
			moving := clustertest.PickNames(live.Ring(), cluster.NewRing(tc.after), "server-0", tc.to, 1)[0]
			staying := clustertest.PickNames(live.Ring(), cluster.NewRing(tc.after), "server-1", "server-1", 1)[0]
			ec.BindCounter(live, moving, 10)
			ec.BindCounter(live, staying, 1)
			stale := cluster.NewDirectory(ec.Client, tc.before)
			if err := tc.change(ctx, cluster.NewRebalancer(live)); err != nil {
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
			f0 := ps.Call("Add", int64(1)) // server-1: 2
			f1 := pm.Call("Add", f0)       // first contact with the old home: 12
			f2 := ps.Call("Add", f1)       // server-1, waiting for f1: 14
			f3 := pm.Call("Add", f2)       // at the new home: 26
			if err := b.Flush(ctx); err != nil {
				t.Fatalf("flush over a ring one epoch behind: %v", err)
			}
			for i, c := range []struct {
				f    *cluster.Future
				want int64
			}{{f0, 2}, {f1, 12}, {f2, 14}, {f3, 26}} {
				if v, err := cluster.Typed[int64](c.f).Get(); err != nil || v != c.want {
					t.Errorf("call %d = %v, %v; want %d", i, v, err, c.want)
				}
			}
			// The wave's two requests, the notice that f1 will not come, a
			// RingState from each member the stale ring knew, and the retry's
			// two requests: f1 and f3 at the new home, f2 again at server-1.
			if got, want := ec.Client.CallCount()-before, 2+1+tc.refresh+2; got != want {
				t.Errorf("flush cost %d remote calls, want %d: one wave, one notice, one refresh fan-out, one retry wave", got, want)
			}
			if w := b.Waves(); w != 2 || !b.StaleRetried() {
				t.Errorf("flush took %d waves, retried %v; want 2 and the retry spent", w, b.StaleRetried())
			}
			// Each call applied exactly once, f2 at the second attempt.
			for _, c := range []struct {
				name string
				want []int64
			}{{moving, []int64{2, 14}}, {staying, []int64{1, 12}}} {
				ref, err := live.Lookup(ctx, c.name)
				if err != nil {
					t.Fatal(err)
				}
				obj, _ := ec.Server(ref.Endpoint).Peer.LocalObject(ref.ObjID)
				if h := obj.(*clustertest.Counter).History(); !slices.Equal(h, c.want) {
					t.Errorf("%s at %s executed %v, want %v", c.name, ref.Endpoint, h, c.want)
				}
			}
			if got := clientCounter(ec, "cluster.lookup_retries"); got != 0 {
				t.Errorf("cluster.lookup_retries = %d, want 0: nothing looks names up", got)
			}
			if e := stale.Epoch(); e != live.Epoch() {
				t.Errorf("client ring at epoch %d after the flush, want %d", e, live.Epoch())
			}
		})
	}
}

// TestNamedFlushStaleRingSplitsValueEdge: two names share a home on the
// client's ring, with a value flowing from one into the other inside what is
// planned as one request; the refresh finds them on different homes. The
// retry sends each its own request and the value goes from one to the other
// as a push: the flush succeeds in the refused wave and its retry, with every
// call applied exactly once.
func TestNamedFlushStaleRingSplitsValueEdge(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	live := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
	staying := clustertest.PickNames(live.Ring(), grown, "server-0", "server-0", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, staying, 100)
	stale := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	before := ec.Client.CallCount()
	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	pm, _ := b.RootNamed(ctx, moving)
	ps, _ := b.RootNamed(ctx, staying)
	f0 := pm.Call("Add", int64(1)) // 11, wherever moving lives
	f1 := ps.Call("Add", f0)       // 111: one request with f0 on the stale ring, pushed to on the fresh one
	f2 := ps.Call("Add", f1)       // 222: rides with f1
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush over a ring one epoch behind: %v", err)
	}
	for i, c := range []struct {
		f    *cluster.Future
		want int64
	}{{f0, 11}, {f1, 111}, {f2, 222}} {
		if v, err := cluster.Typed[int64](c.f).Get(); err != nil || v != c.want {
			t.Errorf("call %d = %v, %v; want %d", i, v, err, c.want)
		}
	}
	// The refused wave, a RingState from each member the stale ring knew, and
	// the retry's requests to the producer's new home and the consumers'.
	if got := ec.Client.CallCount() - before; got != 1+2+1+1 {
		t.Errorf("flush cost %d remote calls, want 5", got)
	}
	if w := b.Waves(); w != 2 || !b.StaleRetried() {
		t.Errorf("flush took %d waves, retried %v; want 2 and the retry spent", w, b.StaleRetried())
	}
	// Each call applied exactly once, at the home the fresh ring names.
	for _, c := range []struct {
		name string
		want []int64
	}{{moving, []int64{1}}, {staying, []int64{11, 111}}} {
		ref, err := live.Lookup(ctx, c.name)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := ec.Server(ref.Endpoint).Peer.LocalObject(ref.ObjID)
		if h := obj.(*clustertest.Counter).History(); !slices.Equal(h, c.want) {
			t.Errorf("%s at %s executed %v, want %v", c.name, ref.Endpoint, h, c.want)
		}
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

// Fire runs the hook and returns n, for a later stage to take.
func (m *migrateOnCall) Fire(_ context.Context, n int64) (int64, error) {
	return n, m.hook()
}

// TestRetriedConsumerOfAPushedResultRefused: a remote result lives only in
// its wave. A root that migrated after the client last saw the ring refuses
// its request at first contact, while another server runs its part of the
// wave and pushes the remote result the refused request was to consume. The
// stale-route retry re-plans the consumer at the root's new home, where that
// result no longer lives: the consumer fails with *CrossWaveError wrapping its
// own destination's wrong-home refusal — not with *core.PushTimeoutError at
// the rendezvous bound — never runs, and fails the flush at its new home.
func TestRetriedConsumerOfAPushedResultRefused(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	live := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})
	moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
	keeping := clustertest.PickNames(live.Ring(), grown, "server-1", "server-1", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, keeping, 20)
	stale := cluster.NewDirectory(ec.Client, []string{"server-0", "server-1"})
	if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	pk, _ := b.RootNamed(ctx, keeping)
	pm, _ := b.RootNamed(ctx, moving)
	x := pk.CallBatch("Fork", int64(1)) // server-1: runs, and pushes x to server-0
	f := pm.Call("AddRemote", x)        // server-0 refuses: moving left for server-2
	start := time.Now()
	err := b.Flush(ctx)
	if !b.StaleRetried() {
		t.Fatalf("flush = %v without its stale-route retry", err)
	}
	var fe *cluster.FlushError
	if !errors.As(err, &fe) || len(fe.Failures) != 1 || fe.Failures[0].Endpoint != "server-2" || !errors.Is(fe.Failures[0].Err, f.Err()) {
		t.Fatalf("flush = %v, want a *FlushError naming the refused consumer at server-2", err)
	}
	var refused *cluster.CrossWaveError
	var wrong *rmi.WrongHomeError
	var timeout *core.PushTimeoutError
	if ferr := f.Err(); !errors.As(ferr, &refused) || !errors.As(ferr, &wrong) || errors.As(ferr, &timeout) {
		t.Fatalf("consumer = %v, want *CrossWaveError wrapping the wrong-home refusal", ferr)
	}
	if refused.Endpoint != "server-2" || refused.Method != "AddRemote" || refused.Producer != "Fork" {
		t.Errorf("refusal = %+v, want AddRemote on server-2 taking Fork", refused)
	}
	if took := time.Since(start); took >= 4*time.Second {
		t.Errorf("flush took %v: it waited out a rendezvous", took)
	}
	if err := x.Ok(); err != nil {
		t.Errorf("producer = %v, want it to have run", err)
	}
	if got := counterAt(t, ec, "server-2", moving).Get(); got != 10 {
		t.Errorf("%s = %d at its new home, want 10: the refused consumer ran", moving, got)
	}
}

// TestUnretriedWrongHomeStillRefreshes: a root migrates between two waves of
// one flush, after an earlier wave already ran at its old home. That
// wrong-home rejection, past the destination's first contact, cannot be
// retried — but it must still bring the client's ring up to date, or the
// client's next flush routes the name to the same dead home. The ring
// replicates (R=2) and every root is named, so every value that crosses
// servers is staged and server-0 gets a second request. The trigger is not
// movable: its wave ships to no follower, so the placement it starts finds no
// wave holding its server.
func TestUnretriedWrongHomeStillRefreshes(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	before := []string{"server-0", "server-1"}
	live := cluster.NewDirectory(ec.Client, before, cluster.WithReplication(2))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(2))
	moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
	keeping := clustertest.PickNames(live.Ring(), grown, "server-0", "server-0", 1)[0]
	firing := clustertest.PickNames(live.Ring(), grown, "server-1", "server-1", 1)[0]
	ec.BindCounter(live, moving, 10)
	ec.BindCounter(live, keeping, 20)
	if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-0"); err != nil {
		t.Fatalf("placement rebalance: %v", err)
	}
	stale := cluster.NewDirectory(ec.Client, before, cluster.WithReplication(2))
	trigger, err := ec.Server("server-1").Peer.Export(&migrateOnCall{hook: func() error {
		_, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2")
		return err
	}}, "cluster.MigrateOnCall")
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Bind(ctx, firing, trigger); err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	pt, _ := b.RootNamed(ctx, firing)
	pk, _ := b.RootNamed(ctx, keeping)
	pm, _ := b.RootNamed(ctx, moving)
	f0 := pk.Call("Add", int64(1)) // stage 0: server-0's first contact
	f1 := pt.Call("Fire", f0)      // stage 1: the cluster grows, moving leaves server-0
	f2 := pm.Call("Add", f1)       // stage 2: server-0's second request, which no longer has it
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
