package cluster_test

// Named roots passed by reference to another server: the flush looks them up
// before it plans (one lookup each), yet their own waves keep addressing them
// by name — which is what a replicated wave ships under — unless the binding
// lives away from the name's home. A stale-route retry that re-homes such a
// root keeps the reference its consumers need.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
)

// TestForwardedRootReplicatesAfterStaleLookup: an R=3 client whose ring is
// one epoch behind forwards a named root whose home moved. The lookup is
// refused wrong-home, refreshes the ring and finds the root at its new home:
// the root is where its name routes, so its wave still travels by name,
// carries a ship directive at the fresh epoch, and both followers hold the
// record.
func TestForwardedRootReplicatesAfterStaleLookup(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	base := ec.Endpoints()[:3]
	admin := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(3))
	stale := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(3))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(3))
	moving := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-3", 1)[0]
	staying := clustertest.PickNames(admin.Ring(), grown, "server-1", "server-1", 1)[0]
	ec.BindCounter(admin, moving, 0)
	ec.BindCounter(admin, staying, 0)
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-3"); err != nil {
		t.Fatal(err)
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	pm, err := b.RootNamed(ctx, moving)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := b.RootNamed(ctx, staying)
	if err != nil {
		t.Fatal(err)
	}
	f := pm.Call("Add", int64(5))
	g := ps.Call("Apply", int64(7), pm) // forwards pm to server-1
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 5 {
		t.Errorf("Add = %v, %v; want 5", v, err)
	}
	if v, err := cluster.Typed[int64](g).Get(); err != nil || v != 7 {
		t.Errorf("Apply = %v, %v; want 7", v, err)
	}
	if b.StaleRetried() || b.Waves() != 1 {
		t.Errorf("StaleRetried = %v after %d waves; want one wave, the lookup having refreshed the ring", b.StaleRetried(), b.Waves())
	}
	for name, token := range map[string]int64{moving: 5, staying: 7} {
		owners, _ := admin.Owners(name)
		if got := counterAt(t, ec, owners[0], name).History(); !reflect.DeepEqual(got, []int64{token}) {
			t.Errorf("%s's primary %s applied %v, want [%d]", name, owners[0], got, token)
		}
		for _, f := range owners[1:] {
			if got := shadowHistory(t, ec, f, owners[0], name); !reflect.DeepEqual(got, []int64{token}) {
				t.Errorf("%s's follower %s replayed %v, want [%d]", name, f, got, token)
			}
		}
	}
}

// TestBoundAwayRootRefusedReplicated: at R=2 a name whose home binds it to an
// object on another server cannot replicate — a wave replicates under names
// its primary resolves itself, and no server resolves this one to where it
// lives — so that destination fails typed and is sent nothing, whether the
// flush learned the binding from a lookup (the root was forwarded) or from
// the home's refusal. The rest of the flush runs.
func TestBoundAwayRootRefusedReplicated(t *testing.T) {
	for _, forwarded := range []bool{false, true} {
		t.Run(map[bool]string{false: "refused", true: "forwarded"}[forwarded], func(t *testing.T) {
			ec, dir, _, away, home, _ := directiveCluster(t)
			ctx := context.Background()
			name := namesAt(dir, home, 1)[0]
			far := clustertest.NewCounter(0)
			ref, err := ec.Server(away).Peer.Export(far, clustertest.CounterIface)
			if err != nil {
				t.Fatal(err)
			}
			ec.Server(home).Reg.Rebind(name, ref)

			b := cluster.New(ec.Client, cluster.WithDirectory(dir))
			p, err := b.RootNamed(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			f := p.Call("Add", int64(1))
			var g *cluster.Future
			if forwarded {
				q, err := b.RootNamed(ctx, "obj-0") // homed on a third server
				if err != nil {
					t.Fatal(err)
				}
				g = q.Call("Apply", int64(2), p)
			}
			err = b.Flush(ctx)
			var bae *cluster.BoundAwayError
			var fe *cluster.FlushError
			if !errors.As(err, &bae) || bae.Name != name || bae.Ref != ref || !errors.As(err, &fe) || len(fe.Failures) != 1 || fe.Failures[0].Endpoint != away {
				t.Fatalf("flush = %v; want one failed destination, %s, with *cluster.BoundAwayError for %q", err, away, name)
			}
			if _, err := f.Get(); !errors.As(err, &bae) {
				t.Errorf("Add = %v; want the *cluster.BoundAwayError", err)
			}
			if h := far.History(); len(h) != 0 {
				t.Errorf("the object bound away executed %v", h)
			}
			if g != nil {
				if v, err := cluster.Typed[int64](g).Get(); err != nil || v != 102 {
					t.Errorf("Apply on obj-0 = %v, %v; want 102", v, err)
				}
			}
		})
	}
}

// TestRetryKeepsForwardedRootRef: a stale-route retry re-homes every root of a
// refused destination, also one that did not move. A named root some later
// wave passes to another server keeps the ref it was looked up by ("kept"),
// and one the re-plan newly splits from its consumer is looked up before the
// retried wave ("split"): the calls that forward them go through, and every
// call runs exactly once. The kept arm runs on an R=2 ring, where pm's Add
// feeds a later-wave call on server-1 (its value is staged until its quorum
// holds it). The split arm runs unreplicated: a replicating destination would
// refuse pm taking ps, another of its roots (ErrCrossRoot), so pm's Add is
// pushed to server-1 inside the retried wave.
func TestRetryKeepsForwardedRootRef(t *testing.T) {
	for _, split := range []bool{false, true} {
		t.Run(map[bool]string{false: "kept", true: "split"}[split], func(t *testing.T) {
			ec := clustertest.New(t, 3)
			ctx := context.Background()
			before := ec.Endpoints()[:2]
			repl := cluster.WithReplication(map[bool]int{false: 2, true: 1}[split])
			live := cluster.NewDirectory(ec.Client, before, repl)
			grown := cluster.NewRing(ec.Endpoints(), repl)
			staying := clustertest.PickNames(live.Ring(), grown, "server-0", "server-0", 1)[0]
			moving := clustertest.PickNames(live.Ring(), grown, "server-0", "server-2", 1)[0]
			other := clustertest.PickNames(live.Ring(), grown, "server-1", "server-1", 1)[0]
			ec.BindCounter(live, staying, 40)
			ec.BindCounter(live, moving, 0)
			ec.BindCounter(live, other, 0)
			stale := cluster.NewDirectory(ec.Client, before, repl)
			if _, err := cluster.NewRebalancer(live).AddServer(ctx, "server-2"); err != nil {
				t.Fatal(err)
			}

			b := cluster.New(ec.Client, cluster.WithDirectory(stale))
			ps, _ := b.RootNamed(ctx, staying)
			pm, _ := b.RootNamed(ctx, moving)
			po, _ := b.RootNamed(ctx, other)
			t0 := pm.Call("Add", int64(2)) // refused at the old home, retried at server-2
			var fwd *cluster.Future
			if split {
				fwd = pm.Call("AddRemote", ps) // same server as recorded; split by the retry
			} else {
				fwd = po.Call("AddRemote", ps) // looked up before the first wave
			}
			later := po.Call("Apply", t0, ps) // on server-1: a later wave when kept
			if err := b.Flush(ctx); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if w := b.Waves(); w != map[bool]int{false: 3, true: 2}[split] {
				t.Errorf("flush took %d waves", w)
			}
			if v, err := cluster.Typed[int64](fwd).Get(); err != nil || v != 40+map[bool]int64{false: 0, true: 2}[split] {
				t.Errorf("AddRemote = %v, %v", v, err)
			}
			if v, err := cluster.Typed[int64](later).Get(); err != nil || v != 2+map[bool]int64{false: 40, true: 0}[split] {
				t.Errorf("Apply in the later wave = %v, %v", v, err)
			}
			if !b.StaleRetried() {
				t.Error("the flush never retried: the test's stale route did not happen")
			}
			if got := counterAt(t, ec, "server-2", moving).History(); len(got) != map[bool]int{false: 1, true: 2}[split] {
				t.Errorf("%s at server-2 executed %v", moving, got)
			}
		})
	}
}
