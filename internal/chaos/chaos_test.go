package chaos

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
)

// The chaos entry point: go test ./internal/chaos -chaos.iters=N
// -chaos.seed=S [-chaos.steps=K]. Iteration i simulates seed S+i.
var (
	chaosIters = flag.Int("chaos.iters", 6, "seeded chaos iterations TestChaos runs")
	chaosSeed  = flag.Int64("chaos.seed", 1, "base seed; iteration i uses seed+i")
	chaosSteps = flag.Int("chaos.steps", 25, "workload ops per iteration")
)

func TestChaos(t *testing.T) {
	iters := *chaosIters
	if testing.Short() && iters == 6 {
		// The default-iteration run inside `go test -short ./...` is a
		// smoke pass; CI's dedicated chaos step sets -chaos.iters
		// explicitly and is not reduced.
		iters = 2
	}
	for i := 0; i < iters; i++ {
		seed := *chaosSeed + int64(i)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res := Run(t, Config{Seed: seed, Steps: *chaosSteps, Faults: true})
			t.Log(res.summary())
			if res.Flushes == 0 {
				t.Errorf("workload ran no flushes; generator degenerate for seed %d", seed)
			}
		})
	}
}

// TestChaosPinnedSeeds replays seeds outside CI's fixed 1–25 that once
// failed, so a regression there cannot hide. 579, 584, 637, 1002, 1077 and
// 1248 failed quiesce when a removal shrank an R=2 ring to one member and
// placement still asked for two owners. 691 and 1454 lost acked writes: a
// removal died after its fence, leaving the member it removed outside the
// ring still binding its names, and a failover of another server promoted
// that server's stale shadow of one of them, left from when it was the
// name's primary (Replica.Release now drops it when the name departs). 1332
// loses acked writes when a fence that landed on some members only leaves a
// name bound away from its new home and no placement seeds it anywhere else.
func TestChaosPinnedSeeds(t *testing.T) {
	for _, seed := range []int64{579, 584, 637, 1002, 1077, 1248, 691, 1454, 1332} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res := Run(t, Config{Seed: seed, Steps: *chaosSteps, Faults: true})
			t.Log(res.summary())
		})
	}
}

// TestNoFaultCanary runs the same seeded workloads with the fault schedule
// disabled: on a healthy network every invariant must hold — if this fails,
// the harness (or the system) is broken independent of fault injection.
func TestNoFaultCanary(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		res := Run(t, Config{Seed: seed, Faults: false})
		if len(res.Violations) > 0 {
			t.Errorf("seed %d violated invariants on a healthy network", seed)
		}
		if res.FaultEvents != 0 {
			t.Errorf("canary run has %d fault events, want 0", res.FaultEvents)
		}
	}
}

// TestSameSeedSameSchedule pins the acceptance criterion: two runs with the
// same seed produce identical workload programs and fault schedules, end to
// end — the printed trace of a failing run is sufficient to reproduce it.
func TestSameSeedSameSchedule(t *testing.T) {
	cfg := Config{Seed: 7, Faults: true}.withDefaults()

	// Generator determinism, from two independent derivations.
	p1, p2 := genProgram(cfg), genProgram(cfg)
	if a, b := p1.trace(), p2.trace(); !slices.Equal(a, b) {
		t.Fatalf("same seed generated different programs:\n%s\nvs\n%s", indent(a), indent(b))
	}
	s1, s2 := genSchedule(cfg), genSchedule(cfg)
	if a, b := s1.trace(), s2.trace(); !slices.Equal(a, b) {
		t.Fatalf("same seed generated different fault schedules:\n%s\nvs\n%s", indent(a), indent(b))
	}
	if len(s1.Events) == 0 {
		t.Fatal("seed 7 generated an empty fault schedule; pick a livelier seed for this test")
	}

	// End-to-end: two full simulations report the identical schedule trace
	// (execution interleavings may differ; the schedule may not).
	r1 := runSim(t, cfg, p1, s1)
	r2 := runSim(t, cfg, p2, s2)
	if !slices.Equal(r1.ScheduleTrace, r2.ScheduleTrace) {
		t.Fatalf("same seed executed different schedules:\n%s\nvs\n%s",
			indent(r1.ScheduleTrace), indent(r2.ScheduleTrace))
	}
}

// TestShrinkMinimizesSchedule exercises the shrinker against a synthetic
// failure predicate: when exactly one event is the culprit, the greedy pass
// must strip everything else and keep it.
func TestShrinkMinimizesSchedule(t *testing.T) {
	sched := genSchedule(Config{Seed: 3, Faults: true}.withDefaults())
	if len(sched.Events) < 3 {
		t.Fatalf("seed 3 generated only %d events; test needs a fuller schedule", len(sched.Events))
	}
	culprit := sched.Events[len(sched.Events)/2]
	runs := 0
	run := func(s *Schedule) *Result {
		runs++
		for _, e := range s.Events {
			if e == culprit {
				return &Result{Violations: []string{"culprit present"}}
			}
		}
		return &Result{}
	}
	min, res := shrink(run, sched, &Result{Violations: []string{"culprit present"}})
	if len(min.Events) != 1 || min.Events[0] != culprit {
		t.Fatalf("shrink kept %d events %v, want exactly the culprit %v", len(min.Events), min.trace(), culprit.trace())
	}
	if len(res.Violations) == 0 {
		t.Fatal("shrink result lost the violations")
	}
	if runs > shrinkBudget {
		t.Fatalf("shrink spent %d runs, budget is %d", runs, shrinkBudget)
	}
}

// TestStaleRouteRetryDuringMigration reproduces PR 3's hand-written
// stale-route scenario through the harness's op vocabulary instead of
// bespoke setup: a flush recorded before a scale-out runs after it, and
// must recover via the wrong-home retry wave with every invariant intact.
// The moved name is chosen against the grown ring exactly like the original
// test; the fault schedule adds a mid-op connection kill on the old home,
// so the retry also rides a redial.
func TestStaleRouteRetryDuringMigration(t *testing.T) {
	cfg := Config{Seed: 77, Servers: 2, Spares: 1, Names: 4, Faults: true}.withDefaults()
	old := cluster.NewRing(cfg.endpoints())
	grown := cluster.NewRing(append(cfg.endpoints(), "spare-0"))
	moving := clustertest.PickNames(old, grown, "server-0", "spare-0", 1)[0]
	staying := clustertest.PickNames(old, grown, "server-1", "server-1", 1)[0]

	prog := &program{
		names: []string{moving, staying},
		ops: []op{
			// Warm both counters.
			{Kind: opFlush, Calls: []callSpec{
				{Name: moving, Token: 1_000_000, Dep: -1},
				{Name: staying, Token: 1_000_001, Dep: -1},
			}},
			// Record against the old homes, scale out, then flush: the
			// moving root's wave is rejected wrong-home and must retry at
			// the newcomer — and a call on the staying server consumes the
			// retried call's value in the next wave. (The moved
			// destination keeps a single stage: DESIGN.md rule 4 makes the
			// stale retry applicable only on a destination's last stage.)
			{Kind: opStaleFlush, Endpoint: "spare-0", Add: true, Calls: []callSpec{
				{Name: moving, Token: 1_000_002, Dep: -1},
				{Name: staying, Token: 1_000_003, Dep: 0},
			}},
		},
	}
	sched := &Schedule{Events: []Event{
		{Kind: EvKillConns, Step: 2, Until: 2, A: "server-0", Mid: true},
	}}

	res := runSim(t, cfg, prog, sched)
	if len(res.Violations) > 0 {
		t.Fatalf("stale-route scenario violated invariants:\n%s", indent(res.Violations))
	}
	// Depending on where the racing connection kill lands, the run either
	// recovers through the retry wave, fails the flush, or fails the
	// rebalance itself (retried at quiesce) — but something must have been
	// exercised.
	if res.StaleRetries == 0 && res.FailedFlushes == 0 && res.FailedRebalances == 0 {
		t.Error("scenario completed without exercising the wrong-home retry or any fault path")
	}

	// The moved effects really landed: re-run without the connection-kill
	// fault — fully deterministic — and require the clean retry path.
	clean := runSim(t, cfg, prog, &Schedule{})
	if len(clean.Violations) > 0 {
		t.Fatalf("fault-free stale-route run violated invariants:\n%s", indent(clean.Violations))
	}
	if clean.FailedFlushes != 0 {
		t.Errorf("fault-free stale-route run failed %d flushes, want 0", clean.FailedFlushes)
	}
	if clean.StaleRetries != 1 {
		t.Errorf("fault-free stale-route run observed %d stale retries, want exactly 1", clean.StaleRetries)
	}
}

// TestCachedReadServedFromLease pins the cached-read op deterministically:
// on a fault-free run, the second read of an untouched name is served from
// its lease (a cache hit), a write drops the lease and re-reads it in its own
// round trip, filing it at the write's ack, so both reads after the write
// hit too, and the cached-read invariant holds throughout: the hit after the
// write must hold token 1_000_001.
func TestCachedReadServedFromLease(t *testing.T) {
	cfg := Config{Seed: 21, Servers: 2, Spares: 1, Names: 2, Faults: false}.withDefaults()
	prog := &program{
		names: []string{"obj-0", "obj-1"},
		ops: []op{
			{Kind: opFlush, Calls: []callSpec{{Name: "obj-0", Token: 1_000_000, Dep: -1}}},
			{Kind: opCachedRead, Name: "obj-0"}, // miss: mints the lease
			{Kind: opCachedRead, Name: "obj-0"}, // hit: zero round trips
			{Kind: opFlush, Calls: []callSpec{{Name: "obj-0", Token: 1_000_001, Dep: -1}}},
			{Kind: opCachedRead, Name: "obj-0"}, // hit: the lease the write refreshed
			{Kind: opCachedRead, Name: "obj-0"}, // hit again
		},
	}
	res := runSim(t, cfg, prog, &Schedule{})
	if len(res.Violations) > 0 {
		t.Fatalf("cached-read scenario violated invariants:\n%s", indent(res.Violations))
	}
	if res.CachedReads != 4 {
		t.Errorf("ran %d cached reads, want 4", res.CachedReads)
	}
	if res.CacheHits != 3 {
		t.Errorf("observed %d cache hits, want exactly 3 (every read but the first)", res.CacheHits)
	}
}

// TestCrashMidFlushAtMostOnce pins the crash regime directly: a server
// crashes in the middle of a fan-out flush and restarts with its state; the
// flush may fail, but nothing may execute twice, no dependent may outrun a
// failed dependency, and the cluster must converge.
func TestCrashMidFlushAtMostOnce(t *testing.T) {
	cfg := Config{Seed: 5, Servers: 3, Spares: 1, Names: 6, Faults: true}.withDefaults()
	prog := genProgram(Config{Seed: 5, Servers: 3, Spares: 1, Names: 6, Steps: 8}.withDefaults())
	sched := &Schedule{Events: []Event{
		{Kind: EvCrash, Step: 1, Until: 3, A: "server-0", Mid: true},
		{Kind: EvCrash, Step: 5, Until: 7, A: "server-1", Mid: true},
	}}
	res := runSim(t, cfg, prog, sched)
	if len(res.Violations) > 0 {
		t.Fatalf("crash-mid-flush violated invariants:\n%s", indent(res.Violations))
	}
}

// TestStateLossRestartRebindsCleanly covers the harness's crash-with-state-
// loss mode (a concern above netsim: the process is gone, not just its
// sockets): the cluster keeps serving, the lost member's names are
// re-bound by the operator, and lookups converge again.
func TestStateLossRestartRebindsCleanly(t *testing.T) {
	net, clk := newNetwork(Config{Seed: 11}.withDefaults())
	defer clk.Stop()
	defer net.Close()
	tc := clustertest.New(t, 0, clustertest.WithNetwork(net))
	defer tc.Close()
	for _, ep := range []string{"server-0", "server-1"} {
		tc.StartServer(ep)
	}
	dir := cluster.NewDirectory(tc.Client, []string{"server-0", "server-1"})
	ctx := context.Background()

	var names []string
	for i := 0; len(names) < 2; i++ {
		n := fmt.Sprintf("loss-%d", i)
		if home, _ := dir.Home(n); home == "server-0" {
			names = append(names, n)
			tc.BindCounter(dir, n, int64(100+i))
		}
	}

	// The process dies: listener slot freed, exports and registry gone.
	tc.CrashServer("server-0")
	if _, err := dir.Lookup(ctx, names[0]); err == nil {
		t.Fatal("lookup of a name on the dead server succeeded")
	}

	// A fresh, empty process takes over the endpoint; the operator re-binds.
	tc.StartServer("server-0")
	for i, n := range names {
		tc.BindCounter(dir, n, int64(100+i))
	}
	for _, n := range names {
		ref, err := dir.Lookup(ctx, n)
		if err != nil {
			t.Fatalf("lookup %s after state-loss restart: %v", n, err)
		}
		if _, err := tc.Client.Call(ctx, ref, "Get"); err != nil {
			t.Fatalf("call %s after state-loss restart: %v", n, err)
		}
	}
}
