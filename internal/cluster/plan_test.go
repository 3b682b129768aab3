package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
)

// refDepth is an independent reference implementation of the stage
// recurrence: recursive with memoization, instead of the planner's single
// forward pass, so the two can cross-check each other.
func refDepth(c *recordedCall, memo map[*recordedCall]int) int {
	if s, ok := memo[c]; ok {
		return s
	}
	s := 0
	for _, in := range c.inputs() {
		d := refDepth(in.producer, memo)
		if in.staged {
			d++
		}
		if d > s {
			s = d
		}
	}
	memo[c] = s
	return s
}

// randomRecording records a random multi-server dataflow into a fresh
// batch: each call targets a root or an earlier proxy and consumes a
// random set of earlier proxies and futures as arguments. Each server's root
// is named or not at random: under a replicating directory, a server whose
// root is named replicates. Recording never touches the network, so no
// servers are needed.
func randomRecording(rng *rand.Rand, servers, calls int, opts ...Option) *Batch {
	b := New(nil, opts...)
	proxies := make([]*Proxy, 0, servers+calls)
	for i := 0; i < servers; i++ {
		root := b.Root(wire.Ref{
			Endpoint: fmt.Sprintf("server-%d", i),
			ObjID:    uint64(100 + i),
			Iface:    "plan.Test",
		})
		if rng.Intn(2) == 0 {
			root.key = fmt.Sprintf("name-%d", i)
		}
		proxies = append(proxies, root)
	}
	var futures []*Future
	for i := 0; i < calls; i++ {
		target := proxies[rng.Intn(len(proxies))]
		var args []any
		for n := rng.Intn(3); n > 0; n-- {
			if len(futures) > 0 && rng.Intn(2) == 0 {
				args = append(args, futures[rng.Intn(len(futures))])
			} else {
				args = append(args, proxies[rng.Intn(len(proxies))])
			}
		}
		args = append(args, int64(i)) // plain values never create edges
		if rng.Intn(2) == 0 {
			proxies = append(proxies, target.CallBatch("m", args...))
		} else {
			futures = append(futures, target.Call("m", args...))
		}
	}
	return b
}

// TestPlannerRandomRecordings is the property-style planner test: for
// random multi-server recordings the stage schedule must respect the
// dependency DAG, preserve per-server per-stage program order, and use
// exactly as many stages as the recording's dependency depth.
func TestPlannerRandomRecordings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		servers := 1 + rng.Intn(4)
		n := 1 + rng.Intn(40)
		//brmivet:ignore unflushed the planner is tested on the raw recording; nothing executes
		b := randomRecording(rng, servers, n)
		if b.recErr != nil {
			t.Fatalf("trial %d: recording violation %v", trial, b.recErr)
		}
		calls := b.calls
		stages, err := planStages(calls)
		if err != nil {
			t.Fatalf("trial %d: planStages: %v", trial, err)
		}

		// Stage count equals dependency depth (independent recursion).
		if depth := recordingDepth(calls); stages != depth {
			t.Fatalf("trial %d: %d stages, dependency depth %d", trial, stages, depth)
		}

		// The schedule respects the DAG: staged inputs settle in a strictly
		// earlier wave; immediate inputs no later than their consumer, and
		// earlier in recording order when sharing its stage.
		for _, c := range calls {
			for _, in := range c.inputs() {
				p := in.producer
				if in.staged {
					if p.stage >= c.stage {
						t.Fatalf("trial %d: staged input %d (stage %d) not before consumer %d (stage %d)",
							trial, p.index, p.stage, c.index, c.stage)
					}
					continue
				}
				if p.stage > c.stage || (p.stage == c.stage && p.index >= c.index) {
					t.Fatalf("trial %d: immediate input %d (stage %d) unavailable to consumer %d (stage %d)",
						trial, p.index, p.stage, c.index, c.stage)
				}
			}
		}

		// Per-server per-stage program order: within every sub-batch of
		// every stage, calls appear in global recording order.
		for s, subs := range buildStages(calls, stages) {
			for _, sb := range subs {
				last := -1
				for _, c := range sb.calls {
					if c.stage != s {
						t.Fatalf("trial %d: call %d (stage %d) scheduled in stage %d", trial, c.index, c.stage, s)
					}
					if c.index <= last {
						t.Fatalf("trial %d: stage %d %s out of recording order (%d after %d)",
							trial, s, sb.group.endpoint, c.index, last)
					}
					last = c.index
				}
			}
		}
	}
}

// recordingDepth is the stage count refDepth predicts for a recording.
func recordingDepth(calls []*recordedCall) int {
	memo := make(map[*recordedCall]int)
	depth := 0
	for _, c := range calls {
		if d := refDepth(c, memo); d+1 > depth {
			depth = d + 1
		}
	}
	return depth
}

// TestPlannerRandomRecordingsReplicated: the random recordings again, on a
// replicating directory. An input is staged exactly when it crosses servers
// from a server whose root is named, the stage count equals the dependency
// depth, and the same recording without the directory plans one stage:
// replication is the one reason a value waits a wave.
func TestPlannerRandomRecordingsReplicated(t *testing.T) {
	dir := NewDirectory(nil, []string{"server-0", "server-1", "server-2", "server-3"}, WithReplication(2))
	rng := rand.New(rand.NewSource(11))
	staged, deep := 0, 0
	for trial := 0; trial < 300; trial++ {
		servers, n, seed := 1+rng.Intn(4), 1+rng.Intn(40), rng.Int63()
		b := randomRecording(rand.New(rand.NewSource(seed)), servers, n, WithDirectory(dir))
		plain := randomRecording(rand.New(rand.NewSource(seed)), servers, n)
		if b.recErr != nil || plain.recErr != nil {
			t.Fatalf("trial %d: recording violation %v, %v", trial, b.recErr, plain.recErr)
		}
		stages, err := planStages(b.calls)
		if err != nil {
			t.Fatalf("trial %d: planStages: %v", trial, err)
		}
		for _, c := range b.calls {
			for _, in := range c.inputs() {
				p := in.producer
				if want := p.group != c.group && p.group.roots[0].key != ""; in.staged != want {
					t.Fatalf("trial %d: input %d of call %d (%s to %s) staged %v, want %v",
						trial, p.index, c.index, p.group.endpoint, c.group.endpoint, in.staged, want)
				}
				if in.staged {
					staged++
				}
			}
		}
		if depth := recordingDepth(b.calls); stages != depth {
			t.Fatalf("trial %d: %d stages, dependency depth %d", trial, stages, depth)
		}
		if stages > 2 {
			deep++
		}
		if one, err := planStages(plain.calls); err != nil || one != 1 {
			t.Fatalf("trial %d: without the directory the recording planned %d stages, %v; want 1", trial, one, err)
		}
	}
	if staged == 0 || deep == 0 {
		t.Fatalf("%d staged inputs, %d plans deeper than two stages: the property proves little", staged, deep)
	}
}

// TestPlannerDependencyFreeIsOneStage: recordings without staged inputs —
// any mix of servers, any same-server proxy chains — plan to exactly one
// stage, preserving the PR-1 single-wave behaviour.
func TestPlannerDependencyFreeIsOneStage(t *testing.T) {
	b := New(nil)
	r0 := b.Root(wire.Ref{Endpoint: "a", ObjID: 1, Iface: "t"})
	r1 := b.Root(wire.Ref{Endpoint: "b", ObjID: 2, Iface: "t"})
	p := r0.CallBatch("Chain")
	p2 := p.CallBatch("Chain")
	p2.Call("Leaf", p)   // same-server proxy args are immediate
	r1.Call("Other", r0) // cross-server ROOT arg: ref known statically
	stages, err := planStages(b.calls)
	if err != nil {
		t.Fatal(err)
	}
	if stages != 1 {
		t.Fatalf("dependency-free recording planned %d stages, want 1", stages)
	}
}

// TestPlannerPushesCrossServerResults: a result consumed on another server —
// a remote result or a value — is pushed there inside its wave, not staged:
// the recording plans to one stage, and each producer pushes to its
// cross-server consumer's server only.
func TestPlannerPushesCrossServerResults(t *testing.T) {
	b := New(nil)
	r0 := b.Root(wire.Ref{Endpoint: "a", ObjID: 1, Iface: "t"})
	r1 := b.Root(wire.Ref{Endpoint: "b", ObjID: 2, Iface: "t"})
	local := r0.CallBatch("Local")
	r0.Call("SameServer", local)
	forwarded := r0.CallBatch("Forwarded")
	r1.Call("CrossServer", forwarded)
	f := r0.Call("Value")
	r1.Call("Splice", f)
	stages, err := planStages(b.calls)
	if err != nil {
		t.Fatal(err)
	}
	if stages != 1 {
		t.Fatalf("cross-server results planned %d stages, want 1", stages)
	}
	for _, c := range []struct {
		name string
		p    *recordedCall
		want []string
	}{{"same-server proxy arg", local.origin, nil}, {"cross-server proxy arg", forwarded.origin, []string{"b"}}, {"cross-server future", f.origin, []string{"b"}}} {
		if got := waiting(c.p); !slices.Equal(got, c.want) {
			t.Errorf("%s pushes to %v, want %v", c.name, got, c.want)
		}
	}
}

// TestPlannerAssertsTopologicalOrder: a cyclic (or misordered) recording is
// impossible through the public API — recording order is a topological
// order — and the planner refuses hand-built violations instead of
// scheduling nonsense.
func TestPlannerAssertsTopologicalOrder(t *testing.T) {
	g := &group{endpoint: "x"}
	root := &Proxy{group: g, isRoot: true}
	c0 := &recordedCall{index: 0, group: g, target: root, method: "consume"}
	c1 := &recordedCall{index: 1, group: g, target: root, method: "produce"}
	// c0 consumes c1's result although c1 was recorded later: a forward
	// reference the record API cannot produce.
	c0.args = []any{&Proxy{group: g, origin: c1}}
	if _, err := planStages([]*recordedCall{c0, c1}); err == nil {
		t.Fatal("planner accepted a non-topological recording")
	}
	// So is a log that is not in recording order.
	if _, err := planStages([]*recordedCall{c1, c1}); err == nil {
		t.Fatal("planner accepted a log out of recording order")
	}
}

// TestReadPlanShipsOnlyUsedAddressing: a destination's stream request carries
// ids only if some position is id-addressed and names only if some position
// is named; a group that mixes them keeps both, parallel.
func TestReadPlanShipsOnlyUsedAddressing(t *testing.T) {
	var pl readPlan
	pl.add("named", 0, 0, "a")
	pl.add("named", 3, 0, "b")
	pl.add("ids", 1, 16, "c")
	pl.add("mixed", 2, 0, "d")
	pl.add("mixed", 4, 17, "e")
	for _, c := range []struct {
		dest         string
		ids, indexes int
		names        []string
		byID         []uint64
	}{
		{"named", 0, 2, []string{"a", "b"}, []uint64{0, 0}},
		{"ids", 1, 1, nil, []uint64{16}},
		{"mixed", 2, 2, []string{"d", ""}, []uint64{0, 17}},
	} {
		db := pl.byDest[c.dest]
		ids := db.trim()
		if len(db.req.ObjIDs) != c.ids || len(db.req.Indexes) != c.indexes || !reflect.DeepEqual(db.req.Names, c.names) {
			t.Errorf("%s ships %+v, want %d ids, %d indexes, names %q", c.dest, db.req, c.ids, c.indexes, c.names)
		}
		if !reflect.DeepEqual(ids, c.byID) {
			t.Errorf("%s: per-position ids %v, want %v", c.dest, ids, c.byID)
		}
	}
}
