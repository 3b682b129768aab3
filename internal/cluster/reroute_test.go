package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// fakeHomes is a network-free resolver: a name→endpoint table and a record
// of what rehome asked of it.
type fakeHomes struct {
	homes      map[string]string
	refreshErr error

	mu        sync.Mutex
	refreshes int
	routed    []string
}

func (f *fakeHomes) Refresh(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refreshes++
	return f.refreshErr
}

func (f *fakeHomes) Home(name string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.routed = append(f.routed, name)
	ep, ok := f.homes[name]
	if !ok {
		return "", fmt.Errorf("no route for %q", name)
	}
	return ep, nil
}

// staleRecording records into b, without a network, one stage over two
// servers: named roots a and b on server-0, named root c and an un-named
// root on server-1, with cross-root dataflow from a into b. The recording is
// never flushed: rehome is exercised on it directly.
func staleRecording(t *testing.T, b *Batch) (roots map[string]*Proxy, calls []*recordedCall, rejected []rejection) {
	t.Helper()
	roots = make(map[string]*Proxy)
	for i, r := range []struct{ name, ep string }{{"a", "server-0"}, {"b", "server-0"}, {"c", "server-1"}, {"", "server-1"}} {
		p := b.Root(wire.Ref{Endpoint: r.ep, ObjID: uint64(100 + i), Iface: "reroute.Test"})
		p.key = r.name
		roots[r.name] = p
	}
	self := roots["a"].CallBatch("Self") // 0
	roots["b"].Call("Absorb", self)      // 1: consumes a's result on what is, so far, one server
	roots["c"].Call("Add", int64(1))     // 2
	self.Call("Get")                     // 3: a's chain continues after c's first call
	roots[""].Call("Get")                // 4
	roots["c"].Call("Add", int64(2))     // 5
	calls = b.calls
	nstages, err := planStages(calls)
	if err != nil || nstages != 1 {
		t.Fatalf("plan = %d stages, %v; want one stage", nstages, err)
	}
	for i, sb := range buildStages(calls, nstages)[0] {
		rejected = append(rejected, rejection{sb: sb, cause: fmt.Errorf("wrong home %d", i)})
	}
	return roots, calls, rejected
}

func indexes(sb *subBatch) []int {
	out := make([]int, len(sb.calls))
	for i, c := range sb.calls {
		out[i] = c.index
	}
	return out
}

// shape renders a stage as endpoint → call indexes, failing on two
// sub-batches bound for one endpoint.
func shape(t *testing.T, subs []*subBatch) string {
	t.Helper()
	got := make(map[string][]int)
	for _, sb := range subs {
		if _, dup := got[sb.group.endpoint]; dup {
			t.Errorf("two sub-batches bound for %s", sb.group.endpoint)
		}
		got[sb.group.endpoint] = indexes(sb)
	}
	return fmt.Sprint(got)
}

// TestRehomeRegroupsPerNewHome: a and c — on two different old homes — both
// move to server-2, b stays, the un-named root cannot be re-routed.
func TestRehomeRegroupsPerNewHome(t *testing.T) {
	b := New(nil)
	roots, calls, rejected := staleRecording(t, b)
	dir := &fakeHomes{homes: map[string]string{"a": "server-2", "b": "server-0", "c": "server-2"}}
	unnamed := roots[""].rootRef

	stages, err := b.rehome(context.Background(), dir, rejected, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.retried || dir.refreshes != 1 {
		t.Errorf("retried = %v after %d refreshes, want the one retry spent on one refresh", b.retried, dir.refreshes)
	}
	if len(dir.routed) != 3 {
		t.Errorf("routed %v, want exactly the three named roots", dir.routed)
	}

	// Two old groups merged into one new group, in recording order — which
	// keeps each root's own calls in the order they were recorded.
	if len(stages) != 1 {
		t.Fatalf("re-planned into %d stages, want 1", len(stages))
	}
	want := map[string][]int{"server-2": {0, 2, 3, 5}, "server-0": {1}, "server-1": {4}}
	if got := shape(t, stages[0]); got != fmt.Sprint(want) {
		t.Errorf("regrouped calls = %v, want %v", got, want)
	}
	// A re-routed root is lazy again: its new home resolves the name.
	for _, name := range []string{"a", "c"} {
		if p := roots[name]; !p.lazy() || p.group.endpoint != "server-2" || p.group != roots["a"].group || p.core != nil {
			t.Errorf("root %s not rewired, by name, to the shared server-2 group: %+v at %s", name, p.rootRef, p.group.endpoint)
		}
	}
	if calls[3].group != roots["a"].group || calls[3].target.group != roots["a"].group {
		t.Error("a call on a moved root's result did not follow the root")
	}
	// The un-named root keeps its ref: there is no key to re-route it by.
	if roots[""].rootRef != unnamed {
		t.Errorf("un-named root re-resolved to %v, want %v", roots[""].rootRef, unnamed)
	}
	// The remote result the move split from its consumer settles that call
	// with the cause of its own rejected sub-batch, and is not pinned for a
	// forwarding nobody recorded; nothing else is settled.
	for i, c := range calls {
		switch {
		case i == 1 && (!c.out.done || !errors.Is(c.out.err, rejected[0].cause)):
			t.Errorf("split call settled (%v, %v), want done with %v", c.out.done, c.out.err, rejected[0].cause)
		case i != 1 && c.out.done:
			t.Errorf("call %d settled with %v; only the split dependency may be", i, c.out.err)
		}
	}
	if calls[0].export {
		t.Error("the split dependency's producer was marked for export")
	}
}

// TestRehomeSplitFutureEdge: a value consumed on its producer's server rides
// the producer's wave; when the retry finds the two roots on different homes
// the consumer, and what hangs off it, move a wave later instead of failing.
func TestRehomeSplitFutureEdge(t *testing.T) {
	b := New(nil)
	var roots [3]*Proxy
	for i, name := range []string{"a", "b", "c"} {
		roots[i] = b.Root(wire.Ref{Endpoint: fmt.Sprintf("server-%d", i/2), ObjID: uint64(100 + i), Iface: "reroute.Test"})
		roots[i].key = name
	}
	f0 := roots[0].Call("Add", int64(1)) // 0: a and b share server-0
	f1 := roots[1].Call("Add", f0)       // 1: same server, same wave
	roots[1].Call("Add", f1)             // 2: hangs off 1
	roots[2].Call("Add", f1)             // 3: server-1, a wave after 1
	roots[0].Call("Add", int64(2))       // 4: a's own order is untouched
	nstages, err := planStages(b.calls)
	if err != nil || nstages != 2 {
		t.Fatalf("plan = %d stages, %v; want two", nstages, err)
	}
	stages := buildStages(b.calls, nstages)
	rejected := []rejection{{sb: stages[0][0], cause: errors.New("wrong home")}}
	dir := &fakeHomes{homes: map[string]string{"a": "server-0", "b": "server-2"}}

	replanned, err := b.rehome(context.Background(), dir, rejected, stages[1:])
	if err != nil {
		t.Fatal(err)
	}
	want := []map[string][]int{{"server-0": {0, 4}}, {"server-2": {1, 2}}, {"server-1": {3}}}
	if len(replanned) != len(want) {
		t.Fatalf("re-planned into %d stages, want %d", len(replanned), len(want))
	}
	for k, subs := range replanned {
		if got := shape(t, subs); got != fmt.Sprint(want[k]) {
			t.Errorf("stage %d = %v, want %v", k, got, want[k])
		}
	}
}

// TestRehomeFailsWholesale: a failed refresh or an unroutable name re-plans
// nothing.
func TestRehomeFailsWholesale(t *testing.T) {
	boom := errors.New("no node reachable")
	for name, dir := range map[string]*fakeHomes{
		"refresh": {refreshErr: boom},
		"route":   {homes: map[string]string{"a": "server-2", "b": "server-0"}}, // c has no home
	} {
		b := New(nil)
		roots, calls, rejected := staleRecording(t, b)
		subs, err := b.rehome(context.Background(), dir, rejected, nil)
		if err == nil || subs != nil {
			t.Fatalf("%s failure: rehome = %v, %v; want an error and no plan", name, subs, err)
		}
		if name == "refresh" && !errors.Is(err, boom) {
			t.Errorf("refresh failure %v does not wrap its cause", err)
		}
		if !b.retried {
			t.Errorf("%s failure did not spend the retry", name)
		}
		if roots["a"].group.endpoint != "server-0" || roots["a"].lazy() {
			t.Errorf("%s failure rewired a root", name)
		}
		for i, c := range calls {
			if c.out.done {
				t.Errorf("%s failure settled call %d", name, i)
			}
		}
	}
}

// TestRehomeFollowsLaterStages: a destination refused at first contact in a
// stage that is not its last. The root's calls of the later stages follow it
// to the new home, where they share one destination with the retried wave —
// so the chained session that wave opens there serves them too.
func TestRehomeFollowsLaterStages(t *testing.T) {
	b := New(nil)
	a := b.Root(wire.Ref{Endpoint: "server-0", ObjID: 100, Iface: "reroute.Test"})
	a.key = "a"
	c := b.Root(wire.Ref{Endpoint: "server-1", ObjID: 101, Iface: "reroute.Test"})
	d := b.Root(wire.Ref{Endpoint: "server-3", ObjID: 102, Iface: "reroute.Test"})
	f0 := c.Call("Get")     // 0: stage 0 on server-1
	g0 := d.Call("Get")     // 1: stage 0 on server-3
	f1 := a.Call("Add", f0) // 2: stage 1, server-0's first contact
	g1 := c.Call("Add", g0) // 3: stage 1 on server-1
	a.Call("Add", g1)       // 4: stage 2
	c.Call("Add", f1)       // 5: stage 2 on server-1, untouched
	nstages, err := planStages(b.calls)
	if err != nil || nstages != 3 {
		t.Fatalf("plan = %d stages, %v; want three", nstages, err)
	}
	stages := buildStages(b.calls, nstages)
	rejected := []rejection{{sb: stages[1][0], cause: errors.New("wrong home")}}
	dir := &fakeHomes{homes: map[string]string{"a": "server-2"}}

	replanned, err := b.rehome(context.Background(), dir, rejected, stages[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(replanned) != 2 {
		t.Fatalf("re-planned into %d stages, want the retried wave and stage 2", len(replanned))
	}
	moved, last := replanned[0], replanned[1]
	if len(moved) != 1 || moved[0].group.endpoint != "server-2" || fmt.Sprint(indexes(moved[0])) != "[2]" {
		t.Fatalf("retried wave = %d sub-batches, want call 2 alone bound for server-2", len(moved))
	}
	if len(last) != 2 || last[0].group != moved[0].group || fmt.Sprint(indexes(last[0])) != "[4]" {
		t.Errorf("stage 2 did not follow the root to the retried wave's destination: %d sub-batches", len(last))
	}
	if len(last) == 2 && (last[1].group != c.group || fmt.Sprint(indexes(last[1])) != "[5]") {
		t.Errorf("stage 2 disturbed server-1's sub-batch: %v at %s", indexes(last[1]), last[1].group.endpoint)
	}
}

// TestRehomeBoundElsewhere: a refusal that says where the name is bound needs
// no fresh ring and no route — the root goes there, by the ref it was handed.
func TestRehomeBoundElsewhere(t *testing.T) {
	b := New(nil)
	a := b.Root(wire.Ref{Endpoint: "server-0"})
	a.key, a.rootRef = "a", wire.Ref{}
	a.Call("Get")
	far := wire.Ref{Endpoint: "server-3", ObjID: 77, Iface: "reroute.Test"}
	stages := buildStages(b.calls, 1)
	rejected := []rejection{{sb: stages[0][0], cause: fmt.Errorf("flush: %w", &core.ElsewhereError{Name: "a", Ref: far})}}
	dir := &fakeHomes{}

	replanned, err := b.rehome(context.Background(), dir, rejected, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dir.refreshes != 0 || len(dir.routed) != 0 {
		t.Errorf("asked the naming layer (%d refreshes, routed %v) for a root whose binding was handed over", dir.refreshes, dir.routed)
	}
	if moved := replanned[0]; len(replanned) != 1 || len(moved) != 1 || moved[0].group.endpoint != "server-3" || a.rootRef != far || a.lazy() {
		t.Errorf("root not re-addressed by its binding: %+v", a.rootRef)
	}
}
