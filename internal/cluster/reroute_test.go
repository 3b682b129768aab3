package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/wire"
)

// fakeHomes is a network-free resolver: a name→endpoint table and a record
// of what rehome asked of it.
type fakeHomes struct {
	homes      map[string]string
	refreshErr error

	mu        sync.Mutex
	refreshes int
	lookups   []string
}

func (f *fakeHomes) Refresh(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.refreshes++
	return f.refreshErr
}

func (f *fakeHomes) Lookup(_ context.Context, name string) (wire.Ref, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.lookups = append(f.lookups, name)
	ep, ok := f.homes[name]
	if !ok {
		return wire.Ref{}, fmt.Errorf("%q is not bound", name)
	}
	return wire.Ref{Endpoint: ep, ObjID: 900, Iface: "reroute.Test"}, nil
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

// TestRehomeRegroupsPerNewHome: a and c — on two different old homes — both
// move to server-2, b stays, the un-named root cannot be re-resolved.
func TestRehomeRegroupsPerNewHome(t *testing.T) {
	b := New(nil)
	roots, calls, rejected := staleRecording(t, b)
	dir := &fakeHomes{homes: map[string]string{"a": "server-2", "b": "server-0", "c": "server-2"}}
	unnamed := roots[""].rootRef

	subs, err := b.rehome(context.Background(), dir, rejected)
	if err != nil {
		t.Fatal(err)
	}
	if !b.retried || dir.refreshes != 1 {
		t.Errorf("retried = %v after %d refreshes, want the one retry spent on one refresh", b.retried, dir.refreshes)
	}
	if len(dir.lookups) != 3 {
		t.Errorf("looked up %v, want exactly the three named roots", dir.lookups)
	}

	// Two old groups merged into one new group, in recording order — which
	// keeps each root's own calls in the order they were recorded.
	got := make(map[string][]int)
	for _, sb := range subs {
		if _, dup := got[sb.group.endpoint]; dup {
			t.Errorf("two sub-batches bound for %s", sb.group.endpoint)
		}
		got[sb.group.endpoint] = indexes(sb)
	}
	want := map[string][]int{"server-2": {0, 2, 3, 5}, "server-0": {1}, "server-1": {4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("regrouped calls = %v, want %v", got, want)
	}
	for _, name := range []string{"a", "c"} {
		if p := roots[name]; p.rootRef.Endpoint != "server-2" || p.group != roots["a"].group || p.core != nil {
			t.Errorf("root %s not rewired to the shared server-2 group: %+v", name, p.rootRef)
		}
	}
	if calls[3].group != roots["a"].group || calls[3].target.group != roots["a"].group {
		t.Error("a call on a moved root's result did not follow the root")
	}
	// The un-named root keeps its ref: there is no key to re-resolve it by.
	if roots[""].rootRef != unnamed {
		t.Errorf("un-named root re-resolved to %v, want %v", roots[""].rootRef, unnamed)
	}
	// The dependency the move split across homes settles with the cause of
	// its own rejected sub-batch; nothing else is settled.
	for i, c := range calls {
		switch {
		case i == 1 && (!c.out.done || !errors.Is(c.out.err, rejected[0].cause)):
			t.Errorf("split call settled (%v, %v), want done with %v", c.out.done, c.out.err, rejected[0].cause)
		case i != 1 && c.out.done:
			t.Errorf("call %d settled with %v; only the split dependency may be", i, c.out.err)
		}
	}
}

// TestRehomeFailsWholesale: a failed refresh or lookup re-plans nothing.
func TestRehomeFailsWholesale(t *testing.T) {
	boom := errors.New("no node reachable")
	for name, dir := range map[string]*fakeHomes{
		"refresh": {refreshErr: boom},
		"lookup":  {homes: map[string]string{"a": "server-2", "b": "server-0"}}, // c is unbound
	} {
		b := New(nil)
		roots, calls, rejected := staleRecording(t, b)
		subs, err := b.rehome(context.Background(), dir, rejected)
		if err == nil || subs != nil {
			t.Fatalf("%s failure: rehome = %v, %v; want an error and no plan", name, subs, err)
		}
		if name == "refresh" && !errors.Is(err, boom) {
			t.Errorf("refresh failure %v does not wrap its cause", err)
		}
		if !b.retried {
			t.Errorf("%s failure did not spend the retry", name)
		}
		if roots["a"].rootRef.Endpoint != "server-0" {
			t.Errorf("%s failure rewired a root", name)
		}
		for i, c := range calls {
			if c.out.done {
				t.Errorf("%s failure settled call %d", name, i)
			}
		}
	}
}
