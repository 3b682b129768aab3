package cluster_test

// A value future has three carriers: the server that produced it, inside the
// request, when its consumer lives there too; that server again, pushing it
// to the consumer's server inside the same wave, when it does not; and the
// client, a wave later, when the flush's policy could run a call twice. These
// tests pin that a consumer cannot tell which one carried its argument — same
// value, same failure, same isolation from the producer's copy — and that
// followers replaying a wave with an in-wave edge, or a pushed one, end where
// the primary did.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// probeRecord is a registered struct result.
type probeRecord struct {
	Name string
	N    int64
	Tags []string
}

// probeError is a registered error a producer throws.
type probeError struct{ Code int64 }

func (e *probeError) Error() string { return fmt.Sprintf("probe error %d", e.Code) }

func init() {
	wire.MustRegister("clustertest.probeRecord", &probeRecord{})
	wire.MustRegisterError("clustertest.probeError", &probeError{})
}

// probe produces one value of every result kind and reports what it is
// handed as an argument.
type probe struct {
	rmi.RemoteBase
	mu   sync.Mutex
	seen []string
}

func (p *probe) Int64() int64         { return 1<<40 + 7 }
func (p *probe) Int32() int32         { return -12345 }
func (p *probe) Uint8() uint8         { return 200 }
func (p *probe) Str() string          { return "héllo" }
func (p *probe) Bytes() []byte        { return []byte{1, 2, 3} }
func (p *probe) Record() *probeRecord { return &probeRecord{Name: "r", N: 9, Tags: []string{"x", "y"}} }
func (p *probe) Ints() []int64        { return []int64{4, 5, 6} }
func (p *probe) Void()                {}
func (p *probe) Nil() any             { return nil }
func (p *probe) Boom() (int64, error) { return 0, &probeError{Code: 42} }

// Describe reports the dynamic type and value of its argument, and logs it.
func (p *probe) Describe(v any) string {
	s := fmt.Sprintf("%T %+v", v, v)
	if r, ok := v.(*probeRecord); ok {
		s = fmt.Sprintf("%T %+v", v, *r)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seen = append(p.seen, s)
	return s
}

// Scribble overwrites its argument in place.
func (p *probe) Scribble(v any) int64 {
	switch x := v.(type) {
	case []byte:
		for i := range x {
			x[i] = 0xff
		}
		return int64(len(x))
	case []any:
		for i := range x {
			x[i] = "scribbled"
		}
		return int64(len(x))
	}
	return -1
}

func (p *probe) calls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// probePlacement is a producer on server-0 and its consumer: the same object
// (co-located: the server splices, one wave) or one on server-1 (split: the
// producer's server pushes, one wave; through the client: a policy that can
// restart a sub-batch stages the edge, and the client splices, two waves).
type probePlacement struct {
	name               string
	producer, consumer *probe
	prodRef, consRef   wire.Ref
	waves              int
	policy             *core.Policy
}

// options are the placement's batch options.
func (pl probePlacement) options() []cluster.Option {
	if pl.policy == nil {
		return nil
	}
	return []cluster.Option{cluster.WithPolicy(pl.policy)}
}

func probePlacements(t *testing.T, ec *clustertest.Cluster) []probePlacement {
	t.Helper()
	export := func(i int) (*probe, wire.Ref) {
		p := &probe{}
		ref, err := ec.Servers[i].Peer.Export(p, "clustertest.Probe")
		if err != nil {
			t.Fatal(err)
		}
		return p, ref
	}
	here, hereRef := export(0)
	prod, prodRef := export(0)
	far, farRef := export(1)
	relayed, relayedRef := export(1)
	restart := core.CustomPolicy().SetAction("", "Restart", core.AnyIndex, core.ActionRestart)
	return []probePlacement{
		{"co-located", here, here, hereRef, hereRef, 1, nil},
		{"split", prod, far, prodRef, farRef, 1, nil},
		{"through the client", prod, relayed, prodRef, relayedRef, 2, restart},
	}
}

// TestSpliceEquivalenceByKind: for every result kind the consumer receives
// the identical argument — dynamic type and value — in both placements.
func TestSpliceEquivalenceByKind(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	kinds := []string{"Int64", "Int32", "Uint8", "Str", "Bytes", "Record", "Ints", "Void", "Nil"}
	got := make(map[string][]string)
	for _, pl := range probePlacements(t, ec) {
		b := cluster.New(ec.Client, pl.options()...)
		prod, cons := b.Root(pl.prodRef), b.Root(pl.consRef)
		descs := make([]*cluster.Future, len(kinds))
		for i, kind := range kinds {
			descs[i] = cons.Call("Describe", prod.Call(kind))
		}
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if w := b.Waves(); w != pl.waves {
			t.Errorf("%s: flush took %d waves, want %d", pl.name, w, pl.waves)
		}
		for i, d := range descs {
			s, err := cluster.Typed[string](d).Get()
			if err != nil {
				t.Fatalf("%s: Describe(<-%s): %v", pl.name, kinds[i], err)
			}
			got[pl.name] = append(got[pl.name], s)
		}
	}
	for i, kind := range kinds {
		a := got["co-located"][i]
		for _, other := range []string{"split", "through the client"} {
			if b := got[other][i]; a != b {
				t.Errorf("%s: spliced by the server the consumer saw %q, %s %q", kind, a, other, b)
			}
		}
	}
	// Not vacuous: the narrower ints arrive widened, the struct as its
	// registered pointer form, void as nil.
	for i, want := range map[int]string{1: "int64 -12345", 5: "*cluster_test.probeRecord {Name:r N:9 Tags:[x y]}", 7: "<nil> <nil>"} {
		if got["co-located"][i] != want {
			t.Errorf("%s arrived as %q, want %q", kinds[i], got["co-located"][i], want)
		}
	}
}

// TestSplicedArgumentIsACopy: a consumer that overwrites a spliced []byte or
// slice in place does not change what the client reads from the producer's
// future, wherever the consumer runs.
func TestSplicedArgumentIsACopy(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	for _, pl := range probePlacements(t, ec) {
		b := cluster.New(ec.Client, pl.options()...)
		prod, cons := b.Root(pl.prodRef), b.Root(pl.consRef)
		raw, ints := prod.Call("Bytes"), prod.Call("Ints")
		n1, n2 := cons.Call("Scribble", raw), cons.Call("Scribble", ints)
		again := cons.Call("Describe", raw) // a second consumer gets a copy of its own
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for _, n := range []*cluster.Future{n1, n2} {
			if v, err := cluster.Typed[int64](n).Get(); err != nil || v != 3 {
				t.Errorf("%s: Scribble = %v, %v; want 3 elements overwritten", pl.name, v, err)
			}
		}
		if v, err := cluster.Typed[[]byte](raw).Get(); err != nil || !slices.Equal(v, []byte{1, 2, 3}) {
			t.Errorf("%s: producer's []byte reads %v, %v after a consumer scribbled on it", pl.name, v, err)
		}
		if v, err := cluster.Typed[[]int64](ints).Get(); err != nil || !slices.Equal(v, []int64{4, 5, 6}) {
			t.Errorf("%s: producer's slice reads %v, %v after a consumer scribbled on it", pl.name, v, err)
		}
		if s, err := cluster.Typed[string](again).Get(); err != nil || s != "[]uint8 [1 2 3]" {
			t.Errorf("%s: the next consumer saw %q, %v", pl.name, s, err)
		}
	}
}

// TestSplicedProducerFailure: a producer that throws leaves its consumer
// unexecuted, failing with the producer's own typed error, in every placement
// and under both the aborting and the continuing policy (the client carrier's
// own policy aside, whose restart rule a throw of Boom does not match).
func TestSplicedProducerFailure(t *testing.T) {
	for name, policy := range map[string]*core.Policy{"abort": core.AbortPolicy(), "continue": core.ContinuePolicy()} {
		t.Run(name, func(t *testing.T) {
			ec := clustertest.New(t, 2)
			for _, pl := range probePlacements(t, ec) {
				p := policy
				if pl.policy != nil {
					p = pl.policy
				}
				b := cluster.New(ec.Client, cluster.WithPolicy(p))
				boom := b.Root(pl.prodRef).Call("Boom")
				dep := b.Root(pl.consRef).Call("Describe", boom)
				if err := b.Flush(context.Background()); err != nil {
					t.Fatalf("%s: a thrown exception is the call's, not the flush's: %v", pl.name, err)
				}
				var pe *probeError
				if err := boom.Err(); !errors.As(err, &pe) || pe.Code != 42 {
					t.Fatalf("%s: producer = %v, want *probeError 42", pl.name, err)
				}
				pe = nil
				if err := dep.Err(); !errors.As(err, &pe) || pe.Code != 42 {
					t.Errorf("%s: consumer = %v, want the producer's *probeError 42", pl.name, err)
				}
				if n := pl.consumer.calls(); n != 0 {
					t.Errorf("%s: the consumer executed %d times", pl.name, n)
				}
			}
		})
	}
}

// TestReplicatedWaveWithInWaveEdge: a replicated wave whose calls feed each
// other on the primary — across two roots of one destination — and that takes
// a value another server pushes it, replays on every follower through the
// same executor path: the primary ships the literal it was pushed, so the
// primary and its shadows end with identical histories. (The pushing root is
// not replicated: a replicated producer's value waits for its quorum, and
// goes through the client.)
func TestReplicatedWaveWithInWaveEdge(t *testing.T) {
	ec, dir := shipCluster(t)
	ctx := context.Background()
	a := nameWhere(t, dir, "a", "server-0", anyOwners)
	owners, _ := dir.Owners(a)
	bb := nameWhere(t, dir, "b", "server-0", func(o []string) bool { return slices.Equal(o, owners) })
	place(t, ec, dir, a, bb)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	pa, _ := b.RootNamed(ctx, a)
	pb, _ := b.RootNamed(ctx, bb)
	pc := b.Root(ec.Server("server-1").Ref)
	f0 := pa.Call("Add", int64(3)) // a: 3
	f1 := pb.Call("Add", f0)       // b: 3
	pa.Call("Add", f1)             // a: 6
	f3 := pc.Call("Add", int64(6)) // server-1's counter: 6, pushed to server-0
	f4 := pa.Call("Add", f3)       // a: 12
	before := ec.Client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, w := ec.Client.CallCount()-before, b.Waves(); got != 2 || w != 1 {
		t.Errorf("flush cost %d remote calls in %d waves, want 2 in 1", got, w)
	}
	if v, err := cluster.Typed[int64](f4).Get(); err != nil || v != 12 {
		t.Fatalf("last call = %v, %v; want 12", v, err)
	}
	for _, r := range []struct {
		name string
		want []int64
	}{{a, []int64{3, 3, 6}}, {bb, []int64{3}}} {
		ref, err := dir.Lookup(ctx, r.name)
		if err != nil {
			t.Fatal(err)
		}
		obj, _ := ec.Server(ref.Endpoint).Peer.LocalObject(ref.ObjID)
		if h := obj.(*clustertest.Counter).History(); !reflect.DeepEqual(h, r.want) {
			t.Errorf("primary's %s executed %v, want %v", r.name, h, r.want)
		}
		own, _ := dir.Owners(r.name)
		for _, f := range own[1:] {
			if h := shadowHistory(t, ec, f, own[0], r.name); !reflect.DeepEqual(h, r.want) {
				t.Errorf("%s's shadow of %s replayed %v, want the primary's %v", f, r.name, h, r.want)
			}
		}
	}
}
