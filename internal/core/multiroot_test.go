package core_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// TestAddRootSingleRoundTrip checks the multi-root extension: a second
// exported object on the same server joins the batch, calls on both roots
// ride one flush, and a data dependency from one root's result into the
// other root's call replays server-side.
func TestAddRootSingleRoundTrip(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	// A second, independently exported directory.
	dir2 := &directory{}
	dir2.files = append(dir2.files, &file{dir: dir2, name: "other.txt", size: 9, date: baseDate(4)})
	dir2Ref, err := fx.server.Export(dir2, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}

	before := fx.client.CallCount()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	root2, err := b.AddRoot(dir2Ref)
	if err != nil {
		t.Fatal(err)
	}
	name1 := root.CallBatch("GetFile", "A.txt").Call("GetName")
	name2 := root2.CallBatch("GetFile", "other.txt").Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rounds := fx.client.CallCount() - before; rounds != 1 {
		t.Fatalf("two-root batch used %d round trips, want 1", rounds)
	}
	if got, err := core.Typed[string](name1).Get(); err != nil || got != "A.txt" {
		t.Errorf("root 1 = %q, %v", got, err)
	}
	if got, err := core.Typed[string](name2).Get(); err != nil || got != "other.txt" {
		t.Errorf("root 2 = %q, %v", got, err)
	}
}

func TestAddRootDedupes(t *testing.T) {
	fx := newFixture(t)
	b := core.New(fx.client, fx.dirRef)

	// Adding the primary root's own ref yields a root-equivalent proxy.
	p, err := b.AddRoot(fx.dirRef)
	if err != nil {
		t.Fatal(err)
	}
	f := p.CallBatch("GetFile", "A.txt").Call("GetName")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](f).Get(); err != nil || got != "A.txt" {
		t.Errorf("primary-as-extra root = %q, %v", got, err)
	}
}

func TestAddRootForeignEndpointRejected(t *testing.T) {
	fx := newFixture(t)
	//brmivet:ignore unflushed the AddRoot rejection is the subject; nothing is recorded to flush
	b := core.New(fx.client, fx.dirRef)
	_, err := b.AddRoot(wire.Ref{Endpoint: "elsewhere", ObjID: 99, Iface: "coretest.Directory"})
	if !errors.Is(err, core.ErrForeignRoot) {
		t.Fatalf("AddRoot on foreign endpoint = %v, want ErrForeignRoot", err)
	}
}

func TestAddRootUnknownObject(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	p, err := b.AddRoot(wire.Ref{Endpoint: fx.dirRef.Endpoint, ObjID: 4242, Iface: "coretest.Directory"})
	if err != nil {
		t.Fatal(err)
	}
	p.Call("AllFiles")
	err = b.Flush(ctx)
	var nso *rmi.NoSuchObjectError
	if !errors.As(err, &nso) || nso.ObjID != 4242 {
		t.Fatalf("flush with unknown extra root = %v, want NoSuchObjectError{4242}", err)
	}
}

// TestAddRootChained checks that an extra root added between chained
// flushes is usable in the continuation.
func TestAddRootChained(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	dir2 := &directory{}
	dir2.files = append(dir2.files, &file{dir: dir2, name: "late.txt", size: 1, date: baseDate(5)})
	dir2Ref, err := fx.server.Export(dir2, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}

	b := core.New(fx.client, fx.dirRef)
	first := b.Root().CallBatch("GetFile", "A.txt").Call("GetName")
	if err := b.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](first).Get(); err != nil || got != "A.txt" {
		t.Fatalf("first flush = %q, %v", got, err)
	}

	root2, err := b.AddRoot(dir2Ref)
	if err != nil {
		t.Fatal(err)
	}
	second := root2.CallBatch("GetFile", "late.txt").Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](second).Get(); err != nil || got != "late.txt" {
		t.Errorf("chained extra-root call = %q, %v", got, err)
	}
}

func TestAddRootAfterCloseFails(t *testing.T) {
	fx := newFixture(t)
	b := core.New(fx.client, fx.dirRef)
	b.Root().Call("AllFiles")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddRoot(fx.dirRef); !errors.Is(err, core.ErrBatchClosed) {
		t.Fatalf("AddRoot after flush = %v, want ErrBatchClosed", err)
	}
}

// counter is a root whose state observes per-root program order; counters
// sharing a log observe the order across roots too.
type counter struct {
	rmi.RemoteBase
	vals []int64
	log  *[]int64
}

func (c *counter) Add(v int64) int64 {
	c.vals = append(c.vals, v)
	if c.log != nil {
		*c.log = append(*c.log, v)
	}
	return int64(len(c.vals))
}

func (c *counter) Fail() (int64, error) { return 0, errors.New("counter boom") }

// inspector reads another root's result, creating cross-root dataflow.
type inspector struct {
	rmi.RemoteBase
}

func (i *inspector) NameOf(f any) (string, error) {
	n, ok := f.(interface{ GetName() string })
	if !ok {
		return "", fmt.Errorf("inspector: %T has no name", f)
	}
	return n.GetName(), nil
}

// TestMultiRootProgramOrder: calls recorded round-robin over three roots
// replay in recording order — per root and across roots.
func TestMultiRootProgramOrder(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	var log []int64
	roots := make([]*counter, 3)
	var b *core.Batch
	proxies := make([]*core.Proxy, 3)
	for i := range roots {
		roots[i] = &counter{log: &log}
		ref, err := fx.server.Export(roots[i], "coretest.Counter")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			b = core.New(fx.client, ref)
			proxies[i] = b.Root()
			continue
		}
		if proxies[i], err = b.AddRoot(ref); err != nil {
			t.Fatal(err)
		}
	}
	futures := make([][]*core.Future, 3)
	var recorded []int64
	for k := 0; k < 4; k++ {
		for i, p := range proxies {
			v := int64(10*i + k)
			futures[i] = append(futures[i], p.Call("Add", v))
			recorded = append(recorded, v)
		}
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range proxies {
		for k, f := range futures[i] {
			got, err := core.Typed[int64](f).Get()
			if err != nil || got != int64(k+1) {
				t.Errorf("root %d call %d = %d, %v; want %d", i, k, got, err, k+1)
			}
		}
		if len(roots[i].vals) != 4 {
			t.Errorf("root %d ran %d calls, want 4", i, len(roots[i].vals))
		}
		for k, v := range roots[i].vals {
			if v != int64(10*i+k) {
				t.Errorf("root %d per-root order violated: vals=%v", i, roots[i].vals)
			}
		}
	}
	if !slices.Equal(log, recorded) {
		t.Errorf("cross-root order = %v, want recording order %v", log, recorded)
	}
}

// TestMultiRootAbortSkipsLaterRoots: under the default abort policy, a
// failure on one root skips every later call of the flush, another root's
// included; a call recorded before the failure has run.
func TestMultiRootAbortSkipsLaterRoots(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	ca, cb := &counter{}, &counter{}
	refA, err := fx.server.Export(ca, "coretest.Counter")
	if err != nil {
		t.Fatal(err)
	}
	refB, err := fx.server.Export(cb, "coretest.Counter")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, refA)
	pa := b.Root()
	pb, err := b.AddRoot(refB)
	if err != nil {
		t.Fatal(err)
	}
	before := pb.Call("Add", int64(1))
	fail := pa.Call("Fail")
	afterA := pa.Call("Add", int64(2))
	afterB := pb.Call("Add", int64(3))
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[int64](before).Get(); err != nil || got != 1 {
		t.Errorf("call before the failure = %d, %v; want 1", got, err)
	}
	if err := fail.Err(); err == nil {
		t.Error("failing call reported no error")
	}
	if err := afterA.Err(); err == nil {
		t.Error("call after the abort on the failing root reported no error")
	}
	if err := afterB.Err(); err == nil {
		t.Error("call after the abort on the other root reported no error")
	}
	if len(ca.vals) != 0 || len(cb.vals) != 1 {
		t.Errorf("executed a=%v b=%v; want a=[] b=[1]", ca.vals, cb.vals)
	}
}

// TestMultiRootCrossRootDataflow: a result produced under one root is
// passed to a call on another root within the same flush.
func TestMultiRootCrossRootDataflow(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	b := core.New(fx.client, fx.dirRef)
	inspRef, err := fx.server.Export(&inspector{}, "coretest.Inspector")
	if err != nil {
		t.Fatal(err)
	}
	root := b.Root()
	root2, err := b.AddRoot(inspRef)
	if err != nil {
		t.Fatal(err)
	}
	f := root.CallBatch("GetFile", "A.txt")
	name2 := root2.Call("NameOf", f)
	name := root.CallBatch("GetFile", "B.txt").Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](name2).Get(); err != nil || got != "A.txt" {
		t.Errorf("cross-root dependency = %q, %v; want A.txt", got, err)
	}
	if got, err := core.Typed[string](name).Get(); err != nil || got != "B.txt" {
		t.Errorf("root 1 call = %q, %v", got, err)
	}
}

// TestMultiRootRestartExhaustedKeepsSession: a batch whose policy keeps
// demanding ActionRestart until maxRestarts is exhausted must still bind
// its created objects into the session, so a chained flush can resolve
// them.
func TestMultiRootRestartExhaustedKeepsSession(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	refA, err := fx.server.Export(&counter{}, "coretest.Counter")
	if err != nil {
		t.Fatal(err)
	}
	// Every Fail triggers a whole-batch restart until the bound is hit.
	pol := core.CustomPolicy().SetAction("", "Fail", core.AnyIndex, core.ActionRestart)
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(pol))
	root := b.Root()
	pa, err := b.AddRoot(refA)
	if err != nil {
		t.Fatal(err)
	}
	f := root.CallBatch("GetFile", "A.txt") // remote result lives in the session
	fail := pa.Call("Fail")
	if err := b.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fail.Err(); err == nil {
		t.Error("restart-exhausted call reported no error")
	}
	name := f.Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](name).Get(); err != nil || got != "A.txt" {
		t.Errorf("chained call after exhausted restarts = %q, %v; want A.txt", got, err)
	}
}
