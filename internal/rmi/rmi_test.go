package rmi_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

func silentLogf(string, ...any) {}

// --- test remote objects ---------------------------------------------------

type mathError struct {
	Op string
}

func (e *mathError) Error() string { return "math error in " + e.Op }

type calc struct {
	rmi.RemoteBase
}

func (c *calc) Add(a, b int) int     { return a + b }
func (c *calc) Echo(s string) string { return s }
func (c *calc) Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}
func (c *calc) Nothing() {}
func (c *calc) MinMax(xs []int) (int, int) {
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

func (c *calc) Divide(a, b float64) (float64, error) {
	if b == 0 {
		return 0, &mathError{Op: "Divide"}
	}
	return a / b, nil
}

func (c *calc) WithCtx(ctx context.Context, s string) (string, error) {
	if ctx == nil {
		return "", errors.New("nil ctx")
	}
	return "ctx:" + s, nil
}

func (c *calc) Panics() { panic("deliberate") }

func (c *calc) Describe(p point) string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

type point struct {
	X, Y int
}

// node is a remote object returned by reference.
type node struct {
	rmi.RemoteBase
	val int
}

func (n *node) Value() int { return n.val }

// identitySvc reproduces the paper's §4.4 remote-reference-identity example.
type identitySvc struct {
	rmi.RemoteBase
	created *node
}

func (s *identitySvc) Create() *node {
	s.created = &node{val: 42}
	return s.created
}

// IsSame reports whether the argument is the identical object returned by
// Create — the assertion that fails under Java RMI semantics.
func (s *identitySvc) IsSame(n any) bool { return n == any(s.created) }

// ReadValue reads the node's value through whatever form the argument
// arrived in: local object (shortcut mode) or loopback stub (faithful mode).
func (s *identitySvc) ReadValue(ctx context.Context, n any) (int, error) {
	switch x := n.(type) {
	case *node:
		return x.Value(), nil
	case rmi.Invoker:
		res, err := x.Invoke(ctx, "Value")
		if err != nil {
			return 0, err
		}
		return int(res[0].(int64)), nil
	default:
		return 0, fmt.Errorf("unexpected arg type %T", n)
	}
}

// CreateMany returns a slice of remote objects; each element must marshal
// as its own reference (plain-RMI array behaviour, §3.4).
func (s *identitySvc) CreateMany(n int) []*node {
	out := make([]*node, n)
	for i := range out {
		out[i] = &node{val: i}
	}
	return out
}

func init() {
	wire.MustRegisterError("rmitest.MathError", &mathError{})
	wire.MustRegister("rmitest.Point", point{})
	rmi.RegisterImpl("test.Node", &node{})
}

// --- fixtures ---------------------------------------------------------------

// newPair starts a serving peer and a client peer on a fresh instant network.
func newPair(t *testing.T, serverOpts ...rmi.Option) (server, client *rmi.Peer) {
	t.Helper()
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	serverOpts = append([]rmi.Option{rmi.WithLogf(silentLogf)}, serverOpts...)
	server = rmi.NewPeer(network, serverOpts...)
	if err := server.Serve("server"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	client = rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return server, client
}

func exportCalc(t *testing.T, server *rmi.Peer) wire.Ref {
	t.Helper()
	ref, err := server.Export(&calc{}, "test.Calc")
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// --- tests -------------------------------------------------------------------

func TestBasicCall(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	res, err := client.Call(context.Background(), ref, "Add", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].(int64) != 5 {
		t.Fatalf("got %#v", res)
	}
}

func TestStringAndVoidAndMultiReturn(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	ctx := context.Background()

	res, err := client.Call(ctx, ref, "Echo", "hello")
	if err != nil || res[0].(string) != "hello" {
		t.Fatalf("Echo: %v %#v", err, res)
	}

	res, err = client.Call(ctx, ref, "Nothing")
	if err != nil || len(res) != 0 {
		t.Fatalf("Nothing: %v %#v", err, res)
	}

	res, err = client.Call(ctx, ref, "MinMax", []int{5, -2, 9})
	if err != nil || len(res) != 2 || res[0].(int64) != -2 || res[1].(int64) != 9 {
		t.Fatalf("MinMax: %v %#v", err, res)
	}
}

func TestSliceArgConversion(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	res, err := client.Call(context.Background(), ref, "Sum", []int{1, 2, 3, 4})
	if err != nil || res[0].(int64) != 10 {
		t.Fatalf("got %v %#v", err, res)
	}
}

func TestStructByCopy(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	res, err := client.Call(context.Background(), ref, "Describe", point{X: 1, Y: 2})
	if err != nil || res[0].(string) != "(1,2)" {
		t.Fatalf("got %v %#v", err, res)
	}
}

func TestTypedErrorPropagates(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	_, err := client.Call(context.Background(), ref, "Divide", 1.0, 0.0)
	var me *mathError
	if !errors.As(err, &me) {
		t.Fatalf("got %v (%T), want *mathError", err, err)
	}
	if me.Op != "Divide" {
		t.Fatalf("got %+v", me)
	}
	// Success path still works on the same stub.
	res, err := client.Call(context.Background(), ref, "Divide", 1.0, 4.0)
	if err != nil || res[0].(float64) != 0.25 {
		t.Fatalf("got %v %#v", err, res)
	}
}

func TestContextParameterInjected(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	res, err := client.Call(context.Background(), ref, "WithCtx", "x")
	if err != nil || res[0].(string) != "ctx:x" {
		t.Fatalf("got %v %#v", err, res)
	}
}

func TestPanicBecomesErrorAndServerSurvives(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	_, err := client.Call(context.Background(), ref, "Panics")
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	// Server must still dispatch.
	if _, err := client.Call(context.Background(), ref, "Add", 1, 1); err != nil {
		t.Fatalf("server died after panic: %v", err)
	}
}

func TestNoSuchMethod(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	_, err := client.Call(context.Background(), ref, "NotThere")
	var nsm *rmi.NoSuchMethodError
	if !errors.As(err, &nsm) {
		t.Fatalf("got %v, want NoSuchMethodError", err)
	}
}

func TestNoSuchObjectAfterUnexport(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	if !server.Unexport(ref) {
		t.Fatal("unexport reported false")
	}
	_, err := client.Call(context.Background(), ref, "Add", 1, 2)
	var nso *rmi.NoSuchObjectError
	if !errors.As(err, &nso) {
		t.Fatalf("got %v, want NoSuchObjectError", err)
	}
}

func TestWrongArgCount(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	if _, err := client.Call(context.Background(), ref, "Add", 1); err == nil {
		t.Fatal("wrong arg count accepted")
	}
}

func TestExportIdentity(t *testing.T) {
	server, _ := newPair(t)
	c := &calc{}
	ref1, err := server.Export(c, "test.Calc")
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := server.Export(c, "test.Calc")
	if err != nil {
		t.Fatal(err)
	}
	if ref1 != ref2 {
		t.Fatalf("same object exported as %v and %v", ref1, ref2)
	}
	if _, err := server.Export(c, "test.Other"); err == nil {
		t.Fatal("re-export under different iface succeeded")
	}
}

// selfRef is a remote object that returns itself.
type selfRef struct{ rmi.RemoteBase }

func (s *selfRef) Self() *selfRef { return s }

// TestAutoExportKeepsTheExport: an object marshalled out as a result keeps the
// one export it already has — its id and the interface name it was exported
// under, whatever name its Go type would give a fresh export.
func TestAutoExportKeepsTheExport(t *testing.T) {
	server, client := newPair(t)
	ref, err := server.Export(&selfRef{}, "test.SelfRef")
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Call(context.Background(), ref, "Self")
	if err != nil {
		t.Fatal(err)
	}
	holder, ok := res[0].(rmi.RefHolder)
	if !ok {
		t.Fatalf("Self returned %T, want a remote reference", res[0])
	}
	if got := holder.Ref(); got != ref {
		t.Errorf("Self marshalled as %+v, want its export %+v", got, ref)
	}
}

func TestExportRequiresServing(t *testing.T) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	clientOnly := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer clientOnly.Close()
	if _, err := clientOnly.Export(&calc{}, "test.Calc"); !errors.Is(err, rmi.ErrClientOnly) {
		t.Fatalf("got %v, want ErrClientOnly", err)
	}
}

func TestRemoteReturnBecomesStub(t *testing.T) {
	server, client := newPair(t)
	svc := &identitySvc{}
	ref, err := server.Export(svc, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub, ok := res[0].(*rmi.Stub)
	if !ok {
		t.Fatalf("got %T, want *rmi.Stub", res[0])
	}
	if stub.Ref().Iface != "test.Node" {
		t.Fatalf("iface = %q (RegisterImpl not honoured)", stub.Ref().Iface)
	}
	v, err := stub.InvokeOne(ctx, "Value")
	if err != nil || v.(int64) != 42 {
		t.Fatalf("Value via stub: %v %#v", err, v)
	}
}

// TestIdentityLostFaithfulRMI reproduces the paper's §4.4 observation: the
// stub passed back to its owning server is NOT the original object, and
// calls through it traverse the network (loopback).
func TestIdentityLostFaithfulRMI(t *testing.T) {
	server, client := newPair(t)
	svc := &identitySvc{}
	ref, err := server.Export(svc, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub := res[0].(*rmi.Stub)

	same, err := client.Call(ctx, ref, "IsSame", stub)
	if err != nil {
		t.Fatal(err)
	}
	if same[0].(bool) {
		t.Fatal("faithful RMI semantics violated: arg == created object")
	}
	// The loopback call still reads the right value.
	val, err := client.Call(ctx, ref, "ReadValue", stub)
	if err != nil {
		t.Fatal(err)
	}
	if val[0].(int64) != 42 {
		t.Fatalf("loopback read %v", val[0])
	}
}

// TestIdentityWithLocalShortcut is the ablation: resolving refs locally
// restores identity (what RMI could do but does not).
func TestIdentityWithLocalShortcut(t *testing.T) {
	server, client := newPair(t, rmi.WithLocalShortcut())
	svc := &identitySvc{}
	ref, err := server.Export(svc, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	same, err := client.Call(ctx, ref, "IsSame", res[0])
	if err != nil {
		t.Fatal(err)
	}
	if !same[0].(bool) {
		t.Fatal("local shortcut did not restore identity")
	}
}

func TestSliceOfRemotesMarshalsElementWise(t *testing.T) {
	server, client := newPair(t)
	ref, err := server.Export(&identitySvc{}, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "CreateMany", 3)
	if err != nil {
		t.Fatal(err)
	}
	elems, ok := res[0].([]any)
	if !ok {
		t.Fatalf("got %T", res[0])
	}
	if len(elems) != 3 {
		t.Fatalf("got %d elements", len(elems))
	}
	for i, el := range elems {
		stub, ok := el.(*rmi.Stub)
		if !ok {
			t.Fatalf("element %d is %T", i, el)
		}
		v, err := stub.InvokeOne(ctx, "Value")
		if err != nil || v.(int64) != int64(i) {
			t.Fatalf("element %d: %v %v", i, err, v)
		}
	}
}

func TestStubFactoryTypedStub(t *testing.T) {
	rmi.RegisterStubFactory("test.TypedNode", func(inv rmi.Invoker) any {
		return &typedNodeStub{Invoker: inv}
	})
	rmi.RegisterImpl("test.TypedNode", &typedNode{})

	server, client := newPair(t)
	svc := &typedNodeFactory{}
	ref, err := server.Export(svc, "test.TypedFactory")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Make", 7)
	if err != nil {
		t.Fatal(err)
	}
	typed, ok := res[0].(*typedNodeStub)
	if !ok {
		t.Fatalf("factory not used, got %T", res[0])
	}
	v, err := typed.Value(ctx)
	if err != nil || v != 7 {
		t.Fatalf("typed call: %v %v", err, v)
	}
	// The typed stub travels back as its ref and satisfies a typed param.
	res, err = client.Call(ctx, ref, "ReadTyped", typed)
	if err != nil || res[0].(int64) != 7 {
		t.Fatalf("ReadTyped: %v %#v", err, res)
	}
}

type typedNode struct {
	rmi.RemoteBase
	val int
}

func (n *typedNode) Value() int { return n.val }

type valuer interface {
	Value(ctx context.Context) (int, error)
}

type typedNodeStub struct {
	rmi.Invoker
}

func (s *typedNodeStub) Value(ctx context.Context) (int, error) {
	res, err := s.Invoke(ctx, "Value")
	if err != nil {
		return 0, err
	}
	return int(res[0].(int64)), nil
}

type typedNodeFactory struct {
	rmi.RemoteBase
}

func (f *typedNodeFactory) Make(v int) *typedNode { return &typedNode{val: v} }

func (f *typedNodeFactory) ReadTyped(ctx context.Context, n valuer) (int, error) {
	return n.Value(ctx)
}

func TestDGCKeepsRenewedObjectAlive(t *testing.T) {
	server, client := newPair(t, rmi.WithLease(80*time.Millisecond))
	ref, err := server.Export(&identitySvc{}, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub := res[0].(*rmi.Stub)

	// Client renews in the background (renewEvery = lease/3); after several
	// lease periods the auto-exported node must still answer.
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := stub.InvokeOne(ctx, "Value"); err != nil {
			t.Fatalf("object collected while lease renewed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDGCCollectsAbandonedObject(t *testing.T) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf), rmi.WithLease(60*time.Millisecond))
	if err := server.Serve("server"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))

	ref, err := server.Export(&identitySvc{}, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub := res[0].(*rmi.Stub)
	baseline := server.NumExported()

	// Kill the client: renewals stop; the lease must lapse and the
	// auto-export must be collected.
	_ = client.Close()
	waitFor(t, time.Second, func() bool { return server.NumExported() < baseline })

	// A fresh client calling the dead ref gets NoSuchObjectError.
	client2 := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer client2.Close()
	_, err = client2.Call(ctx, stub.Ref(), "Value")
	var nso *rmi.NoSuchObjectError
	if !errors.As(err, &nso) {
		t.Fatalf("got %v, want NoSuchObjectError", err)
	}
}

func TestStubReleaseCleansLease(t *testing.T) {
	server, client := newPair(t, rmi.WithLease(time.Hour)) // no expiry help
	ref, err := server.Export(&identitySvc{}, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := client.Call(ctx, ref, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub := res[0].(*rmi.Stub)
	before := server.NumExported()
	// Ensure the client's lease is registered before releasing, otherwise
	// only the marshal lease exists and Clean is a no-op for this client.
	client.RenewNow()
	stub.Release(ctx)
	waitFor(t, time.Second, func() bool { return server.NumExported() < before })
}

func TestPinnedExportSurvivesDGC(t *testing.T) {
	server, client := newPair(t, rmi.WithLease(50*time.Millisecond))
	ref := exportCalc(t, server)
	time.Sleep(200 * time.Millisecond) // several sweep periods, no leases at all
	if _, err := client.Call(context.Background(), ref, "Add", 1, 1); err != nil {
		t.Fatalf("pinned export collected: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	ctx := context.Background()
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func(i int) {
			res, err := client.Call(ctx, ref, "Add", i, i)
			if err == nil && res[0].(int64) != int64(2*i) {
				err = fmt.Errorf("got %v, want %d", res[0], 2*i)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < 32; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	_ = client.Close()
	if _, err := client.Call(context.Background(), ref, "Add", 1, 2); !errors.Is(err, rmi.ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestRemoteExceptionOnDeadServer(t *testing.T) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer client.Close()
	ref := wire.Ref{Endpoint: "nowhere", ObjID: 16, Iface: "X"}
	_, err := client.Call(context.Background(), ref, "Anything")
	var re *rmi.RemoteException
	if !errors.As(err, &re) {
		t.Fatalf("got %v (%T), want *RemoteException", err, err)
	}
}

func TestServeTwiceFails(t *testing.T) {
	server, _ := newPair(t)
	if err := server.Serve("second"); err == nil {
		t.Fatal("second Serve succeeded")
	}
}

func TestDerefAndInvokerInterface(t *testing.T) {
	server, client := newPair(t)
	ref := exportCalc(t, server)
	inv := client.Deref(ref)
	if inv.Ref() != ref {
		t.Fatalf("Deref ref = %v", inv.Ref())
	}
	res, err := inv.Invoke(context.Background(), "Add", 20, 22)
	if err != nil || res[0].(int64) != 42 {
		t.Fatalf("got %v %#v", err, res)
	}
}

func TestInvokeLocalDirect(t *testing.T) {
	server, _ := newPair(t)
	res, err := server.InvokeLocal(context.Background(), &calc{}, "Add", []any{int64(1), int64(2)})
	if err != nil || res[0].(int) != 3 {
		t.Fatalf("got %v %#v", err, res)
	}
	if _, err := server.InvokeLocal(context.Background(), nil, "X", nil); err == nil {
		t.Fatal("nil target accepted")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

func TestToWireFromWireSymmetry(t *testing.T) {
	server, client := newPair(t)
	c := &calc{}
	ref, err := server.Export(c, "test.Calc")
	if err != nil {
		t.Fatal(err)
	}
	// ToWire of a stub yields its ref; FromWire of that ref yields a stub
	// pointing at the same object.
	stub := client.Deref(ref)
	w, err := client.ToWire(stub)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, ref) {
		t.Fatalf("ToWire(stub) = %#v, want %#v", w, ref)
	}
	back := client.FromWire(ref)
	if inv, ok := back.(rmi.Invoker); !ok || inv.Ref() != ref {
		t.Fatalf("FromWire(ref) = %#v", back)
	}
}
