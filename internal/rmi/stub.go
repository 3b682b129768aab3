package rmi

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/wire"
)

// Stub is the generic dynamic proxy for a remote object. Typed stubs
// generated by cmd/brmigen wrap a Stub via a registered factory.
type Stub struct {
	peer *Peer
	ref  wire.Ref

	releaseOnce sync.Once
}

var _ Invoker = (*Stub)(nil)

// Ref returns the remote reference this stub points at.
func (s *Stub) Ref() wire.Ref { return s.ref }

// Invoke calls the named remote method and returns its non-error results.
func (s *Stub) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	return s.peer.Call(ctx, s.ref, method, args...)
}

// InvokeOne calls a single-result remote method.
func (s *Stub) InvokeOne(ctx context.Context, method string, args ...any) (any, error) {
	results, err := s.Invoke(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, nil
	}
	return results[0], nil
}

// Release drops this stub's DGC lease. Calling any method after Release is
// allowed but the remote object may have been collected.
func (s *Stub) Release(ctx context.Context) {
	s.releaseOnce.Do(func() {
		s.peer.releaseHold(ctx, s.ref)
	})
}

func (s *Stub) String() string { return "stub:" + s.ref.String() }

// StubFactory wraps a generic Invoker in a typed stub for one remote
// interface. Generated code registers factories from init.
type StubFactory func(Invoker) any

var stubFactories sync.Map // iface name -> StubFactory

// RegisterStubFactory installs the typed stub constructor for a remote
// interface name. Later registrations for the same name win, which lets
// tests override generated factories.
func RegisterStubFactory(iface string, factory StubFactory) {
	stubFactories.Store(iface, factory)
}

// stubFor materializes the client-side view of ref and begins lease
// tracking for it.
func (p *Peer) stubFor(ref wire.Ref) any {
	s := &Stub{peer: p, ref: ref}
	p.trackHold(ref)
	if f, ok := stubFactories.Load(ref.Iface); ok {
		return f.(StubFactory)(s)
	}
	return s
}

// implRegistry maps concrete remote object types to the interface name they
// should be exported under, so auto-exported return values get the right
// stub type on the client.
var implRegistry sync.Map // reflect.Type -> iface name

// RegisterImpl declares that values of sample's concrete type implement the
// named remote interface. Servers call this for types their methods return,
// so auto-exported results carry an interface name clients have stub
// factories for.
func RegisterImpl(iface string, sample Remote) {
	if sample == nil {
		panic("rmi: RegisterImpl with nil sample")
	}
	implRegistry.Store(reflect.TypeOf(sample), iface)
}

func ifaceNameFor(obj Remote) string {
	if name, ok := implRegistry.Load(reflect.TypeOf(obj)); ok {
		return name.(string)
	}
	return fmt.Sprintf("%T", obj)
}
