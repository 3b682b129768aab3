// Package rmi implements the distributed object runtime that plays the role
// of Java RMI in the paper: exported remote objects, client stubs, remote
// references, reflection-based server dispatch, remote exceptions, and
// lease-based distributed garbage collection.
//
// Semantics deliberately mirror Java RMI (paper §2, §4.4):
//
//   - Objects whose type embeds RemoteBase are passed by remote reference;
//     everything else is passed by copy through internal/wire.
//   - A remote object marshalled out of its server travels as a Ref and
//     arrives as a stub.
//   - A stub marshalled back to the server that owns the referenced object
//     REMAINS a stub: invocations on it loop back through the network, and
//     identity with the original object is lost. This is the RMI deficiency
//     the paper exploits (Figures 9-11); the BRMI layer in internal/core
//     restores identity by replaying calls server-side. The WithLocalShortcut
//     option switches the substrate to resolve such refs locally, used as an
//     ablation baseline.
//
// Go has no dynamic proxies, so typed stubs are produced by cmd/brmigen
// (registered via RegisterStubFactory); the dynamic Invoker API works
// without code generation.
package rmi

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Remote marks objects that are passed by remote reference. Implementations
// embed RemoteBase, mirroring "extends Remote" in Java RMI.
type Remote interface {
	remoteObject()
}

// RemoteBase is embedded by remote object implementations to mark them as
// passed-by-reference.
type RemoteBase struct{}

func (RemoteBase) remoteObject() {}

// Invoker is the dynamic client-side view of a remote object. The generic
// *Stub implements it, as do all generated typed stubs.
type Invoker interface {
	// Invoke calls the named method with the given arguments and returns the
	// method's non-error results.
	Invoke(ctx context.Context, method string, args ...any) ([]any, error)
	// Ref returns the remote reference this invoker points at.
	Ref() wire.Ref
}

// RefHolder is the subset of Invoker used when marshalling: anything that
// can reveal a remote reference travels as that reference.
type RefHolder interface {
	Ref() wire.Ref
}

// Reserved object identifiers for system services. User objects are
// numbered from FirstUserObjID.
const (
	DGCObjID      uint64 = 0 // lease service (always exported by serving peers)
	RegistryObjID uint64 = 1 // naming service (internal/registry)
	BatchObjID    uint64 = 2 // BRMI batch executor (internal/core)
	NodeObjID     uint64 = 3 // cluster membership/migration service (internal/cluster)
	StatsObjID    uint64 = 4 // metrics scrape service (internal/statsnode)
	ReplicaObjID  uint64 = 5 // shard replication service (internal/cluster)

	// FirstUserObjID is the first identifier handed to application exports.
	FirstUserObjID uint64 = 16
)

// Interface names of the system services.
const (
	DGCIface      = "rmi.DGC"
	RegistryIface = "rmi.Registry"
	BatchIface    = "rmi.BatchService"
	NodeIface     = "cluster.Node"
	StatsIface    = "stats.Node"
	ReplicaIface  = "cluster.Replica"
)

// SystemRef builds the well-known reference of a system service at endpoint.
func SystemRef(endpoint string, objID uint64, iface string) wire.Ref {
	return wire.Ref{Endpoint: endpoint, ObjID: objID, Iface: iface}
}

// Exported errors.
var (
	// ErrClientOnly reports an operation that requires a serving peer
	// (exporting objects needs an endpoint for refs to point at).
	ErrClientOnly = errors.New("rmi: peer is not serving")

	// ErrClosed reports use of a closed peer.
	ErrClosed = errors.New("rmi: peer closed")
)

// RemoteException wraps communication-level failures, mirroring
// java.rmi.RemoteException: it marks errors raised by the plumbing rather
// than by the application method.
type RemoteException struct {
	Op       string // "dial", "call", "decode", ...
	Endpoint string
	Err      error
}

func (e *RemoteException) Error() string {
	return fmt.Sprintf("rmi: %s %s: %v", e.Op, e.Endpoint, e.Err)
}

func (e *RemoteException) Unwrap() error { return e.Err }

// NoSuchObjectError reports a call on an object id absent from the server's
// export table (e.g. collected by DGC).
type NoSuchObjectError struct {
	ObjID uint64
}

func (e *NoSuchObjectError) Error() string {
	return fmt.Sprintf("rmi: no such object %d", e.ObjID)
}

// WrongHomeError reports a call routed with a stale shard map: the target
// object lived here once but was migrated to a new home when the cluster
// membership changed at epoch NewEpoch. Key is the cluster-wide name the
// object was bound under; the caller re-resolves it against a ring at least
// as new as NewEpoch and retries at the new home.
type WrongHomeError struct {
	Key      string
	NewEpoch uint64
}

func (e *WrongHomeError) Error() string {
	return fmt.Sprintf("rmi: wrong home for %q (moved at epoch %d)", e.Key, e.NewEpoch)
}

// NoSuchMethodError reports a call on a method the target does not have.
type NoSuchMethodError struct {
	Iface  string
	Method string
}

func (e *NoSuchMethodError) Error() string {
	return fmt.Sprintf("rmi: no such method %s.%s", e.Iface, e.Method)
}

// callRequest is the wire form of one remote invocation.
type callRequest struct {
	ObjID  uint64
	Method string
	Args   []any
}

// callResponse is the wire form of an invocation result. Err carries
// application errors (typed, when registered) as well as dispatch errors.
type callResponse struct {
	Results []any
	Err     error
}

// dgcRequest/dgcResponse would be separate in Java's DGC protocol; here DGC
// calls ride the normal call path against DGCObjID.

// Compiled wire codecs (wire.RegisterCompiled) for the two call envelopes:
// every remote invocation encodes and decodes one of each, so they skip the
// reflection plan. Wire form is identical to the generic encoding.

func encCallRequest(x wire.Enc, r *callRequest) error {
	n := 3
	if r.Args == nil {
		n = 2
		if r.Method == "" {
			n = 1
			if r.ObjID == 0 {
				n = 0
			}
		}
	}
	x.BeginStruct("rmi.call.req", n)
	if n > 0 {
		x.Uint(r.ObjID)
	}
	if n > 1 {
		x.Str(r.Method)
	}
	if n > 2 {
		x.Slice(len(r.Args))
		for _, a := range r.Args {
			if err := x.Value(a); err != nil {
				return err
			}
		}
	}
	return nil
}

func decCallRequest(x wire.Dec, r *callRequest, n int) error {
	var err error
	if n > 0 {
		if r.ObjID, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 1 {
		if r.Method, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 2 {
		an, err := x.SliceLen()
		if err != nil {
			return err
		}
		if an >= 0 {
			r.Args = make([]any, 0, min(an, wire.MaxPrealloc))
			for i := 0; i < an; i++ {
				v, err := x.Value()
				if err != nil {
					return err
				}
				r.Args = append(r.Args, v)
			}
		}
	}
	return x.SkipFields(n - 3)
}

func encCallResponse(x wire.Enc, r *callResponse) error {
	n := 2
	if r.Err == nil {
		n = 1
		if r.Results == nil {
			n = 0
		}
	}
	x.BeginStruct("rmi.call.resp", n)
	if n > 0 {
		if r.Results == nil {
			x.Nil()
		} else {
			x.Slice(len(r.Results))
			for _, v := range r.Results {
				if err := x.Value(v); err != nil {
					return err
				}
			}
		}
	}
	if n > 1 {
		if err := x.Value(r.Err); err != nil {
			return err
		}
	}
	return nil
}

func decCallResponse(x wire.Dec, r *callResponse, n int) error {
	if n > 0 {
		rn, err := x.SliceLen()
		if err != nil {
			return err
		}
		if rn >= 0 {
			r.Results = make([]any, 0, min(rn, wire.MaxPrealloc))
			for i := 0; i < rn; i++ {
				v, err := x.Value()
				if err != nil {
					return err
				}
				r.Results = append(r.Results, v)
			}
		}
	}
	if n > 1 {
		var err error
		if r.Err, err = x.ErrVal(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 2)
}

func init() {
	// Wire registration of protocol messages and protocol-level errors.
	// This is codec type registration (the canonical init() exception):
	// deterministic, order-independent, no I/O.
	wire.MustRegisterCompiled("rmi.call.req", true, encCallRequest, decCallRequest)
	wire.MustRegisterCompiled("rmi.call.resp", true, encCallResponse, decCallResponse)
	wire.MustRegisterError("rmi.NoSuchObject", &NoSuchObjectError{})
	wire.MustRegisterError("rmi.NoSuchMethod", &NoSuchMethodError{})
	wire.MustRegisterError("rmi.WrongHome", &WrongHomeError{})
}
