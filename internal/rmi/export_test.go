package rmi

import (
	"reflect"
	"slices"
	"time"

	"repro/internal/wire"
)

// WithLease sets the DGC lease duration granted to clients of this peer,
// and from which the client-side renewal interval (lease/3) is derived, so
// a lease test can watch one expire in test time.
func WithLease(d time.Duration) Option {
	return func(o *options) {
		o.lease = d
		o.sweepEvery = d / 4
		o.renewEvery = d / 3
	}
}

// ProtocolMethods returns the protocol method table.
func ProtocolMethods() []string { return slices.Clone(protocolMethods[:]) }

// SystemNames returns every method name a system service exported on p
// dispatches, and every stream service p serves, sorted.
func SystemNames(p *Peer) []string {
	var out []string
	for id := uint64(0); id < FirstUserObjID; id++ {
		if obj, ok := p.LocalObject(id); ok {
			for name := range planFor(reflect.TypeOf(obj)).methods {
				out = append(out, name)
			}
		}
	}
	p.mu.Lock()
	for name := range p.streams {
		out = append(out, name)
	}
	p.mu.Unlock()
	slices.Sort(out)
	return slices.Compact(out)
}

// MarshalCall encodes the envelope of a call of method on objID, no args.
func MarshalCall(objID uint64, method string) ([]byte, error) {
	return wire.Marshal(&callRequest{ObjID: objID, Method: method})
}

// UnmarshalCallMethod decodes a call envelope and returns its method.
func UnmarshalCallMethod(b []byte) (string, error) {
	v, err := wire.Unmarshal(b)
	if err != nil {
		return "", err
	}
	return v.(*callRequest).Method, nil
}
