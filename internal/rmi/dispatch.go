package rmi

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/transport"
	"repro/internal/wire"
)

// methodPlan caches reflection metadata for one dispatchable method.
type methodPlan struct {
	fn      reflect.Value
	in      []reflect.Type // parameter types after receiver (and ctx, if any)
	hasCtx  bool
	hasErr  bool
	numOut  int // results excluding trailing error
	numIn   int // parameters excluding receiver and ctx
	varArgs bool
}

// typePlan caches all dispatchable methods of a concrete type.
type typePlan struct {
	methods map[string]*methodPlan
}

var (
	planCache   sync.Mutex
	plansByType = make(map[reflect.Type]*typePlan)

	ctxType = reflect.TypeOf((*context.Context)(nil)).Elem()
	errType = reflect.TypeOf((*error)(nil)).Elem()
)

// invokeArgPool recycles the reflect.Value argument frames InvokeLocal
// builds for every dispatched call.
var invokeArgPool = sync.Pool{New: func() any {
	s := make([]reflect.Value, 0, 8)
	return &s
}}

// putInvokeArgs clears the frame (so pooled slots do not pin arguments) and
// returns it to the pool.
func putInvokeArgs(inp *[]reflect.Value, in []reflect.Value) {
	for i := range in {
		in[i] = reflect.Value{}
	}
	*inp = in[:0]
	invokeArgPool.Put(inp)
}

func planFor(t reflect.Type) *typePlan {
	planCache.Lock()
	defer planCache.Unlock()
	if p, ok := plansByType[t]; ok {
		return p
	}
	p := &typePlan{methods: make(map[string]*methodPlan, t.NumMethod())}
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		if !m.IsExported() {
			continue
		}
		mp := &methodPlan{fn: m.Func, varArgs: m.Type.IsVariadic()}
		mt := m.Type
		start := 1 // skip receiver
		if mt.NumIn() > start && mt.In(start) == ctxType {
			mp.hasCtx = true
			start++
		}
		for j := start; j < mt.NumIn(); j++ {
			mp.in = append(mp.in, mt.In(j))
		}
		mp.numIn = len(mp.in)
		mp.numOut = mt.NumOut()
		if mp.numOut > 0 && mt.Out(mt.NumOut()-1) == errType {
			mp.hasErr = true
			mp.numOut--
		}
		p.methods[m.Name] = mp
	}
	plansByType[t] = p
	return p
}

// LocalDispatcher is the reflection-free dispatch fast path: a remote
// object that implements it executes its own methods from wire-decoded
// arguments, skipping the reflect.Call machinery entirely — the Go analogue
// of the skeleton classes rmic generated before reflective dispatch.
// brmigen emits a Dispatch<Iface> helper per remote interface so an
// implementation satisfies this with a three-line method; hand-written
// dispatchers (see internal/bench) follow the same shape.
//
// DispatchLocal returns handled=false to fall back to reflective dispatch
// (unknown method, inconvertible argument); results may be appended to buf,
// which the caller may reuse afterwards. A returned error is the remote
// method's error, exactly as in reflective dispatch.
type LocalDispatcher interface {
	DispatchLocal(ctx context.Context, method string, args []any, buf []any) (results []any, handled bool, err error)
}

// InvokeLocal calls method on target with wire-decoded args, converting each
// argument to the parameter type (numeric widening, Ref to stub, struct
// forms). Results are returned raw (unmarshalled Go values); the caller
// decides whether to wire-convert them. Used by both the dispatch path and
// the BRMI batch executor, which replays recorded calls against local
// objects.
func (p *Peer) InvokeLocal(ctx context.Context, target any, method string, args []any) ([]any, error) {
	return p.InvokeLocalAppend(ctx, target, method, args, nil)
}

// dispatchFast runs a LocalDispatcher under the same panic containment as
// reflective dispatch.
func dispatchFast(ctx context.Context, d LocalDispatcher, method string, args []any, buf []any) (out []any, handled bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, handled = nil, true
			err = fmt.Errorf("rmi: panic in %T.%s: %v", d, method, r)
		}
	}()
	return d.DispatchLocal(ctx, method, args, buf)
}

// InvokeLocalAppend is InvokeLocal appending the results to buf (which may
// be reused scratch: the callee never retains it). The BRMI executor replays
// thousands of calls per batch through one scratch slice.
func (p *Peer) InvokeLocalAppend(ctx context.Context, target any, method string, args []any, buf []any) (results []any, err error) {
	if d, ok := target.(LocalDispatcher); ok {
		if out, handled, derr := dispatchFast(ctx, d, method, args, buf); handled {
			return out, derr
		}
	}
	if target == nil {
		return nil, &NoSuchObjectError{}
	}
	t := reflect.TypeOf(target)
	mp, ok := planFor(t).methods[method]
	if !ok {
		return nil, &NoSuchMethodError{Iface: t.String(), Method: method}
	}
	if len(args) != mp.numIn && !mp.varArgs {
		return nil, fmt.Errorf("rmi: %s.%s: got %d args, want %d", t, method, len(args), mp.numIn)
	}
	if mp.varArgs {
		return nil, fmt.Errorf("rmi: %s.%s: variadic remote methods are not supported", t, method)
	}

	// The argument frame is pooled: reflect.Call does not retain it, so one
	// scratch slice serves every invocation on this goroutine's turn.
	inp := invokeArgPool.Get().(*[]reflect.Value)
	in := (*inp)[:0]
	in = append(in, reflect.ValueOf(target))
	if mp.hasCtx {
		in = append(in, reflect.ValueOf(ctx))
	}
	for i, a := range args {
		av, cerr := p.assignArg(mp.in[i], a)
		if cerr != nil {
			putInvokeArgs(inp, in)
			return nil, fmt.Errorf("rmi: %s.%s arg %d: %w", t, method, i, cerr)
		}
		in = append(in, av)
	}

	// A panicking remote method must not take the server down; it becomes a
	// remote error on the caller, like Java's server-side RuntimeException.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rmi: panic in %s.%s: %v", t, method, r)
			results = nil
		}
	}()
	out := mp.fn.Call(in)
	putInvokeArgs(inp, in)

	if mp.hasErr {
		if ev := out[len(out)-1]; !ev.IsNil() {
			return nil, ev.Interface().(error)
		}
		out = out[:len(out)-1]
	}
	results = buf[:0]
	for _, o := range out {
		results = append(results, o.Interface())
	}
	return results, nil
}

// assignArg converts a wire-decoded value to the parameter type t.
func (p *Peer) assignArg(t reflect.Type, v any) (reflect.Value, error) {
	if ref, ok := v.(wire.Ref); ok && t != reflect.TypeOf(wire.Ref{}) {
		v = p.FromWire(ref)
	}
	if v == nil {
		return reflect.Zero(t), nil
	}
	rv := reflect.ValueOf(v)
	if rv.Type().AssignableTo(t) {
		return rv, nil
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		switch rv.Kind() {
		case reflect.Int64, reflect.Int, reflect.Int32:
			return reflect.ValueOf(rv.Int()).Convert(t), nil
		case reflect.Uint64, reflect.Uint:
			return reflect.ValueOf(int64(rv.Uint())).Convert(t), nil
		case reflect.Float64:
			return reflect.ValueOf(int64(rv.Float())).Convert(t), nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		switch rv.Kind() {
		case reflect.Uint64:
			return reflect.ValueOf(rv.Uint()).Convert(t), nil
		case reflect.Int64:
			return reflect.ValueOf(uint64(rv.Int())).Convert(t), nil
		}
	case reflect.Float32, reflect.Float64:
		switch rv.Kind() {
		case reflect.Float64, reflect.Float32:
			return rv.Convert(t), nil
		case reflect.Int64:
			return reflect.ValueOf(float64(rv.Int())).Convert(t), nil
		}
	case reflect.Slice:
		if generic, ok := v.([]any); ok {
			out := reflect.MakeSlice(t, len(generic), len(generic))
			for i, el := range generic {
				ev, err := p.assignArg(t.Elem(), el)
				if err != nil {
					return reflect.Value{}, fmt.Errorf("element %d: %w", i, err)
				}
				out.Index(i).Set(ev)
			}
			return out, nil
		}
	case reflect.Map:
		if generic, ok := v.(map[any]any); ok {
			out := reflect.MakeMapWithSize(t, len(generic))
			for k, el := range generic {
				kv, err := p.assignArg(t.Key(), k)
				if err != nil {
					return reflect.Value{}, fmt.Errorf("map key: %w", err)
				}
				ev, err := p.assignArg(t.Elem(), el)
				if err != nil {
					return reflect.Value{}, fmt.Errorf("map value: %w", err)
				}
				out.SetMapIndex(kv, ev)
			}
			return out, nil
		}
	case reflect.Pointer:
		if t.Elem().Kind() == reflect.Struct && rv.Kind() == reflect.Struct && rv.Type() == t.Elem() {
			pv := reflect.New(t.Elem())
			pv.Elem().Set(rv)
			return pv, nil
		}
	case reflect.Struct:
		if rv.Kind() == reflect.Pointer && !rv.IsNil() && rv.Type().Elem() == t {
			return rv.Elem(), nil
		}
	case reflect.Interface:
		if rv.Type().Implements(t) {
			return rv, nil
		}
	}
	return reflect.Value{}, fmt.Errorf("rmi: cannot use %T as %s", v, t)
}

// ToWire converts an outbound value to its wire form: stubs and remote
// objects become Refs (auto-exporting local remote objects), slices of
// remotes become slices of Refs, and everything else passes through for the
// codec to copy.
func (p *Peer) ToWire(v any) (any, error) {
	switch x := v.(type) {
	case nil:
		return nil, nil
	case RefHolder:
		return x.Ref(), nil
	case Remote:
		return p.exportAuto(x)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Interface {
		// Slices of remote interfaces marshal element-wise (each element of
		// RemoteFile[] becomes its own Ref in plain RMI).
		if isRemoteLike(rv.Type().Elem()) {
			out := make([]any, rv.Len())
			for i := 0; i < rv.Len(); i++ {
				el := rv.Index(i).Interface()
				w, err := p.ToWire(el)
				if err != nil {
					return nil, fmt.Errorf("element %d: %w", i, err)
				}
				out[i] = w
			}
			return out, nil
		}
	}
	if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Pointer {
		if rv.Type().Elem().Implements(remoteType) {
			out := make([]any, rv.Len())
			for i := 0; i < rv.Len(); i++ {
				w, err := p.ToWire(rv.Index(i).Interface())
				if err != nil {
					return nil, fmt.Errorf("element %d: %w", i, err)
				}
				out[i] = w
			}
			return out, nil
		}
	}
	return v, nil
}

var (
	remoteType    = reflect.TypeOf((*Remote)(nil)).Elem()
	refHolderType = reflect.TypeOf((*RefHolder)(nil)).Elem()
)

// isRemoteLike reports whether the interface type could hold remote objects
// or stubs.
func isRemoteLike(t reflect.Type) bool {
	return t.Implements(remoteType) || t.Implements(refHolderType) ||
		remoteType.Implements(t) || t.Kind() == reflect.Interface
}

// FromWire converts an inbound wire value to its client-visible form: a Ref
// becomes a stub (typed if a factory is registered for its interface).
// Faithful RMI semantics: a Ref owned by this very peer still becomes a
// loopback stub unless WithLocalShortcut was set (paper §4.4).
func (p *Peer) FromWire(v any) any {
	switch x := v.(type) {
	case wire.Ref:
		if x.IsZero() {
			return nil
		}
		if p.opts.localShortcut && x.Endpoint == p.endpoint {
			if e, ok := p.exports.get(x.ObjID); ok {
				return e.obj
			}
		}
		return p.stubFor(x)
	case []any:
		out := make([]any, len(x))
		for i, el := range x {
			out[i] = p.FromWire(el)
		}
		return out
	default:
		return v
	}
}

// handle is the transport.Handler for this peer: decode, dispatch, encode.
// The server runs WithBufferReuse, so the request payload is recycled by
// the transport after handle returns (nothing decoded aliases it) and the
// response is encoded into a pooled buffer the transport recycles after the
// write — the request/response hot path allocates no per-message []byte.
func (p *Peer) handle(ctx context.Context, payload []byte) ([]byte, error) {
	decStart := p.statsNow()
	msg, err := wire.Unmarshal(payload)
	p.observeSince(p.decNs, decStart)
	if err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	req, ok := msg.(*callRequest)
	if !ok {
		return nil, fmt.Errorf("unexpected request type %T", msg)
	}

	resp := &callResponse{}
	if e, found := p.exports.get(req.ObjID); found {
		results, ierr := p.InvokeLocal(ctx, e.obj, req.Method, req.Args)
		if ierr != nil {
			resp.Err = ierr
		} else {
			resp.Results = make([]any, len(results))
			for i, r := range results {
				w, werr := p.ToWire(r)
				if werr != nil {
					resp.Err = fmt.Errorf("rmi: marshal result %d of %s: %w", i, req.Method, werr)
					resp.Results = nil
					break
				}
				resp.Results[i] = w
			}
		}
	} else if wh, ok := p.ForwardedObject(req.ObjID); ok {
		resp.Err = wh
	} else {
		resp.Err = &NoSuchObjectError{ObjID: req.ObjID}
	}

	encStart := p.statsNow()
	buf := transport.GetBuffer()
	out, err := wire.MarshalAppend(buf, resp)
	p.observeSince(p.encNs, encStart)
	if err != nil {
		// The response contained an unencodable value; degrade to an error
		// response rather than killing the connection. The failed attempt
		// left buf untouched (MarshalAppend returns nil on error), so it is
		// reused for the second attempt and released if that fails too.
		resp = &callResponse{Err: &wire.RemoteError{TypeName: "rmi.EncodeError", Message: err.Error()}}
		out, err = wire.MarshalAppend(buf, resp)
		if err != nil {
			transport.PutBuffer(buf)
			return nil, fmt.Errorf("encode response: %w", err)
		}
	}
	return out, nil
}
