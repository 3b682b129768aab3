package wire

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
)

// structPlan caches the encodable field layout of a registered struct type,
// with per-field codec closures compiled at Register time (see codec.go).
// Types registered with RegisterCompiled additionally carry the fast hooks,
// which replace the per-field reflection loop entirely (see fastcodec.go).
type structPlan struct {
	name   string
	typ    reflect.Type // the struct type (never a pointer)
	std    int          // index in standardTypes, -1 for a type that travels by name
	fields []fieldPlan

	fastEncVal  func(Enc, any) error        // v is T or *T
	fastEncAddr func(Enc, any) error        // p is *T
	fastDecVal  func(Dec, int) (any, error) // returns T or *T per registration
	fastDecInto func(Dec, any, int) error   // p is *T
}

type fieldPlan struct {
	name  string
	index int
	enc   encFunc
	dec   decFunc
}

// registry maps wire names to struct types and back. It is global, like
// gob's type registry: wire names must be process-wide unique. Lookups are
// on the encode/decode hot path of every struct value, so the registry is a
// copy-on-write snapshot behind an atomic pointer: readers never lock,
// writers (Register, init-time only in practice) copy.
type registry struct {
	mu    sync.Mutex // serializes writers
	state atomic.Pointer[registryState]
}

type registryState struct {
	byName  map[string]*structPlan
	byType  map[reflect.Type]*structPlan
	asPtr   map[reflect.Type]bool // decode as *T rather than T
	errName map[string]bool       // names registered via RegisterError
	// std resolves kStd indexes: entry i is standardTypes[i]'s plan (nil
	// while unregistered), so decoding one is an array index.
	std [len(standardTypes)]streamType
}

var defaultRegistry = newRegistry()

func newRegistry() *registry {
	r := &registry{}
	r.state.Store(&registryState{
		byName:  make(map[string]*structPlan),
		byType:  make(map[reflect.Type]*structPlan),
		asPtr:   make(map[reflect.Type]bool),
		errName: make(map[string]bool),
	})
	return r
}

// clone copies the current state for a writer. Caller holds r.mu.
func (r *registry) clone() *registryState {
	old := r.state.Load()
	next := &registryState{
		byName:  make(map[string]*structPlan, len(old.byName)+1),
		byType:  make(map[reflect.Type]*structPlan, len(old.byType)+1),
		asPtr:   make(map[reflect.Type]bool, len(old.asPtr)+1),
		errName: make(map[string]bool, len(old.errName)+1),
	}
	for k, v := range old.byName {
		next.byName[k] = v
	}
	for k, v := range old.byType {
		next.byType[k] = v
	}
	for k, v := range old.asPtr {
		next.asPtr[k] = v
	}
	for k, v := range old.errName {
		next.errName[k] = v
	}
	return next
}

// publish resolves next's standard table and makes next the state readers
// see. Caller holds r.mu.
func (r *registry) publish(next *registryState) {
	for i, name := range standardTypes {
		if p, ok := next.byName[name]; ok {
			next.std[i] = streamType{plan: p, asPtr: next.asPtr[p.typ]}
		}
	}
	r.state.Store(next)
}

// Register associates name with the struct type of sample so values of that
// type (and pointers to it) can be encoded and decoded. If sample is a
// pointer, decoded values are produced as pointers; otherwise as values.
// Registering the same (name, type) pair again is a no-op; conflicting
// re-registration returns an error.
func Register(name string, sample any) error {
	if name == "" {
		return fmt.Errorf("wire: register: empty name")
	}
	t := reflect.TypeOf(sample)
	if t == nil {
		return fmt.Errorf("wire: register %q: nil sample", name)
	}
	wantPtr := false
	if t.Kind() == reflect.Pointer {
		wantPtr = true
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return fmt.Errorf("wire: register %q: %s is not a struct", name, t)
	}
	plan, err := buildPlan(name, t)
	if err != nil {
		return err
	}

	r := defaultRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.state.Load()
	if prev, ok := cur.byName[name]; ok {
		if prev.typ != t {
			return fmt.Errorf("wire: register %q: already bound to %s", name, prev.typ)
		}
		if cur.asPtr[t] == wantPtr {
			return nil
		}
		next := r.clone()
		next.asPtr[t] = wantPtr
		r.publish(next)
		return nil
	}
	if prev, ok := cur.byType[t]; ok && prev.name != name {
		return fmt.Errorf("wire: register %q: type %s already registered as %q", name, t, prev.name)
	}
	next := r.clone()
	next.byName[name] = plan
	next.byType[t] = plan
	next.asPtr[t] = wantPtr
	r.publish(next)
	return nil
}

// MustRegister is Register but panics on error. Intended for package init.
func MustRegister(name string, sample any) {
	if err := Register(name, sample); err != nil {
		panic(err)
	}
}

// RegisterError registers an error type for typed round-tripping. sample must
// be a struct or pointer-to-struct implementing error. The receiving side
// decodes values back into the concrete type so errors.As keeps working.
func RegisterError(name string, sample error) error {
	if err := Register(name, sample); err != nil {
		return err
	}
	r := defaultRegistry
	r.mu.Lock()
	next := r.clone()
	next.errName[name] = true
	r.publish(next)
	r.mu.Unlock()
	return nil
}

// MustRegisterError is RegisterError but panics on error.
func MustRegisterError(name string, sample error) {
	if err := RegisterError(name, sample); err != nil {
		panic(err)
	}
}

// TypeNameOf returns the registered wire name for v's type, or the reflect
// type string when unregistered. BRMI exception policies match on this name.
func TypeNameOf(v any) string {
	if v == nil {
		return ""
	}
	if re, ok := v.(*RemoteError); ok && re.TypeName != "" {
		return re.TypeName
	}
	t := reflect.TypeOf(v)
	base := t
	if base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	if p, ok := defaultRegistry.state.Load().byType[base]; ok {
		return p.name
	}
	return t.String()
}

func buildPlan(name string, t reflect.Type) (*structPlan, error) {
	plan := &structPlan{name: name, typ: t, std: standardIndex(name)}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if tag := f.Tag.Get("wire"); tag == "-" {
			continue
		}
		plan.fields = append(plan.fields, fieldPlan{
			name:  f.Name,
			index: i,
			enc:   compileFieldEnc(f.Type),
			dec:   compileFieldDec(f.Type),
		})
	}
	return plan, nil
}

func planForType(t reflect.Type) (*structPlan, bool) {
	p, ok := defaultRegistry.state.Load().byType[t]
	return p, ok
}

func planForName(name string) (*structPlan, bool) {
	p, ok := defaultRegistry.state.Load().byName[name]
	return p, ok
}

func decodeAsPointer(t reflect.Type) bool {
	return defaultRegistry.state.Load().asPtr[t]
}

// stdType resolves a kStd index. An index past the end of this binary's
// table (a newer peer's type), or of a type this binary never registered,
// is an unregistered type, like an unknown name in a kTypeDef.
func stdType(i uint64) (streamType, error) {
	std := &defaultRegistry.state.Load().std
	if i >= uint64(len(std)) {
		return streamType{}, fmt.Errorf("%w: standard type %d", ErrUnregistered, i)
	}
	if std[i].plan == nil {
		return streamType{}, fmt.Errorf("%w: standard type %d (%q)", ErrUnregistered, i, standardTypes[i])
	}
	return std[i], nil
}
