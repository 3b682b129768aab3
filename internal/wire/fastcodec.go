package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// fastcodec.go is the compiled-codec extension point: a registered struct
// type may install a hand-written (or generated) codec that encodes and
// decodes its fields through the exported Enc/Dec primitives instead of the
// per-field reflection plan. The wire format is IDENTICAL — a compiled
// codec emits the same struct headers (kStd, or kTypeDef/kStruct) and the same field
// encodings the generic path produces, so compiled and generic peers
// interoperate freely. The BRMI protocol messages (internal/core,
// internal/rmi) install codecs; application types may too.

// Enc is the encoding handle passed to compiled codecs. Methods append
// exactly the wire form the generic encoder would produce for a field of
// the corresponding Go type.
type Enc struct{ e *encoder }

// Nil encodes a nil/absent value.
func (x Enc) Nil() { x.e.buf = append(x.e.buf, kNil) }

// Bool encodes a bool field.
func (x Enc) Bool(b bool) {
	if b {
		x.e.buf = append(x.e.buf, kTrue)
	} else {
		x.e.buf = append(x.e.buf, kFalse)
	}
}

// Int encodes a signed integer (or time.Duration) field.
func (x Enc) Int(v int64) { x.e.putInt(v) }

// Uint encodes an unsigned integer field.
func (x Enc) Uint(v uint64) { x.e.putUint(v) }

// Str encodes a string field.
func (x Enc) Str(s string) {
	x.e.buf = append(x.e.buf, kString)
	x.e.putString(s)
}

// BytesVal encodes a []byte field (nil encodes as kNil, like the generic
// path).
func (x Enc) BytesVal(b []byte) {
	if b == nil {
		x.Nil()
		return
	}
	x.e.buf = append(x.e.buf, kBytes)
	x.e.buf = binary.AppendUvarint(x.e.buf, uint64(len(b)))
	x.e.buf = append(x.e.buf, b...)
}

// RefVal encodes a Ref field.
func (x Enc) RefVal(r Ref) {
	x.e.buf = append(x.e.buf, kRef)
	x.e.putString(r.Endpoint)
	x.e.buf = binary.AppendUvarint(x.e.buf, r.ObjID)
	x.e.putString(r.Iface)
}

// Value encodes any supported value through the generic encoder (used for
// interface-typed fields).
func (x Enc) Value(v any) error { return x.e.value(v) }

// Slice begins a slice of n values; the codec then encodes exactly n
// elements.
func (x Enc) Slice(n int) {
	x.e.buf = append(x.e.buf, kSlice)
	x.e.buf = binary.AppendUvarint(x.e.buf, uint64(n))
}

// BeginStruct begins a struct value of the named registered type with n
// encoded fields (trailing zero fields may be omitted by passing a smaller
// n); the codec then encodes exactly n fields in declaration order.
func (x Enc) BeginStruct(name string, n int) {
	x.e.structHeader(x.e.stdIndex(name), name, n)
}

// Dec is the decoding handle passed to compiled codecs. Methods accept
// exactly the tag repertoire the generic field decoders accept (numeric
// cross-assignment, kNil as zero), so a compiled decoder is
// indistinguishable from the reflection plan.
type Dec struct{ d *decoder }

// Bool decodes a bool field.
func (x Dec) Bool() (bool, error) {
	tag, err := x.d.tag()
	if err != nil {
		return false, err
	}
	switch tag {
	case kTrue:
		return true, nil
	case kFalse, kNil:
		return false, nil
	default:
		return false, x.d.corrupt("expected bool")
	}
}

// Int decodes a signed integer field.
func (x Dec) Int() (int64, error) {
	tag, err := x.d.tag()
	if err != nil {
		return 0, err
	}
	switch tag {
	case kInt:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return unzigzag(u), nil
	case kUint:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return int64(u), nil
	case kNil:
		return 0, nil
	default:
		return 0, x.d.corrupt("expected integer")
	}
}

// Dur decodes a time.Duration field (additionally accepting the dynamic
// kDur form, like the generic Duration field decoder).
func (x Dec) Dur() (time.Duration, error) {
	tag, err := x.d.tag()
	if err != nil {
		return 0, err
	}
	switch tag {
	case kInt, kDur:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return time.Duration(unzigzag(u)), nil
	case kUint:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return time.Duration(u), nil
	case kNil:
		return 0, nil
	default:
		return 0, x.d.corrupt("expected duration")
	}
}

// Uint decodes an unsigned integer field.
func (x Dec) Uint() (uint64, error) {
	tag, err := x.d.tag()
	if err != nil {
		return 0, err
	}
	switch tag {
	case kUint:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return u, nil
	case kInt:
		u, err := x.d.uvarint()
		if err != nil {
			return 0, err
		}
		return uint64(unzigzag(u)), nil
	case kNil:
		return 0, nil
	default:
		return 0, x.d.corrupt("expected unsigned integer")
	}
}

// Str decodes a string field.
func (x Dec) Str() (string, error) {
	tag, err := x.d.tag()
	if err != nil {
		return "", err
	}
	if tag == kNil {
		return "", nil
	}
	if tag != kString {
		return "", x.d.corrupt("expected string")
	}
	return x.d.string()
}

// Name decodes a string field that may travel as an index into table: a
// kString is the string itself, a kUint names table's entry. An index past
// the table is corrupt. A codec whose sender writes well-known strings as
// their index (rmi's protocol method table) reads both forms with it.
func (x Dec) Name(table []string) (string, error) {
	tag, err := x.d.tag()
	if err != nil {
		return "", err
	}
	switch tag {
	case kString:
		return x.d.string()
	case kUint:
		i, err := x.d.uvarint()
		if err != nil {
			return "", err
		}
		if i >= uint64(len(table)) {
			return "", x.d.corrupt(fmt.Sprintf("name index %d past a table of %d", i, len(table)))
		}
		return table[i], nil
	case kNil:
		return "", nil
	default:
		return "", x.d.corrupt("expected string or name index")
	}
}

// BytesVal decodes a []byte field.
func (x Dec) BytesVal() ([]byte, error) {
	tag, err := x.d.tag()
	if err != nil {
		return nil, err
	}
	if tag == kNil {
		return nil, nil
	}
	if tag != kBytes {
		return nil, x.d.corrupt("expected bytes")
	}
	n, err := x.d.uvarint()
	if err != nil {
		return nil, err
	}
	b, err := x.d.take(n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// RefVal decodes a Ref field.
func (x Dec) RefVal() (Ref, error) {
	tag, err := x.d.tag()
	if err != nil {
		return Ref{}, err
	}
	if tag == kNil {
		return Ref{}, nil
	}
	if tag != kRef {
		return Ref{}, x.d.corrupt("expected ref")
	}
	var r Ref
	if r.Endpoint, err = x.d.string(); err != nil {
		return Ref{}, err
	}
	if r.ObjID, err = x.d.uvarint(); err != nil {
		return Ref{}, err
	}
	if r.Iface, err = x.d.string(); err != nil {
		return Ref{}, err
	}
	return r, nil
}

// Value decodes any supported value through the generic decoder (used for
// interface-typed fields).
func (x Dec) Value() (any, error) { return x.d.value() }

// ErrVal decodes an error-typed field: nil, a registered error struct, or
// the generic *RemoteError.
func (x Dec) ErrVal() (error, error) {
	v, err := x.d.value()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	e, ok := v.(error)
	if !ok {
		return nil, x.d.corrupt(fmt.Sprintf("expected error value, got %T", v))
	}
	return e, nil
}

// SliceLen begins decoding a slice field: it returns the element count, or
// -1 for a nil slice. The codec then decodes exactly that many elements,
// reserving room for at most MaxPrealloc of them before they arrive: the
// count is bounded by the message's length, not by its elements.
func (x Dec) SliceLen() (int, error) {
	tag, err := x.d.tag()
	if err != nil {
		return 0, err
	}
	if tag == kNil {
		return -1, nil
	}
	if tag != kSlice {
		return 0, x.d.corrupt("expected slice")
	}
	return x.d.count("slice length")
}

// StructFields begins decoding a struct field of the named registered type:
// it consumes the struct header and returns the number of encoded fields
// (which may be fewer than the type declares — the rest are zero — or more
// — pass the surplus to SkipFields). A nil value returns -1.
func (x Dec) StructFields(name string) (int, error) {
	tag, err := x.d.tag()
	if err != nil {
		return 0, err
	}
	if tag == kNil {
		return -1, nil
	}
	if tag != kStruct && tag != kStd {
		return 0, x.d.corrupt("expected struct")
	}
	st, n, err := x.d.structHeader(tag)
	if err != nil {
		return 0, err
	}
	if st.plan.name != name {
		return 0, fmt.Errorf("wire: cannot decode %q into %q", st.plan.name, name)
	}
	return n, nil
}

// SkipFields discards n values (fields a newer sender appended that this
// codec does not know).
func (x Dec) SkipFields(n int) error {
	for i := 0; i < n; i++ {
		if _, err := x.d.value(); err != nil {
			return err
		}
	}
	return nil
}

// RegisterCompiled registers name for the struct type T like Register —
// decodeAsPtr selects whether dynamic decoding produces *T or T — and
// installs a compiled codec replacing the reflection plan on both encode
// and decode hot paths. enc must emit the full value (BeginStruct header
// first, then its fields in declaration order); dec receives the value to
// fill and the encoded field count n, must read exactly min(n, known)
// fields and skip the surplus with SkipFields.
func RegisterCompiled[T any](name string, decodeAsPtr bool, enc func(Enc, *T) error, dec func(Dec, *T, int) error) error {
	var sample any
	if decodeAsPtr {
		sample = new(T)
	} else {
		var zero T
		sample = zero
	}
	if err := Register(name, sample); err != nil {
		return err
	}

	// A compiled struct is one level, as its decoder counts it; the levels
	// its codec writes inline (BeginStruct, Slice) are not, on either side.
	encLevel := func(x Enc, p *T) error {
		if err := x.e.enter(); err != nil {
			return err
		}
		err := enc(x, p)
		x.e.depth--
		return err
	}
	fastEncVal := func(x Enc, v any) error {
		if p, ok := v.(*T); ok {
			if p == nil {
				x.Nil()
				return nil
			}
			return encLevel(x, p)
		}
		t := v.(T)
		return encLevel(x, &t)
	}
	fastEncAddr := func(x Enc, p any) error { return encLevel(x, p.(*T)) }
	fastDecVal := func(x Dec, n int) (any, error) {
		var v T
		if err := dec(x, &v, n); err != nil {
			return nil, err
		}
		if decodeAsPtr {
			return &v, nil
		}
		return v, nil
	}
	fastDecInto := func(x Dec, p any, n int) error { return dec(x, p.(*T), n) }

	r := defaultRegistry
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.state.Load()
	old := cur.byName[name]
	np := *old
	np.fastEncVal = fastEncVal
	np.fastEncAddr = fastEncAddr
	np.fastDecVal = fastDecVal
	np.fastDecInto = fastDecInto
	next := r.clone()
	next.byName[name] = &np
	next.byType[np.typ] = &np
	r.publish(next)
	return nil
}

// MustRegisterCompiled is RegisterCompiled but panics on error.
func MustRegisterCompiled[T any](name string, decodeAsPtr bool, enc func(Enc, *T) error, dec func(Dec, *T, int) error) {
	if err := RegisterCompiled(name, decodeAsPtr, enc, dec); err != nil {
		panic(err)
	}
}
