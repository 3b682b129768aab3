package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"time"
)

// codec.go compiles per-type encode/decode plans. Register walks a struct
// type once and emits a field-typed codec closure per field, so the hot
// marshal/unmarshal path dispatches through one indirect call per field
// instead of re-deriving the wire form from reflection kind switches on
// every value. Compilation is lazy across types: a field whose struct type
// is registered later resolves its plan on first use.

type encFunc func(e *encoder, rv reflect.Value) error
type decFunc func(d *decoder, rv reflect.Value) error

var (
	timeType     = reflect.TypeOf(time.Time{})
	durationType = reflect.TypeOf(time.Duration(0))
	refType      = reflect.TypeOf(Ref{})
)

// --- encoders ----------------------------------------------------------------

// compileFieldEnc returns the encoder closure for values of static type t.
// The emitted bytes are identical to the generic reflection path: the codec
// plan is a performance format, not a wire format change.
func compileFieldEnc(t reflect.Type) encFunc {
	switch t.Kind() {
	case reflect.Bool:
		return func(e *encoder, rv reflect.Value) error {
			if rv.Bool() {
				e.buf = append(e.buf, kTrue)
			} else {
				e.buf = append(e.buf, kFalse)
			}
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Duration fields travel as plain zigzag ints, exactly like the
		// reflection path encoded them (kDur is the dynamic-value form).
		return func(e *encoder, rv reflect.Value) error {
			e.putInt(rv.Int())
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(e *encoder, rv reflect.Value) error {
			e.putUint(rv.Uint())
			return nil
		}
	case reflect.Float32:
		return func(e *encoder, rv reflect.Value) error {
			e.buf = append(e.buf, kFloat32)
			e.buf = binary.BigEndian.AppendUint32(e.buf, math.Float32bits(float32(rv.Float())))
			return nil
		}
	case reflect.Float64:
		return func(e *encoder, rv reflect.Value) error {
			e.buf = append(e.buf, kFloat64)
			e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(rv.Float()))
			return nil
		}
	case reflect.String:
		return func(e *encoder, rv reflect.Value) error {
			e.buf = append(e.buf, kString)
			e.putString(rv.String())
			return nil
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return func(e *encoder, rv reflect.Value) error {
				if rv.IsNil() {
					e.buf = append(e.buf, kNil)
					return nil
				}
				b := rv.Bytes()
				e.buf = append(e.buf, kBytes)
				e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
				e.buf = append(e.buf, b...)
				return nil
			}
		}
		elem := compileFieldEnc(t.Elem())
		return func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.buf = append(e.buf, kNil)
				return nil
			}
			n := rv.Len()
			e.buf = append(e.buf, kSlice)
			e.buf = binary.AppendUvarint(e.buf, uint64(n))
			for i := 0; i < n; i++ {
				if err := elem(e, rv.Index(i)); err != nil {
					return fmt.Errorf("index %d: %w", i, err)
				}
			}
			return nil
		}
	case reflect.Array:
		elem := compileFieldEnc(t.Elem())
		return func(e *encoder, rv reflect.Value) error {
			n := rv.Len()
			e.buf = append(e.buf, kSlice)
			e.buf = binary.AppendUvarint(e.buf, uint64(n))
			for i := 0; i < n; i++ {
				if err := elem(e, rv.Index(i)); err != nil {
					return fmt.Errorf("index %d: %w", i, err)
				}
			}
			return nil
		}
	case reflect.Map:
		key := compileFieldEnc(t.Key())
		val := compileFieldEnc(t.Elem())
		return func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.buf = append(e.buf, kNil)
				return nil
			}
			e.buf = append(e.buf, kMap)
			e.buf = binary.AppendUvarint(e.buf, uint64(rv.Len()))
			iter := rv.MapRange()
			for iter.Next() {
				if err := key(e, iter.Key()); err != nil {
					return fmt.Errorf("map key: %w", err)
				}
				if err := val(e, iter.Value()); err != nil {
					return fmt.Errorf("map value: %w", err)
				}
			}
			return nil
		}
	case reflect.Pointer:
		elem := compileFieldEnc(t.Elem())
		return func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.buf = append(e.buf, kNil)
				return nil
			}
			return elem(e, rv.Elem())
		}
	case reflect.Interface:
		return func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.buf = append(e.buf, kNil)
				return nil
			}
			return e.value(rv.Interface())
		}
	case reflect.Struct:
		switch t {
		case timeType:
			return func(e *encoder, rv reflect.Value) error {
				x := rv.Interface().(time.Time)
				e.buf = append(e.buf, kTime)
				e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(x.Unix()))
				e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(x.Nanosecond()))
				return nil
			}
		case refType:
			return func(e *encoder, rv reflect.Value) error {
				x := rv.Interface().(Ref)
				e.buf = append(e.buf, kRef)
				e.putString(x.Endpoint)
				e.buf = binary.AppendUvarint(e.buf, x.ObjID)
				e.putString(x.Iface)
				return nil
			}
		}
		// Registered struct: the nested plan may not exist yet (its Register
		// can come after ours), so resolve lazily and let the registry's
		// lock-free snapshot make the lookup cheap.
		return func(e *encoder, rv reflect.Value) error {
			plan, ok := planForType(t)
			if !ok {
				return fmt.Errorf("%w: %s", ErrUnregistered, t)
			}
			return e.encodeStruct(plan, rv)
		}
	default:
		return func(e *encoder, rv reflect.Value) error {
			return fmt.Errorf("%w: %s", ErrUnsupported, t)
		}
	}
}

// --- decoders ----------------------------------------------------------------

// compileFieldDec returns the decoder closure for destinations of static
// type t, accepting exactly the tag repertoire the generic into path
// accepted (including the numeric cross-assignments and kNil zeroing).
func compileFieldDec(t reflect.Type) decFunc {
	switch t.Kind() {
	case reflect.Pointer:
		elem := compileFieldDec(t.Elem())
		elemType := t.Elem()
		return func(d *decoder, rv reflect.Value) error {
			if d.pos < len(d.data) && d.data[d.pos] == kNil {
				d.pos++
				rv.SetZero()
				return nil
			}
			if rv.IsNil() {
				rv.Set(reflect.New(elemType))
			}
			return elem(d, rv.Elem())
		}
	case reflect.Interface:
		return func(d *decoder, rv reflect.Value) error {
			v, err := d.value()
			if err != nil {
				return err
			}
			if v == nil {
				rv.SetZero()
				return nil
			}
			vv := reflect.ValueOf(v)
			if !vv.Type().AssignableTo(rv.Type()) {
				return fmt.Errorf("wire: cannot assign %s to %s", vv.Type(), rv.Type())
			}
			rv.Set(vv)
			return nil
		}
	case reflect.Bool:
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			switch tag {
			case kTrue:
				rv.SetBool(true)
			case kFalse, kNil:
				rv.SetBool(false)
			default:
				return d.corrupt("expected bool")
			}
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		isDuration := t == durationType
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			switch {
			case tag == kInt || (isDuration && tag == kDur):
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rv.SetInt(unzigzag(u))
			case tag == kUint:
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rv.SetInt(int64(u))
			case tag == kNil:
				rv.SetInt(0)
			default:
				return d.corrupt("expected integer")
			}
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			switch tag {
			case kUint:
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rv.SetUint(u)
			case kInt:
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rv.SetUint(uint64(unzigzag(u)))
			case kNil:
				rv.SetUint(0)
			default:
				return d.corrupt("expected unsigned integer")
			}
			return nil
		}
	case reflect.Float32, reflect.Float64:
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			switch tag {
			case kFloat64:
				b, err := d.take(8)
				if err != nil {
					return err
				}
				rv.SetFloat(bitsToFloat64(binary.BigEndian.Uint64(b)))
			case kFloat32:
				b, err := d.take(4)
				if err != nil {
					return err
				}
				rv.SetFloat(float64(bitsToFloat32(binary.BigEndian.Uint32(b))))
			case kInt:
				u, err := d.uvarint()
				if err != nil {
					return err
				}
				rv.SetFloat(float64(unzigzag(u)))
			case kNil:
				rv.SetFloat(0)
			default:
				return d.corrupt("expected float")
			}
			return nil
		}
	case reflect.String:
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			if tag == kNil {
				rv.SetString("")
				return nil
			}
			if tag != kString {
				return d.corrupt("expected string")
			}
			s, err := d.string()
			if err != nil {
				return err
			}
			rv.SetString(s)
			return nil
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return func(d *decoder, rv reflect.Value) error {
				tag, err := d.tag()
				if err != nil {
					return err
				}
				if tag == kNil {
					rv.SetZero()
					return nil
				}
				if tag != kBytes {
					return d.corrupt("expected bytes")
				}
				n, err := d.uvarint()
				if err != nil {
					return err
				}
				b, err := d.take(n)
				if err != nil {
					return err
				}
				out := make([]byte, len(b))
				copy(out, b)
				rv.SetBytes(out)
				return nil
			}
		}
		elem := compileFieldDec(t.Elem())
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			if tag == kNil {
				rv.SetZero()
				return nil
			}
			if tag != kSlice {
				return d.corrupt("expected slice")
			}
			n, err := d.count("slice length")
			if err != nil {
				return err
			}
			m := min(n, MaxPrealloc)
			out := reflect.MakeSlice(t, m, m)
			for i := 0; i < n; i++ {
				if i == out.Len() {
					// Past the preallocation: grow with the elements that
					// arrived, not with the count.
					m = min(2*m, n)
					grown := reflect.MakeSlice(t, m, m)
					reflect.Copy(grown, out)
					out = grown
				}
				if err := elem(d, out.Index(i)); err != nil {
					return fmt.Errorf("index %d: %w", i, err)
				}
			}
			rv.Set(out)
			return nil
		}
	case reflect.Map:
		key := compileFieldDec(t.Key())
		val := compileFieldDec(t.Elem())
		kt, vt := t.Key(), t.Elem()
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			if tag == kNil {
				rv.SetZero()
				return nil
			}
			if tag != kMap {
				return d.corrupt("expected map")
			}
			n, err := d.count("map length")
			if err != nil {
				return err
			}
			out := reflect.MakeMapWithSize(t, min(n, MaxPrealloc))
			for i := 0; i < n; i++ {
				kv := reflect.New(kt).Elem()
				if err := key(d, kv); err != nil {
					return fmt.Errorf("map key: %w", err)
				}
				vv := reflect.New(vt).Elem()
				if err := val(d, vv); err != nil {
					return fmt.Errorf("map value: %w", err)
				}
				out.SetMapIndex(kv, vv)
			}
			rv.Set(out)
			return nil
		}
	case reflect.Struct:
		switch t {
		case timeType:
			return func(d *decoder, rv reflect.Value) error {
				tag, err := d.tag()
				if err != nil {
					return err
				}
				if tag == kNil {
					rv.SetZero()
					return nil
				}
				if tag != kTime {
					return d.corrupt("expected time")
				}
				b, err := d.take(12)
				if err != nil {
					return err
				}
				sec := int64(binary.BigEndian.Uint64(b[:8]))
				nsec := int64(binary.BigEndian.Uint32(b[8:]))
				rv.Set(reflect.ValueOf(time.Unix(sec, nsec).UTC()))
				return nil
			}
		case refType:
			return func(d *decoder, rv reflect.Value) error {
				tag, err := d.tag()
				if err != nil {
					return err
				}
				if tag == kNil {
					rv.SetZero()
					return nil
				}
				if tag != kRef {
					return d.corrupt("expected ref")
				}
				var r Ref
				if r.Endpoint, err = d.string(); err != nil {
					return err
				}
				if r.ObjID, err = d.uvarint(); err != nil {
					return err
				}
				if r.Iface, err = d.string(); err != nil {
					return err
				}
				rv.Set(reflect.ValueOf(r))
				return nil
			}
		}
		return func(d *decoder, rv reflect.Value) error {
			tag, err := d.tag()
			if err != nil {
				return err
			}
			return d.structInto(rv, tag)
		}
	default:
		return func(d *decoder, rv reflect.Value) error {
			return fmt.Errorf("%w: decode into %s", ErrUnsupported, t)
		}
	}
}
