package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"
)

// Unmarshal decodes a message produced by Marshal. The dynamic type of the
// result depends on the wire kind: integers decode as int64 (uint64 for
// unsigned), structs decode as their registered Go type (pointer form when
// registered from a pointer sample), kErr decodes as *RemoteError. Decoder
// state is pooled internally; Unmarshal allocates only the decoded values.
func Unmarshal(data []byte) (any, error) {
	d := getDecoder(data)
	defer d.release()
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, &CorruptError{Offset: d.pos, Detail: "trailing bytes"}
	}
	return v, nil
}

// UnmarshalValues decodes a message produced by MarshalValues.
func UnmarshalValues(data []byte) ([]any, error) {
	d := getDecoder(data)
	defer d.release()
	n, err := d.count("value count")
	if err != nil {
		return nil, err
	}
	out := make([]any, 0, min(n, MaxPrealloc))
	for i := 0; i < n; i++ {
		v, err := d.value()
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		out = append(out, v)
	}
	if d.pos != len(d.data) {
		return nil, &CorruptError{Offset: d.pos, Detail: "trailing bytes"}
	}
	return out, nil
}

// Decoder decodes the messages of one STREAM, the counterpart of Encoder:
// its type table survives across Next calls, so a message may refer to a type
// an earlier message of the stream defined. The zero value is ready to use; a
// Decoder is owned by one stream and dies with it. Not safe for concurrent
// use.
type Decoder struct {
	d   decoder
	err error // sticky: a stream that failed to decode has lost its framing
}

// Next decodes data, the stream's next message, like Unmarshal — except that
// the types defined so far stay defined. A decode error is final for the
// stream: the table may be missing a definition the failed message carried,
// so every later Next returns the same error instead of resynchronising.
func (dec *Decoder) Next(data []byte) (any, error) {
	if dec.err != nil {
		return nil, dec.err
	}
	d := &dec.d
	if d.types == nil {
		d.types = d.typesArr[:0]
	}
	d.data, d.pos, d.budget = data, 0, len(data)
	v, err := d.value()
	if err == nil && d.pos != len(data) {
		err = d.corrupt("trailing bytes")
	}
	d.data = nil
	if err != nil {
		dec.err = err
		return nil, err
	}
	return v, nil
}

// decoder holds one type table's decode state: one message's for the pooled
// decoders behind Unmarshal, one stream's inside a Decoder. The table is a
// slice indexed by id-1 with a small inline backing array — ids are
// assigned densely from 1 by the encoder — replacing the old per-message
// map.
type decoder struct {
	data     []byte
	pos      int
	types    []streamType
	typesArr [8]streamType
	// budget is what the counts the current message claims may still add
	// up to (see count); depth is how deep its values nest (see enter).
	budget int
	depth  int
}

// maxDepth bounds how deep the values of one message nest: a batch request's
// deepest protocol path is a handful of levels, and the decoder recurses once
// per level.
const maxDepth = 64

// MaxPrealloc caps the elements a decoder reserves on a count's word, this
// package's and a compiled codec's alike (see Dec.SliceLen); a longer slice or
// map grows as its elements arrive.
const MaxPrealloc = 256

// streamType is one resolved stream-local type: the plan plus the
// pointer-decode flag, looked up once per type definition rather than once
// per value.
type streamType struct {
	plan  *structPlan
	asPtr bool
}

// maxStreamTypes bounds one type table — a message's, or a whole stream's
// when a Decoder keeps it across messages: any id beyond this is a corrupt or
// hostile peer, not a real type set.
const maxStreamTypes = 1 << 16

var decoderPool = sync.Pool{New: func() any {
	decAllocs.Add(1)
	return new(decoder)
}}

func getDecoder(data []byte) *decoder {
	decGets.Add(1)
	d := decoderPool.Get().(*decoder)
	d.data = data
	d.pos = 0
	d.budget = len(data)
	d.depth = 0
	if d.types == nil {
		d.types = d.typesArr[:0]
	} else {
		d.types = d.types[:0]
	}
	return d
}

func (d *decoder) release() {
	d.data = nil
	decoderPool.Put(d)
}

func (d *decoder) corrupt(detail string) error {
	return &CorruptError{Offset: d.pos, Detail: detail}
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, ErrTruncated
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// tag reads the next value tag, consuming any interleaved type definitions.
func (d *decoder) tag() (byte, error) {
	tag, err := d.byte()
	if err != nil {
		return 0, err
	}
	for tag == kTypeDef {
		if err := d.typeDef(); err != nil {
			return 0, err
		}
		if tag, err = d.byte(); err != nil {
			return 0, err
		}
	}
	return tag, nil
}

func (d *decoder) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.pos += n
	return u, nil
}

func (d *decoder) take(n uint64) ([]byte, error) {
	if n > uint64(len(d.data)-d.pos) {
		return nil, ErrTruncated
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

func (d *decoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return internBytes(b), nil
}

// count reads a claimed element count — a slice's or map's length, a
// struct's field count — and charges it to the message. Every element is a
// value with its own tag byte, so a count can exceed neither the bytes left
// nor, together with every other count of the message, its length: nested
// counts draw on one budget, and what a decoder reserves on their word is
// bounded by the input, not by what the input says.
func (d *decoder) count(what string) (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.data)-d.pos) || n > uint64(d.budget) {
		return 0, d.corrupt(what + " exceeds the bytes left")
	}
	d.budget -= int(n)
	return int(n), nil
}

// enter descends into a slice, map or struct; the caller decrements d.depth
// when it has decoded the value.
func (d *decoder) enter() error {
	if d.depth >= maxDepth {
		return d.corrupt("values nested too deep")
	}
	d.depth++
	return nil
}

// value decodes one value generically.
func (d *decoder) value() (any, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case kNil:
		return nil, nil
	case kFalse:
		return false, nil
	case kTrue:
		return true, nil
	case kInt:
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		return unzigzag(u), nil
	case kUint:
		return d.uvarint()
	case kFloat64:
		b, err := d.take(8)
		if err != nil {
			return nil, err
		}
		return bitsToFloat64(binary.BigEndian.Uint64(b)), nil
	case kFloat32:
		b, err := d.take(4)
		if err != nil {
			return nil, err
		}
		return bitsToFloat32(binary.BigEndian.Uint32(b)), nil
	case kString:
		return d.string()
	case kBytes:
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := d.take(n)
		if err != nil {
			return nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return out, nil
	case kSlice:
		n, err := d.count("slice length")
		if err != nil {
			return nil, err
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		out := make([]any, 0, min(n, MaxPrealloc))
		for i := 0; i < n; i++ {
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		d.depth--
		return out, nil
	case kMap:
		n, err := d.count("map length")
		if err != nil {
			return nil, err
		}
		if err := d.enter(); err != nil {
			return nil, err
		}
		out := make(map[any]any, min(n, MaxPrealloc))
		for i := 0; i < n; i++ {
			k, err := d.value()
			if err != nil {
				return nil, err
			}
			v, err := d.value()
			if err != nil {
				return nil, err
			}
			kk, ok := mapKey(k)
			if !ok {
				return nil, d.corrupt("uncomparable map key")
			}
			out[kk] = v
		}
		d.depth--
		return out, nil
	case kTypeDef:
		if err := d.typeDef(); err != nil {
			return nil, err
		}
		return d.value()
	case kStruct, kStd:
		return d.structValue(tag)
	case kRef:
		var r Ref
		if r.Endpoint, err = d.string(); err != nil {
			return nil, err
		}
		if r.ObjID, err = d.uvarint(); err != nil {
			return nil, err
		}
		if r.Iface, err = d.string(); err != nil {
			return nil, err
		}
		return r, nil
	case kTime:
		b, err := d.take(12)
		if err != nil {
			return nil, err
		}
		sec := int64(binary.BigEndian.Uint64(b[:8]))
		nsec := int64(binary.BigEndian.Uint32(b[8:]))
		return time.Unix(sec, nsec).UTC(), nil
	case kErr:
		typeName, err := d.string()
		if err != nil {
			return nil, err
		}
		msg, err := d.string()
		if err != nil {
			return nil, err
		}
		return &RemoteError{TypeName: typeName, Message: msg}, nil
	case kDur:
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		return time.Duration(unzigzag(u)), nil
	default:
		return nil, d.corrupt(fmt.Sprintf("unknown tag %d", tag))
	}
}

func (d *decoder) typeDef() error {
	id, err := d.uvarint()
	if err != nil {
		return err
	}
	name, err := d.string()
	if err != nil {
		return err
	}
	plan, ok := planForName(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnregistered, name)
	}
	if id == 0 || id > maxStreamTypes {
		return d.corrupt(fmt.Sprintf("type id %d out of range", id))
	}
	// The encoder hands out ids densely and defines each exactly once, so
	// the only legal definition is of the next id: a redefinition would
	// change the meaning of an id that is live (for the rest of the stream,
	// under a Decoder), and a gap is a table the input did not pay for.
	if next := uint64(len(d.types)) + 1; id != next {
		return d.corrupt(fmt.Sprintf("type id %d defined, want %d", id, next))
	}
	d.types = append(d.types, streamType{plan: plan, asPtr: decodeAsPointer(plan.typ)})
	return nil
}

// typePlan resolves a stream-local struct type id.
func (d *decoder) typePlan(id uint64) (streamType, bool) {
	if id == 0 || id > uint64(len(d.types)) {
		return streamType{}, false
	}
	return d.types[id-1], true
}

// structHeader reads the rest of a struct header whose tag — kStruct or
// kStd — was just read: the type, by table id or by standard index, and the
// field count.
func (d *decoder) structHeader(tag byte) (streamType, int, error) {
	id, err := d.uvarint()
	if err != nil {
		return streamType{}, 0, err
	}
	var st streamType
	if tag == kStd {
		if st, err = stdType(id); err != nil {
			return streamType{}, 0, err
		}
	} else {
		var ok bool
		if st, ok = d.typePlan(id); !ok {
			return streamType{}, 0, d.corrupt(fmt.Sprintf("struct with undefined type id %d", id))
		}
	}
	n, err := d.count("field count")
	if err != nil {
		return streamType{}, 0, err
	}
	return st, n, nil
}

func (d *decoder) structValue(tag byte) (any, error) {
	st, nFields, err := d.structHeader(tag)
	if err != nil {
		return nil, err
	}
	if err := d.enter(); err != nil {
		return nil, err
	}
	defer func() { d.depth-- }()
	plan := st.plan
	if plan.fastDecVal != nil {
		return plan.fastDecVal(Dec{d}, nFields)
	}
	pv := reflect.New(plan.typ) // *T
	sv := pv.Elem()
	if err := d.fields(plan, sv, nFields); err != nil {
		return nil, err
	}
	if st.asPtr {
		return pv.Interface(), nil
	}
	return sv.Interface(), nil
}

func (d *decoder) structInto(rv reflect.Value, tag byte) error {
	if tag == kNil {
		rv.SetZero()
		return nil
	}
	if tag != kStruct && tag != kStd {
		return d.corrupt("expected struct")
	}
	st, nFields, err := d.structHeader(tag)
	if err != nil {
		return err
	}
	plan := st.plan
	if plan.typ != rv.Type() {
		return fmt.Errorf("wire: cannot decode %q into %s", plan.name, rv.Type())
	}
	if err := d.enter(); err != nil {
		return err
	}
	defer func() { d.depth-- }()
	if plan.fastDecInto != nil && rv.CanAddr() {
		return plan.fastDecInto(Dec{d}, rv.Addr().Interface(), nFields)
	}
	return d.fields(plan, rv, nFields)
}

// fields decodes n encoded fields into sv through plan's field codecs,
// discarding those a newer sender appended.
func (d *decoder) fields(plan *structPlan, sv reflect.Value, n int) error {
	for i := 0; i < n; i++ {
		if i < len(plan.fields) {
			f := &plan.fields[i]
			if err := f.dec(d, sv.Field(f.index)); err != nil {
				return fmt.Errorf("%s.%s: %w", plan.name, f.name, err)
			}
			continue
		}
		if _, err := d.value(); err != nil {
			return err
		}
	}
	return nil
}

// mapKey normalizes a decoded value for use as a generic map key.
func mapKey(k any) (any, bool) {
	switch k.(type) {
	case nil, bool, int64, uint64, float64, string, time.Time, time.Duration, Ref:
		return k, true
	default:
		// Structs are comparable only if all their fields are; trust but
		// verify via reflect.
		rv := reflect.ValueOf(k)
		if rv.IsValid() && rv.Comparable() {
			return k, true
		}
		return nil, false
	}
}

func bitsToFloat64(b uint64) float64 { return math.Float64frombits(b) }
func bitsToFloat32(b uint32) float32 { return math.Float32frombits(b) }
