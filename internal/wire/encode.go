package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"time"
)

// Marshal encodes v into a self-contained message. Struct values must use
// registered types (see Register). Marshal never retains v.
func Marshal(v any) ([]byte, error) {
	return MarshalAppend(nil, v)
}

// MarshalAppend encodes v like Marshal, appending the message to buf and
// returning the extended slice. It lets callers reuse payload buffers
// (e.g. a sync.Pool) instead of allocating a fresh []byte per message; the
// encoder's own per-message state is pooled internally.
func MarshalAppend(buf []byte, v any) ([]byte, error) {
	e := getEncoder(buf)
	err := e.value(v)
	buf = e.release()
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalValues encodes a sequence of values into one message, in order.
// The counterpart is UnmarshalValues.
func MarshalValues(vs []any) ([]byte, error) {
	return MarshalValuesAppend(nil, vs)
}

// MarshalValuesAppend is MarshalValues appending into buf, like
// MarshalAppend.
func MarshalValuesAppend(buf []byte, vs []any) ([]byte, error) {
	e := getEncoder(buf)
	e.buf = binary.AppendUvarint(e.buf, uint64(len(vs)))
	var err error
	for i, v := range vs {
		if err = e.value(v); err != nil {
			err = fmt.Errorf("value %d: %w", i, err)
			break
		}
	}
	buf = e.release()
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Encoder encodes the messages of one STREAM: its type table survives
// across Append calls, so a struct type is defined (kTypeDef) once per
// stream, by the first message that uses it, and later messages refer to it
// by id. Its string table does not: each message numbers its own strings.
// The peer decodes the messages, in order, with one Decoder. The zero value
// is ready to use; an Encoder is owned by one stream and dies with it. Not
// safe for concurrent use.
//
// Marshal and MarshalValues do not go through an Encoder: every message they
// produce is self-contained, because ordinary frames are decoded out of
// order, by different workers, or not at all.
type Encoder struct {
	e encoder
}

// Append encodes v as the stream's next message, appending it to buf. When v
// fails to encode, buf is returned as it was and the type table is rolled
// back to what the peer has seen, so the stream can go on: a definition that
// never left is never referred to.
func (enc *Encoder) Append(buf []byte, v any) ([]byte, error) {
	e := &enc.e
	if e.typeNames == nil {
		e.typeNames = e.namesArr[:0]
	}
	defined := len(e.typeNames)
	e.buf, e.depth = buf, 0
	err := e.value(v)
	out := e.buf
	e.buf = nil
	e.strs.reset()
	if err != nil {
		clear(e.typeNames[defined:])
		e.typeNames = e.typeNames[:defined]
		return buf, err
	}
	return out, nil
}

// encoder holds one type table's encode state: one message's for the pooled
// encoders behind Marshal, one stream's inside an Encoder. The table lives
// in a small inline array, so encoding a message — even one defining several
// struct types — allocates nothing beyond the output it appends to buf.
type encoder struct {
	buf []byte
	// typeNames is the type table: index i holds the name defined with id
	// i+1. A linear slice replaces the old per-message
	// map[string]uint64 — messages use a handful of types, the common
	// single-type message hits the first slot, and the inline backing array
	// makes the table allocation-free.
	typeNames []string
	namesArr  [8]string
	// lastType/lastPlan memoize the most recent registry hit: batches
	// encode long runs of one argument type, turning the per-value plan
	// lookup into a pointer compare.
	lastType reflect.Type
	lastPlan *structPlan
	// stdMemo caches stdIndex's answers, oldest overwritten first.
	stdMemo     [16]stdMemo
	stdMemoLen  int
	stdMemoNext int
	// depth counts the levels open around the value being encoded, where the
	// decoder counts them (see enter).
	depth int
	// strs is the message's string table (see putStr).
	strs strTable
}

// enter is the encoder's half of the decoder's nesting bound: it opens one
// more level exactly where the decoder's enter does — a struct value, a
// dynamically typed slice or map — and refuses the level past maxDepth,
// before the message it would make undecodable leaves.
func (e *encoder) enter() error {
	if e.depth >= maxDepth {
		return fmt.Errorf("%w: more than %d levels", ErrTooDeep, maxDepth)
	}
	e.depth++
	return nil
}

type stdMemo struct {
	name string
	std  int
}

var encoderPool = sync.Pool{New: func() any {
	encAllocs.Add(1)
	return new(encoder)
}}

func getEncoder(buf []byte) *encoder {
	encGets.Add(1)
	e := encoderPool.Get().(*encoder)
	e.buf = buf
	e.typeNames = e.namesArr[:0]
	e.depth = 0
	return e
}

// release returns the encoded buffer and recycles the encoder.
func (e *encoder) release() []byte {
	buf := e.buf
	e.buf = nil
	e.typeNames = nil
	e.lastType = nil
	e.lastPlan = nil
	e.strs.reset()
	encoderPool.Put(e)
	return buf
}

func (e *encoder) value(v any) error {
	if v == nil {
		e.buf = append(e.buf, kNil)
		return nil
	}
	// Fast paths for common concrete types, including the special forms that
	// bypass reflection entirely.
	switch x := v.(type) {
	case bool:
		if x {
			e.buf = append(e.buf, kTrue)
		} else {
			e.buf = append(e.buf, kFalse)
		}
		return nil
	case int:
		e.putInt(int64(x))
		return nil
	case int64:
		e.putInt(x)
		return nil
	case int32:
		e.putInt(int64(x))
		return nil
	case int16:
		e.putInt(int64(x))
		return nil
	case int8:
		e.putInt(int64(x))
		return nil
	case uint:
		e.putUint(uint64(x))
		return nil
	case uint64:
		e.putUint(x)
		return nil
	case uint32:
		e.putUint(uint64(x))
		return nil
	case uint16:
		e.putUint(uint64(x))
		return nil
	case uint8:
		e.putUint(uint64(x))
		return nil
	case float64:
		e.buf = append(e.buf, kFloat64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(x))
		return nil
	case float32:
		e.buf = append(e.buf, kFloat32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, math.Float32bits(x))
		return nil
	case string:
		e.putStr(x)
		return nil
	case []byte:
		e.buf = append(e.buf, kBytes)
		e.buf = binary.AppendUvarint(e.buf, uint64(len(x)))
		e.buf = append(e.buf, x...)
		return nil
	case time.Time:
		e.buf = append(e.buf, kTime)
		e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(x.Unix()))
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(x.Nanosecond()))
		return nil
	case time.Duration:
		e.buf = append(e.buf, kDur)
		e.buf = binary.AppendUvarint(e.buf, zigzag(int64(x)))
		return nil
	case Ref:
		e.buf = append(e.buf, kRef)
		e.putString(x.Endpoint)
		e.buf = binary.AppendUvarint(e.buf, x.ObjID)
		e.putString(x.Iface)
		return nil
	case *Ref:
		if x == nil {
			e.buf = append(e.buf, kNil)
			return nil
		}
		return e.value(*x)
	case *RemoteError:
		if x == nil {
			e.buf = append(e.buf, kNil)
			return nil
		}
		e.buf = append(e.buf, kErr)
		e.putString(x.TypeName)
		e.putString(x.Message)
		return nil
	}

	// Compiled-codec fast path: struct and *struct values whose type
	// installed a codec (RegisterCompiled) encode without reflection.
	t := reflect.TypeOf(v)
	base := t
	if base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	if base.Kind() == reflect.Struct {
		if plan, ok := planForType(base); ok && plan.fastEncVal != nil {
			return plan.fastEncVal(Enc{e}, v)
		}
	}

	// Errors: registered error types travel as structs (typed); everything
	// else degrades to a generic RemoteError that preserves the type name.
	if err, ok := v.(error); ok {
		if _, registered := planForType(base); !registered {
			e.buf = append(e.buf, kErr)
			e.putString(TypeNameOf(v))
			e.putString(err.Error())
			return nil
		}
		// fall through to struct encoding below
	}

	return e.reflectValue(reflect.ValueOf(v))
}

// reflectValue is the generic encoder for values only known dynamically
// (slice-of-any elements, interface fields, map contents). Struct values
// dispatch into their compiled plan.
func (e *encoder) reflectValue(rv reflect.Value) error {
	switch rv.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			e.buf = append(e.buf, kNil)
			return nil
		}
		return e.reflectValue(rv.Elem())
	case reflect.Interface:
		if rv.IsNil() {
			e.buf = append(e.buf, kNil)
			return nil
		}
		return e.value(rv.Interface())
	case reflect.Bool:
		if rv.Bool() {
			e.buf = append(e.buf, kTrue)
		} else {
			e.buf = append(e.buf, kFalse)
		}
		return nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.putInt(rv.Int())
		return nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.putUint(rv.Uint())
		return nil
	case reflect.Float32:
		e.buf = append(e.buf, kFloat32)
		e.buf = binary.BigEndian.AppendUint32(e.buf, math.Float32bits(float32(rv.Float())))
		return nil
	case reflect.Float64:
		e.buf = append(e.buf, kFloat64)
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(rv.Float()))
		return nil
	case reflect.String:
		e.putStr(rv.String())
		return nil
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.IsNil() {
			e.buf = append(e.buf, kNil)
			return nil
		}
		if rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8 {
			return e.value(rv.Bytes())
		}
		if err := e.enter(); err != nil {
			return err
		}
		n := rv.Len()
		e.buf = append(e.buf, kSlice)
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n; i++ {
			if err := e.reflectValue(rv.Index(i)); err != nil {
				return fmt.Errorf("index %d: %w", i, err)
			}
		}
		e.depth--
		return nil
	case reflect.Map:
		if rv.IsNil() {
			e.buf = append(e.buf, kNil)
			return nil
		}
		if err := e.enter(); err != nil {
			return err
		}
		e.buf = append(e.buf, kMap)
		e.buf = binary.AppendUvarint(e.buf, uint64(rv.Len()))
		iter := rv.MapRange()
		for iter.Next() {
			if err := e.reflectValue(iter.Key()); err != nil {
				return fmt.Errorf("map key: %w", err)
			}
			if err := e.reflectValue(iter.Value()); err != nil {
				return fmt.Errorf("map value: %w", err)
			}
		}
		e.depth--
		return nil
	case reflect.Struct:
		return e.structValue(rv)
	default:
		return fmt.Errorf("%w: %s", ErrUnsupported, rv.Type())
	}
}

func (e *encoder) structValue(rv reflect.Value) error {
	t := rv.Type()
	if t == e.lastType {
		return e.encodeStruct(e.lastPlan, rv)
	}
	if t == timeType || t == refType {
		return e.value(rv.Interface())
	}
	plan, ok := planForType(t)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnregistered, t)
	}
	e.lastType, e.lastPlan = t, plan
	return e.encodeStruct(plan, rv)
}

// encodeStruct emits one registered struct through its compiled plan.
// Trailing zero-valued fields are omitted from the message: the decoder
// leaves fields beyond the transmitted count at their zero value, so the
// round trip is identical while hot-path messages (whose optional fields
// are ordered last; see core's message layouts) shrink substantially.
func (e *encoder) encodeStruct(plan *structPlan, rv reflect.Value) error {
	if plan.fastEncAddr != nil && rv.CanAddr() {
		return plan.fastEncAddr(Enc{e}, rv.Addr().Interface())
	}
	if plan.fastEncVal != nil {
		return plan.fastEncVal(Enc{e}, rv.Interface())
	}
	if err := e.enter(); err != nil {
		return err
	}
	nf := len(plan.fields)
	for nf > 0 && rv.Field(plan.fields[nf-1].index).IsZero() {
		nf--
	}
	e.structHeader(plan.std, plan.name, nf)
	for i := 0; i < nf; i++ {
		f := &plan.fields[i]
		if err := f.enc(e, rv.Field(f.index)); err != nil {
			return fmt.Errorf("%s.%s: %w", plan.name, f.name, err)
		}
	}
	e.depth--
	return nil
}

// structHeader begins a struct of n encoded fields: a standard type by its
// index (std, from its plan or stdIndex), any other by its table id, defined
// by the first header that uses it.
func (e *encoder) structHeader(std int, name string, n int) {
	if std >= 0 {
		e.buf = append(e.buf, kStd)
		e.buf = binary.AppendUvarint(e.buf, uint64(std))
	} else {
		id, defined := e.typeID(name)
		if !defined {
			e.buf = append(e.buf, kTypeDef)
			e.buf = binary.AppendUvarint(e.buf, id)
			e.putString(name)
		}
		e.buf = append(e.buf, kStruct)
		e.buf = binary.AppendUvarint(e.buf, id)
	}
	e.buf = binary.AppendUvarint(e.buf, uint64(n))
}

// stdIndex is name's standard index (or -1) for BeginStruct, which has a
// name where encodeStruct has a plan. The memo outlives release — the table
// never changes — so a pooled encoder scans the table once per name, and a
// compiled header costs the string compares typeID's scan used to cost.
func (e *encoder) stdIndex(name string) int {
	for _, m := range e.stdMemo[:e.stdMemoLen] {
		if m.name == name {
			return m.std
		}
	}
	std := standardIndex(name)
	e.stdMemo[e.stdMemoNext] = stdMemo{name: name, std: std}
	e.stdMemoNext = (e.stdMemoNext + 1) % len(e.stdMemo)
	e.stdMemoLen = min(e.stdMemoLen+1, len(e.stdMemo))
	return std
}

// typeID returns the table's id for name, allocating one if needed. The
// boolean reports whether the id was already defined under this table.
// The one-type message (by far the most common) resolves in a single
// comparison against the inline table.
func (e *encoder) typeID(name string) (uint64, bool) {
	for i, n := range e.typeNames {
		if n == name {
			return uint64(i + 1), true
		}
	}
	e.typeNames = append(e.typeNames, name)
	return uint64(len(e.typeNames)), false
}

func (e *encoder) putInt(x int64) {
	e.buf = append(e.buf, kInt)
	e.buf = binary.AppendUvarint(e.buf, zigzag(x))
}

func (e *encoder) putUint(x uint64) {
	e.buf = append(e.buf, kUint)
	e.buf = binary.AppendUvarint(e.buf, x)
}

// putString writes s bare, with no tag: the strings inside a kRef, a kErr
// or a kTypeDef, which the string table never numbers.
func (e *encoder) putString(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// putStr writes the tagged string value s: a kStrRef to the entry of the
// message's string table that holds it, or else a literal, which takes the
// table's next entry when it is 1 to maxStrLen bytes long and the table has
// room. A literal of that length that shares at least 2 leading bytes with
// the message's previous one is front-coded, as a kStrDelta: the shared
// length, then the differing suffix — 3 bytes and the suffix, where the
// kString took 2 and the whole string, so a delta is written only where it is
// shorter. The decoder numbers and front-codes by the same rule, so a message
// with no repeat and no shared prefix is written as if there were no table, a
// repeat costs 2 bytes, and a run of sorted names costs what each adds to the
// one before it.
func (e *encoder) putStr(s string) {
	if n := len(s); n > 0 && n <= maxStrLen {
		if i, seen := e.strs.index(s); seen {
			e.buf = append(e.buf, kStrRef, byte(i))
			return
		}
		// The shared prefix stops short of the whole string: a delta's
		// suffix is never empty.
		p := min(sharedPrefix(e.strs.prev, s), n-1)
		e.strs.prev = s
		if p >= minDelta {
			e.buf = append(e.buf, kStrDelta, byte(p), byte(n-p))
			e.buf = append(e.buf, s[p:]...)
			return
		}
	}
	e.buf = append(e.buf, kString)
	e.putString(s)
}

// sharedPrefix is how many leading bytes a and b share, compared a word at a
// time.
func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	p := 0
	for ; p+8 <= n; p += 8 {
		if x := word(a[p:]) ^ word(b[p:]); x != 0 {
			return p + bits.TrailingZeros64(x)/8
		}
	}
	for p < n && a[p] == b[p] {
		p++
	}
	return p
}

// word is s's first 8 bytes, little-endian (one load).
func word(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

const (
	// maxStrLen is the longest string a string table numbers or front-codes:
	// a longer one is written out each time, so what a message of references
	// can make a peer allocate stays proportional to the message. Every
	// length and prefix under it fits one uvarint byte.
	maxStrLen = 64
	// maxStrs is how many strings one message numbers: every index fits the
	// one byte of a uvarint below 128, so a reference is 2 bytes.
	maxStrs = 128
	// minDelta is the shortest shared prefix a kStrDelta is written for: the
	// one at which it is shorter than the kString.
	minDelta = 2
)

// strTable is the encoder's half of a message's string table: the strings
// numbered so far, in order, found by a scan while there are few and through
// an open-addressed index once there are more, and the previous literal a
// kStrDelta is written against. They stay with the (pooled) encoder, so
// numbering allocates nothing once a pooled encoder has seen its largest
// table, and a stream's Encoder whose entries carry no string pays for
// neither.
type strTable struct {
	strs []string
	// slots, once the table outgrows scanStrs entries, holds 1 + an
	// entry's number at the slot its hash probes first (or the next free one
	// after it); 0 is a free slot. Twice maxStrs slots keep it at most half
	// full. hashed says the index covers strs.
	slots  *[1 << slotBits]uint8
	hashed bool
	// prev is the last string of 1 to maxStrLen bytes the message wrote as a
	// kString or a kStrDelta, kept past the table's cap.
	prev string
}

const (
	// scanStrs is how many entries the table scans before it indexes them.
	scanStrs = 8
	// slotBits sizes the index: 2^slotBits = 2 * maxStrs slots.
	slotBits = 8
)

// index returns s's entry number and true when the table holds s; otherwise
// it numbers s, if the table has room, and returns false.
func (t *strTable) index(s string) (int, bool) {
	if len(t.strs) < scanStrs {
		for i, x := range t.strs {
			if x == s {
				return i, true
			}
		}
		t.strs = append(t.strs, s)
		return 0, false
	}
	if !t.hashed {
		if t.slots == nil {
			t.slots = new([1 << slotBits]uint8)
		}
		for i, x := range t.strs {
			t.slots[t.probe(x)] = uint8(i + 1)
		}
		t.hashed = true
	}
	h := t.probe(s)
	if slot := t.slots[h]; slot != 0 {
		return int(slot - 1), true
	}
	if len(t.strs) < maxStrs {
		t.strs = append(t.strs, s)
		t.slots[h] = uint8(len(t.strs))
	}
	return 0, false
}

// probe finds s in the index: the slot that holds s's entry, or the free
// slot where s would go. The hash is as cheap as intern.go's: s's length, its
// first byte and its last 8 (fewer in a shorter string) — a table's strings
// are short, and the names a message lists differ mostly at their ends —
// spread over the slots by one Fibonacci multiply.
func (t *strTable) probe(s string) uint {
	n := len(s)
	x := uint64(n)<<56 | uint64(s[0])<<48
	if n >= 8 {
		x ^= word(s[n-8:])
	} else {
		x ^= uint64(s[n-1]) | uint64(s[max(n-2, 0)])<<8 | uint64(s[n/2])<<16
	}
	h := uint(x*0x9E3779B97F4A7C15) >> (64 - slotBits)
	for {
		if slot := t.slots[h]; slot == 0 || t.strs[slot-1] == s {
			return h
		}
		h = (h + 1) % uint(len(t.slots))
	}
}

// reset empties the table for the next message.
func (t *strTable) reset() {
	clear(t.strs)
	t.strs = t.strs[:0]
	t.prev = ""
	if t.hashed {
		*t.slots = [len(t.slots)]uint8{}
		t.hashed = false
	}
}

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
