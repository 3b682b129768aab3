package wire_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/wire"
)

// Protocol messages pinned by core's wire goldens: a flush request as encoded
// before the standard type table (brmi.req and brmi.inv defined by name), a
// chained multi-root request and the reply to a wave that missed its quorum.
const (
	namedBatchRequest = "0d010862726d692e7265710c010205100a010d020862726d692e696e760c02040400040108034765740402"
	chainedRequest    = "13020605100a0213030504080405080341646404020a01130401040a130307040a0408080453656c6604040a0113040301030408040003050703020a02051105ac02"
	quorumMissReply   = "1305060a011306020400040e050004000a0004b817131c04080161040204040a01131d0208057468657265131b0205030504"
)

// fuzzSeeds are FuzzUnmarshal's committed seeds: one kStd message per
// standard type (its zero value), real protocol messages in both forms, an
// index past the table, the nested slice bomb, and a valid value nested as
// deep as the decoder allows.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for i := range wire.StandardTypes() {
		seeds = append(seeds, []byte{wire.KStd, byte(i), 0})
	}
	for _, h := range []string{namedBatchRequest, chainedRequest, quorumMissReply} {
		b, err := hex.DecodeString(h)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, v := range []any{
		[]any{map[any]any{"k": 1.5, int64(2): []byte{1}}, wire.Ref{Endpoint: "e", ObjID: 9, Iface: "I"}, core.ContinuePolicy()},
		&cluster.QuorumError{Name: "a", Acked: 1, Required: 2, Failed: []*cluster.FollowerError{{Endpoint: "there", Err: &cluster.StaleShipError{RecordEpoch: 3, NodeEpoch: 4}}}},
	} {
		b, err := wire.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	seeds = append(seeds, []byte{wire.KStd, byte(len(wire.StandardTypes())), 0}, wire.SliceBomb())
	// 1,024 empty brmi.results: the most allocation per input byte.
	seeds = append(seeds, append([]byte{10, 0x80, 0x08}, bytes.Repeat([]byte{wire.KStd, 6, 0}, 1024)...))

	var deep any = int64(1)
	for i := 1; i < wire.MaxDepth; i++ {
		deep = []any{deep}
	}
	b, err := wire.Marshal([]any{deep})
	if err != nil {
		tb.Fatal(err)
	}
	return append(seeds, b)
}

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal in a binary that registers
// every protocol type. Nothing may panic; what the decoder allocates is
// bounded by a constant times the input's size, whatever the input claims;
// and a value that decodes re-encodes, and decodes again to the same value.
func FuzzUnmarshal(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err = wire.Unmarshal(data)
		runtime.ReadMemStats(&after)
		// The costliest input is a slice of empty structs of the largest
		// registered type — brmi.result, 160 B, allocated as the value and
		// again as its box — at three input bytes (a kStd header) each; the
		// constant covers the decoder's pools and the intern table's growth.
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20+256*uint64(len(data)) {
			t.Fatalf("%d input bytes made Unmarshal allocate %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, err := wire.Marshal(v)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", v, err)
		}
		back, err := wire.Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded %x does not decode: %v", again, err)
		}
		if !same(reflect.ValueOf(v), reflect.ValueOf(back)) {
			t.Fatalf("decode, encode, decode changed the value:\n  %#v\n  %#v", v, back)
		}
	})
}

// same is reflect.DeepEqual with a NaN equal to itself (a fuzzed float is any
// bit pattern), a nil slice equal to an empty one (a compiled codec may write
// either as the other, e.g. brmi.getbatch.req's ids) and maps compared by
// length and by the entries a lookup finds (a NaN key finds nothing).
func same(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (x != x && y != y)
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); bv.IsValid() && !same(it.Value(), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	default:
		return false
	}
}
