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

// Protocol messages pinned by core's wire goldens: a flush request with its
// types defined by name (brmi.req and brmi.call), a chained multi-root
// request, the same request's one call in the retired brmi.inv form, and the
// reply to a wave that missed its quorum — each in the field order a flush has
// had since it became the call (calls, then root; results, session, then
// ship outcome).
const (
	namedBatchRequest = "0d010862726d692e7265710c01020a010d020962726d692e63616c6c0c020108034765740510"
	chainedRequest    = "1302040a0213280308034164640a01040a0404132808080453656c660a01130403010304080409040204000a000400030510050f" + "0a02051105ac02"
	oldFormRequest    = "1302020a0113030404000401080347657404020510"
	quorumMissReply   = "1305040a011306020400040e050004b817131c04080161040204040a01131d0208057468657265131b0205030504"
)

// fuzzSeeds are FuzzUnmarshal's committed seeds: one kStd message per
// standard type (its zero value), real protocol messages in both forms, an
// index past the table, the nested slice bomb, a valid value nested as deep
// as the decoder allows, and the string table's cases: a valid repeat, a
// reference past the table, one before any literal, one to a string too long
// to be numbered, one to a literal in a field the decoder discards, valid
// front-coded names, and a delta refused for each reason the decoder has: no
// literal before it, a prefix longer than that literal, an empty suffix, a
// string longer than 64 bytes.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for i := range wire.StandardTypes() {
		seeds = append(seeds, []byte{wire.KStd, byte(i), 0})
	}
	for _, h := range []string{namedBatchRequest, chainedRequest, oldFormRequest, quorumMissReply} {
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
	seeds = append(seeds, b)

	repeat, err := wire.Marshal([]any{"Echo", "brmibench-echo-payload", "Echo", map[string]any{"Echo": "brmibench-echo-payload"}})
	if err != nil {
		tb.Fatal(err)
	}
	sorted, err := wire.Marshal([]any{"obj-9", "obj-10", "obj-11", "Get", "obj-12"})
	if err != nil {
		tb.Fatal(err)
	}
	long := bytes.Repeat([]byte{'x'}, 65)
	edge := append([]byte{10, 2, 8, 64}, long[:64]...)
	seeds = append(seeds,
		sorted,
		[]byte{wire.KStrDelta, 2, 1, 'x'},
		[]byte{10, 2, 8, 2, 'a', 'b', wire.KStrDelta, 3, 1, 'c'},
		[]byte{10, 2, 8, 2, 'a', 'b', wire.KStrDelta, 2, 0},
		append(edge, wire.KStrDelta, 64, 1, 'z'),
	)
	return append(seeds,
		repeat,
		[]byte{10, 2, 8, 1, 'a', wire.KStrRef, 1},
		[]byte{wire.KStrRef, 0},
		append(append([]byte{10, 2, 8, byte(len(long))}, long...), wire.KStrRef, 0),
		// An rmi.call.req of five fields, two past the three it has: the
		// first surplus field's literal is what the value after the struct
		// refers to.
		[]byte{10, 2, wire.KStd, 0, 5, 5, 7, 8, 3, 'G', 'e', 't', 1, 8, 4, 's', 'k', 'i', 'p', wire.KStrRef, 1, wire.KStrRef, 1},
	)
}

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal in a binary that registers
// every protocol type. Nothing may panic; what the decoder allocates is
// bounded by a constant times the input's size, whatever the input claims;
// a value that decodes re-encodes, and decodes again to the same value; and
// the encoder is idempotent on its own output: what it writes, decoded and
// written again, is the same bytes (unless a map of two or more entries
// makes the order it writes them in a coin toss).
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
		twice, err := wire.Marshal(back)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", back, err)
		}
		if !bytes.Equal(again, twice) && !unordered(reflect.ValueOf(v)) {
			t.Fatalf("the encoder is not idempotent on its own output:\n  %x\n  %x", again, twice)
		}
	})
}

// unordered reports whether v holds a map of two or more entries, which the
// encoder writes in Go's map order.
func unordered(v reflect.Value) bool {
	if !v.IsValid() {
		return false
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && unordered(v.Elem())
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if unordered(v.Index(i)) {
				return true
			}
		}
	case reflect.Map:
		if v.Len() > 1 {
			return true
		}
		for it := v.MapRange(); it.Next(); {
			if unordered(it.Key()) || unordered(it.Value()) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if unordered(v.Field(i)) {
				return true
			}
		}
	}
	return false
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
