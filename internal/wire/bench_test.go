package wire

import (
	"fmt"
	"testing"
	"time"
)

// The microbenchmarks pin the hot-path cost of the codec: run with
//
//	go test -bench . -benchmem ./internal/wire
//
// CI runs them with -benchmem so per-PR allocation regressions are visible
// in the build log.

type benchPayload struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Elapsed time.Duration
}

type benchNested struct {
	Tag   string
	Inner benchPayload
	More  []benchPayload
}

func init() {
	MustRegister("wiretest.benchPayload", benchPayload{})
	MustRegister("wiretest.benchNested", benchNested{})
}

func benchValue() benchPayload {
	return benchPayload{
		ID:      42,
		Name:    "a-realistic-object-name",
		Seq:     7,
		Data:    make([]byte, 64),
		Elapsed: 250 * time.Millisecond,
	}
}

func BenchmarkMarshalStruct(b *testing.B) {
	v := benchValue()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalAppend(b *testing.B) {
	// Box the value once: the interface conversion is the caller's cost
	// (rmi passes pointers, which never box), this measures the codec.
	var v any = benchValue()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = MarshalAppend(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalNested(b *testing.B) {
	var v any = benchNested{Tag: "outer", Inner: benchValue(), More: []benchPayload{benchValue(), benchValue()}}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = MarshalAppend(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalStruct(b *testing.B) {
	data, err := Marshal(benchValue())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalNested(b *testing.B) {
	v := benchNested{Tag: "outer", Inner: benchValue(), More: []benchPayload{benchValue(), benchValue()}}
	data, err := Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalValuesMixed(b *testing.B) {
	vs := []any{int64(7), "hello", benchValue(), []byte{1, 2, 3}, true}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = MarshalValuesAppend(buf[:0], vs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// echoFlush is one 64-call echo flush's worth of Payload-shaped structs: a
// sequence, a shared name, a small body — the name repeats in every element,
// so all but the first travel as references.
func echoFlush() []any {
	vs := make([]any, 64)
	for i := range vs {
		vs[i] = benchPayload{ID: 7, Name: "brmibench-echo-payload", Seq: uint64(i), Data: make([]byte, 16)}
	}
	return vs
}

func BenchmarkMarshalEchoFlush(b *testing.B) {
	vs := echoFlush()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = MarshalValuesAppend(buf[:0], vs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "B/msg")
}

func BenchmarkUnmarshalEchoFlush(b *testing.B) {
	data, err := MarshalValues(echoFlush())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalValues(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalDistinctNames writes n distinct, sorted 9-byte names, as a
// Get-Batch request lists them: every one is new to the string table, so this
// is the table's cost per string it numbers (and, past maxStrs, per string it
// only looks up).
func BenchmarkMarshalDistinctNames(b *testing.B) {
	for _, n := range []int{64, 1000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			vs := make([]any, n)
			for i := range vs {
				vs[i] = fmt.Sprintf("kv-%06d", i)
			}
			var buf []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				buf, err = MarshalValuesAppend(buf[:0], vs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(buf)), "B/msg")
		})
	}
}
