package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

type appendPayload struct {
	A int64
	B string
	C []byte
	D time.Duration
}

func init() {
	MustRegister("wiretest.appendPayload", appendPayload{})
}

// MarshalAppend must produce byte-identical messages to Marshal and extend
// the caller's buffer in place.
func TestMarshalAppendMatchesMarshal(t *testing.T) {
	vals := []any{
		nil, true, int64(-7), uint64(9), 3.5, "hi", []byte{1, 2},
		appendPayload{A: 1, B: "x", C: []byte{9}, D: time.Second},
		&RemoteError{TypeName: "t", Message: "m"},
		Ref{Endpoint: "s", ObjID: 4, Iface: "I"},
		time.Date(2009, 6, 22, 10, 0, 0, 0, time.UTC),
	}
	for _, v := range vals {
		plain, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%#v): %v", v, err)
		}
		prefix := []byte("prefix")
		appended, err := MarshalAppend(append([]byte(nil), prefix...), v)
		if err != nil {
			t.Fatalf("MarshalAppend(%#v): %v", v, err)
		}
		if !bytes.HasPrefix(appended, prefix) {
			t.Fatalf("MarshalAppend dropped the existing prefix for %#v", v)
		}
		if !bytes.Equal(appended[len(prefix):], plain) {
			t.Fatalf("MarshalAppend(%#v) differs from Marshal", v)
		}
	}
}

func TestMarshalValuesAppendMatches(t *testing.T) {
	vs := []any{int64(1), "two", appendPayload{A: 3}}
	plain, err := MarshalValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	appended, err := MarshalValuesAppend([]byte("p"), vs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appended[1:], plain) {
		t.Fatal("MarshalValuesAppend differs from MarshalValues")
	}
}

// A Decoder reused across the messages of one Encoder's stream must yield
// what Unmarshal yields for the same values as self-contained messages.
func TestDecoderReuse(t *testing.T) {
	msgs := []any{
		appendPayload{A: 5, B: "q", D: time.Minute},
		"plain string",
		appendPayload{A: -1},
		int64(77),
	}
	var enc Encoder
	var dec Decoder
	for _, v := range msgs {
		data, err := enc.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Next(data)
		if err != nil {
			t.Fatalf("Next(%#v): %v", v, err)
		}
		want := roundTrip(t, v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decoder got %#v, Unmarshal got %#v", got, want)
		}
	}
}

// The encoder's inline type table must keep working past its inline
// capacity (more distinct struct types than array slots in one message).
func TestManyTypesOneMessage(t *testing.T) {
	type t0 struct{ V int64 }
	type t1 struct{ V int64 }
	type t2 struct{ V int64 }
	type t3 struct{ V int64 }
	type t4 struct{ V int64 }
	type t5 struct{ V int64 }
	type t6 struct{ V int64 }
	type t7 struct{ V int64 }
	type t8 struct{ V int64 }
	type t9 struct{ V int64 }
	MustRegister("wiretest.t0", t0{})
	MustRegister("wiretest.t1", t1{})
	MustRegister("wiretest.t2", t2{})
	MustRegister("wiretest.t3", t3{})
	MustRegister("wiretest.t4", t4{})
	MustRegister("wiretest.t5", t5{})
	MustRegister("wiretest.t6", t6{})
	MustRegister("wiretest.t7", t7{})
	MustRegister("wiretest.t8", t8{})
	MustRegister("wiretest.t9", t9{})
	vs := []any{
		t0{0}, t1{1}, t2{2}, t3{3}, t4{4}, t5{5}, t6{6}, t7{7}, t8{8}, t9{9},
		t0{10}, t5{15}, // repeats reuse their stream ids
	}
	data, err := MarshalValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalValues(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(vs) {
		t.Fatalf("got %d values, want %d", len(out), len(vs))
	}
	if !reflect.DeepEqual(out[0], t0{0}) || !reflect.DeepEqual(out[9], t9{9}) || !reflect.DeepEqual(out[11], t5{15}) {
		t.Fatalf("round trip mismatch: %#v", out)
	}
}

// Duration struct fields keep their zigzag-int wire form (the compiled
// field codec must not switch them to the dynamic kDur form).
func TestDurationFieldWireForm(t *testing.T) {
	v := appendPayload{D: -3 * time.Second}
	data, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.(appendPayload).D != -3*time.Second {
		t.Fatalf("duration round trip: %#v", got)
	}
}
