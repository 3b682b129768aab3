package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A message says each short string once: the tagged literals of 1 to
// maxStrLen bytes it writes are numbered in order, and a repeat travels as a
// kStrRef to its number.

type strRecord struct {
	Method string
	Name   string
	Keys   map[string]int64
	Any    any
}

func init() { MustRegister("wiretest.strRecord", strRecord{}) }

// A repeat is a 2-byte reference; a message without one is written as if
// there were no table, and so is every string outside the rule: the empty
// one, one longer than maxStrLen, and those of a Ref, an error and a type
// definition.
func TestRepeatIsAReference(t *testing.T) {
	got, err := Marshal([]any{"Echo", "name", "Echo", "name", "Echo"})
	if err != nil {
		t.Fatal(err)
	}
	if want := "0a05" + "08044563686f" + "08046e616d65" + "1400" + "1401" + "1400"; hex.EncodeToString(got) != want {
		t.Errorf("repeats encode to %x, want %s", got, want)
	}

	long := strings.Repeat("x", maxStrLen+1)
	edge := strings.Repeat("y", maxStrLen)
	for _, v := range []any{
		[]any{"a", "b", "c"},
		[]any{"", "", ""},
		[]any{long, long},
		[]any{Ref{Endpoint: "e", ObjID: 1, Iface: "e"}, Ref{Endpoint: "e", ObjID: 2, Iface: "e"}},
		[]any{&RemoteError{TypeName: "t", Message: "t"}, &RemoteError{TypeName: "t", Message: "t"}},
		testPoint{X: 1},
	} {
		got, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.IndexByte(got, kStrRef) >= 0 {
			t.Errorf("%#v encodes to %x, a reference where nothing repeats", v, got)
		}
		if back, err := Unmarshal(got); err != nil || !reflect.DeepEqual(back, v) {
			t.Errorf("%#v round-trips to %#v, %v", v, back, err)
		}
	}
	// A string of maxStrLen bytes is numbered; one byte more is not, and
	// does not take a number either: the string after it is still entry 1.
	got, err = Marshal([]any{edge, long, "z", edge, long, "z"})
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(got, []byte(long)); n != 2 {
		t.Errorf("the %d-byte string is written %d times, want 2", len(long), n)
	}
	if !bytes.HasSuffix(got, append(append([]byte{kStrRef, 0, kString, byte(len(long))}, long...), kStrRef, 1)) {
		t.Errorf("%x: want the %d-byte string referenced, the longer one spelt out, then entry 1", got, len(edge))
	}
}

// Every path that reads a string reads both forms: the generic decoder, a
// typed string field, a map key, an interface field, a compiled codec's Str,
// Name and IDOrName, and the fields a decoder discards, whose literals still
// take their numbers.
func TestEveryStringPathReadsAReference(t *testing.T) {
	rec := strRecord{Method: "Get", Name: "Get", Keys: map[string]int64{"Get": 1}, Any: "Get"}
	data, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("Get")); n != 1 {
		t.Fatalf("%x spells the repeated string %d times, want once", data, n)
	}
	if back, err := Unmarshal(data); err != nil || !reflect.DeepEqual(back, rec) {
		t.Errorf("record decodes to %#v, %v", back, err)
	}

	p := fcSamples()[3]
	p.Extra = p.Name
	cdata, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(cdata, kStrRef) < 0 {
		t.Fatalf("compiled codec wrote %x: no reference", cdata)
	}
	if back, err := Unmarshal(cdata); err != nil || !reflect.DeepEqual(back, p) {
		t.Errorf("compiled decode = %#v, %v", back, err)
	}

	x := Dec{getDecoder([]byte{kString, 3, 'a', 'b', 'c', kInt, 2, kStrRef, 0, kStrRef, 0, kStrRef, 0})}
	defer x.d.release()
	if err := x.SkipFields(2); err != nil {
		t.Fatal(err)
	}
	if s, err := x.Str(); s != "abc" || err != nil {
		t.Errorf("Str after SkipFields = %q, %v", s, err)
	}
	if s, err := x.Name(nil); s != "abc" || err != nil {
		t.Errorf("Name = %q, %v", s, err)
	}
	if id, s, signed, err := x.IDOrName(); id != 0 || signed || s != "abc" || err != nil {
		t.Errorf("IDOrName = %d, %q, %v, %v", id, s, signed, err)
	}

	// A newer sender's surplus fields: the first a literal, the second and
	// the value after the struct references to it.
	var e encoder
	e.buf = append(e.buf, kSlice, 2, kTypeDef, 1)
	e.putString("wiretest.Point")
	e.buf = append(e.buf, kStruct, 1, 4)
	e.putInt(10)
	e.putInt(20)
	e.buf = append(e.buf, kString, 7)
	e.buf = append(e.buf, "skipped"...)
	e.buf = append(e.buf, kStrRef, 0, kStrRef, 0)
	got, err := Unmarshal(e.buf)
	if want := []any{testPoint{10, 20}, "skipped"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%x decodes to %#v, %v; want %#v", e.buf, got, err, want)
	}
}

// The table caps at maxStrs entries: the strings past it are spelt out each
// time — front-coded against the previous one, as every new string is — and
// those numbered before it stay referable.
func TestTableCaps(t *testing.T) {
	var vs []any
	for i := 0; i < maxStrs+8; i++ {
		vs = append(vs, fmt.Sprintf("s%03d", i))
	}
	vs = append(vs, vs[0], vs[maxStrs-1], vs[maxStrs], vs[maxStrs+7])
	data, err := MarshalValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	tail := append([]byte{kStrRef, 0, kStrRef, maxStrs - 1}, fmt.Sprintf("\x15\x02\x02%02d\x15\x02\x02%02d", maxStrs%100, (maxStrs+7)%100)...)
	if !bytes.HasSuffix(data, tail) {
		t.Errorf("a full table's repeats end %x, want %x", data[len(data)-len(tail):], tail)
	}
	back, err := UnmarshalValues(data)
	if err != nil || !reflect.DeepEqual(back, vs) {
		t.Errorf("decoded %d values, %v", len(back), err)
	}
	// Past the scan, the index finds every entry, and no other string.
	var tab strTable
	for round := 0; round < 2; round++ {
		for i := 0; i < maxStrs; i++ {
			if _, seen := tab.index(fmt.Sprint(i)); seen {
				t.Fatalf("round %d: %d found before it was numbered", round, i)
			}
		}
		for i := 0; i < maxStrs; i++ {
			if n, seen := tab.index(fmt.Sprint(i)); !seen || n != i {
				t.Fatalf("round %d: %d is entry %d, %v", round, i, n, seen)
			}
		}
		tab.reset()
	}
}

// The table is scoped to one message: a stream's Encoder numbers each entry
// afresh, so an entry repeating a string of the one before spells it out, and
// a fresh Decoder reads any entry alone.
func TestStreamEntriesNumberAfresh(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for i := 0; i < 3; i++ {
		msg, err := enc.Append(nil, []any{"Echo", "Echo"})
		if err != nil {
			t.Fatal(err)
		}
		if want := "0a02" + "08044563686f" + "1400"; hex.EncodeToString(msg) != want {
			t.Fatalf("entry %d = %x, want %s", i, msg, want)
		}
		if v, err := dec.Next(msg); err != nil || !reflect.DeepEqual(v, []any{"Echo", "Echo"}) {
			t.Fatalf("entry %d decodes to %#v, %v", i, v, err)
		}
	}
}

// Fields, Elems and UnmarshalAt split and decode a part within its message:
// a part that repeats a string an earlier sibling wrote resolves it.
func TestSpansResolveEarlierStrings(t *testing.T) {
	rec := strRecord{Method: "Get", Name: "obj", Any: []any{"obj", "Get", "new", "new"}}
	msg, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, fields, err := Fields(msg, 0)
	if err != nil || len(fields) != 4 {
		t.Fatalf("Fields = %v, %v", fields, err)
	}
	part := fields[3]
	if msg[part.Off] != kSlice {
		t.Fatalf("field 3 starts %x", msg[part.Off:])
	}
	if _, err := Unmarshal(msg[part.Off : part.Off+part.Len]); err == nil {
		t.Fatal("the part decoded alone: it was to repeat its siblings' strings")
	}
	h, elems, err := Elems(msg, part.Off)
	if err != nil || h != 2 || len(elems) != 4 {
		t.Fatalf("Elems = %d, %v, %v", h, elems, err)
	}
	for i, want := range []string{"obj", "Get", "new", "new"} {
		if v, err := UnmarshalAt(msg, elems[i]); v != want || err != nil {
			t.Errorf("element %d = %#v, %v; want %q", i, v, err, want)
		}
	}
	if v, err := UnmarshalAt(msg, part); err != nil || !reflect.DeepEqual(v, rec.Any) {
		t.Errorf("field 3 = %#v, %v", v, err)
	}
	var corrupt *CorruptError
	if _, err := UnmarshalAt(msg, Span{Off: part.Off, Len: 1}); !errors.As(err, &corrupt) {
		t.Errorf("a span shorter than its value: %v, want *CorruptError", err)
	}
}
