package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// A new string says only what the message's previous literal did not: one
// of 1 to maxStrLen bytes that shares at least minDelta leading bytes with it
// travels as a kStrDelta — the shared length, the suffix's length, the
// suffix — and takes the table's next number like the literal it stands for.

// delta is the kStrDelta for a string that keeps p bytes of the previous
// literal and adds suffix.
func delta(p int, suffix string) string {
	return hex.EncodeToString(append([]byte{kStrDelta, byte(p), byte(len(suffix))}, suffix...))
}

// lit is the kString literal s.
func lit(s string) string {
	return hex.EncodeToString(append([]byte{kString, byte(len(s))}, s...))
}

// A delta is written exactly where it is shorter than the literal: at 2
// shared bytes, not at 1. It stops short of the whole string, is written
// against the previous literal only — not an earlier one, not a repeat, not
// a string the table does not number — and takes its number.
func TestDeltaThreshold(t *testing.T) {
	long := strings.Repeat("x", maxStrLen+1)
	for _, c := range []struct {
		name string
		vs   []any
		want string
	}{
		{"two shared bytes", []any{"abc", "abd"}, lit("abc") + delta(2, "d")},
		{"one shared byte", []any{"ab", "ac"}, lit("ab") + lit("ac")},
		{"sorted names", []any{"kv-9", "kv-10", "kv-11"}, lit("kv-9") + delta(3, "10") + delta(4, "1")},
		{"a prefix of the previous", []any{"abcd", "abc"}, lit("abcd") + delta(2, "c")},
		{"the previous a prefix", []any{"ab", "abc"}, lit("ab") + delta(2, "c")},
		{"an earlier literal", []any{"kv-1", "zz", "kv-2"}, lit("kv-1") + lit("zz") + lit("kv-2")},
		{"after a repeat", []any{"kv-1", "zz", "kv-1", "kv-2"}, lit("kv-1") + lit("zz") + "1400" + lit("kv-2")},
		{"a repeat of a delta", []any{"kv-1", "kv-2", "kv-2"}, lit("kv-1") + delta(3, "2") + "1401"},
		{"past the empty and the long", []any{"kv-1", "", long, "kv-2"}, lit("kv-1") + lit("") + lit(long) + delta(3, "2")},
	} {
		got, err := MarshalValues(c.vs)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%02x", len(c.vs)) + c.want; hex.EncodeToString(got) != want {
			t.Errorf("%s: %v encodes to %x, want %s", c.name, c.vs, got, want)
		}
		if back, err := UnmarshalValues(got); err != nil || !reflect.DeepEqual(back, c.vs) {
			t.Errorf("%s: round trip = %#v, %v", c.name, back, err)
		}
	}
}

// TestEchoMessageUnchanged: a message of echo calls — a method name and a
// payload struct naming its object, several times over — has no string that
// shares a prefix with the literal before it, so it is the bytes it was
// before front coding (captured at the commit before it).
func TestEchoMessageUnchanged(t *testing.T) {
	var vs []any
	for i := 0; i < 3; i++ {
		vs = append(vs, "Echo", benchPayload{ID: 7, Name: "brmibench-echo-payload", Seq: uint64(i), Data: []byte{byte(i), 1, 2, 3}})
	}
	got, err := MarshalValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	const want = "0608044563686f0d011577697265746573742e62656e63685061796c6f61640c0104040e081662726d6962656e63682d6563686f2d7061796c6f6164050009040001020314000c0104040e1401050109040101020314000c0104040e14010502090402010203"
	if hex.EncodeToString(got) != want {
		t.Errorf("echo message encodes to\n  %x, want\n  %s", got, want)
	}
}

// Every path that reads a string reads a delta: the generic decoder, a typed
// string field, a map key, an interface field, a compiled codec's Str, Name
// and IDOrName, and the fields a decoder discards, whose literals are still
// what the next delta is written against.
func TestEveryStringPathReadsADelta(t *testing.T) {
	rec := strRecord{Method: "kv-1", Name: "kv-2", Keys: map[string]int64{"kv-3": 1}, Any: "kv-4"}
	data, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("kv-")); n != 1 {
		t.Fatalf("%x spells the shared prefix %d times, want once", data, n)
	}
	if back, err := Unmarshal(data); err != nil || !reflect.DeepEqual(back, rec) {
		t.Errorf("record decodes to %#v, %v", back, err)
	}

	p := fcSamples()[3]
	p.Extra = p.Name + "-extra"
	cdata, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.IndexByte(cdata, kStrDelta) < 0 {
		t.Fatalf("compiled codec wrote %x: no delta", cdata)
	}
	if back, err := Unmarshal(cdata); err != nil || !reflect.DeepEqual(back, p) {
		t.Errorf("compiled decode = %#v, %v", back, err)
	}

	msg, _ := hex.DecodeString(lit("kv-1") + "0402" + delta(3, "2") + delta(3, "3") + delta(3, "4"))
	x := Dec{getDecoder(msg)}
	defer x.d.release()
	if err := x.SkipFields(2); err != nil {
		t.Fatal(err)
	}
	if s, err := x.Str(); s != "kv-2" || err != nil {
		t.Errorf("Str after SkipFields = %q, %v", s, err)
	}
	if s, err := x.Name(nil); s != "kv-3" || err != nil {
		t.Errorf("Name = %q, %v", s, err)
	}
	if id, s, signed, err := x.IDOrName(); id != 0 || signed || s != "kv-4" || err != nil {
		t.Errorf("IDOrName = %d, %q, %v, %v", id, s, signed, err)
	}

	// A newer sender's surplus field is a literal the decoder discards; the
	// value after the struct is a delta written against it.
	var e encoder
	e.buf = append(e.buf, kSlice, 2, kTypeDef, 1)
	e.putString("wiretest.Point")
	e.buf = append(e.buf, kStruct, 1, 3)
	e.putInt(10)
	e.putInt(20)
	e.putStr("skipped-1")
	e.putStr("skipped-2")
	if !bytes.HasSuffix(e.buf, []byte{kStrDelta, 8, 1, '2'}) {
		t.Fatalf("%x: want the last string front-coded", e.buf)
	}
	got, err := Unmarshal(e.buf)
	if want := []any{testPoint{10, 20}, "skipped-2"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%x decodes to %#v, %v; want %#v", e.buf, got, err, want)
	}
}

// Fields, Elems and UnmarshalAt decode a part that front-codes against a
// literal an earlier sibling wrote: the part's first delta resolves against
// the last literal before it, not the last of the message ("zzzzzz", which
// would make it "zzzz3").
func TestSpansResolveDeltas(t *testing.T) {
	rec := strRecord{Method: "obj-1", Name: "obj-2", Any: []any{"obj-3", "other", "obj-4", "zzzzzz"}}
	msg, err := Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, fields, err := Fields(msg, 0)
	if err != nil || len(fields) != 4 {
		t.Fatalf("Fields = %v, %v", fields, err)
	}
	if v, err := UnmarshalAt(msg, fields[1]); v != "obj-2" || err != nil {
		t.Errorf("field 1 = %#v, %v", v, err)
	}
	part := fields[3]
	_, elems, err := Elems(msg, part.Off)
	if err != nil || len(elems) != 4 {
		t.Fatalf("Elems = %v, %v", elems, err)
	}
	if msg[elems[0].Off] != kStrDelta {
		t.Fatalf("element 0 starts %x, want a delta", msg[elems[0].Off:])
	}
	for i, want := range []string{"obj-3", "other", "obj-4", "zzzzzz"} {
		if v, err := UnmarshalAt(msg, elems[i]); v != want || err != nil {
			t.Errorf("element %d = %#v, %v; want %q", i, v, err, want)
		}
	}
	if v, err := UnmarshalAt(msg, part); err != nil || !reflect.DeepEqual(v, rec.Any) {
		t.Errorf("field 3 = %#v, %v", v, err)
	}
}

// Front coding goes on past the table's cap: the strings past it are deltas
// that take no number, so a repeat of one is spelt again (as a delta), while
// a repeat of a numbered one is still a reference.
func TestDeltasPastTheCap(t *testing.T) {
	var vs []any
	for i := 0; i < maxStrs+72; i++ {
		vs = append(vs, fmt.Sprintf("name-%04d", i))
	}
	vs = append(vs, vs[maxStrs+1], vs[3])
	data, err := MarshalValues(vs)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("name-")); n != 1 {
		t.Errorf("the shared prefix is spelt %d times, want once", n)
	}
	tail := append([]byte{kStrDelta, 7, 2}, fmt.Sprintf("%02d", (maxStrs+1)%100)...)
	tail = append(tail, kStrRef, 3)
	if !bytes.HasSuffix(data, tail) {
		t.Errorf("message ends %x, want %x", data[len(data)-len(tail):], tail)
	}
	if len(data) > 2+len(lit("name-0000"))/2+(len(vs)-2)*5+2 {
		t.Errorf("%d names took %d bytes: not 5 each", len(vs), len(data))
	}
	back, err := UnmarshalValues(data)
	if err != nil || !reflect.DeepEqual(back, vs) {
		t.Errorf("decoded %d values, %v", len(back), err)
	}
}

// A stream's entries front-code afresh: an entry's first string is a literal
// whatever the entry before it ended with, so any entry decodes alone.
func TestStreamEntriesFrontCodeAfresh(t *testing.T) {
	var enc Encoder
	var dec Decoder
	for i := 0; i < 3; i++ {
		v := []any{fmt.Sprintf("kv-%d0", i), fmt.Sprintf("kv-%d1", i)}
		msg, err := enc.Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := "0a02" + lit(v[0].(string)) + delta(4, "1"); hex.EncodeToString(msg) != want {
			t.Fatalf("entry %d = %x, want %s", i, msg, want)
		}
		if got, err := dec.Next(msg); err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("entry %d decodes to %#v, %v", i, got, err)
		}
		if got, err := Unmarshal(msg); err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("entry %d alone decodes to %#v, %v", i, got, err)
		}
	}
}
