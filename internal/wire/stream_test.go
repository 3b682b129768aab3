package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// Stream-scoped codec state: one Encoder and one Decoder share a type table
// for the life of a stream, and only for that.

type unregisteredForStream struct{ V int }

// A type is defined by the first message that uses it and by no later one;
// the first message is byte-for-byte the self-contained Marshal form.
func TestEncoderDefinesTypeOncePerStream(t *testing.T) {
	var enc Encoder
	first, err := enc.Append(nil, testPoint{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := Marshal(testPoint{X: 1, Y: 2})
	if !bytes.Equal(first, plain) {
		t.Fatalf("first stream message %x differs from Marshal %x", first, plain)
	}
	second, err := enc.Append(nil, testPoint{X: 3, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(second, []byte("wiretest.Point")) {
		t.Fatalf("second message defines the type again: %x", second)
	}
	if want := "0c0102040604" + "08"; hex.EncodeToString(second) != want {
		t.Fatalf("second message = %x, want %s", second, want)
	}
	// Append extends the caller's buffer in place.
	out, err := enc.Append([]byte("pre"), int64(1))
	if err != nil || !bytes.HasPrefix(out, []byte("pre")) || len(out) != 5 {
		t.Fatalf("Append onto a prefix = %x, %v", out, err)
	}

	var dec Decoder
	for i, msg := range [][]byte{first, second} {
		v, err := dec.Next(msg)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if _, ok := v.(testPoint); !ok {
			t.Fatalf("message %d decoded to %T", i, v)
		}
	}
	// The table belongs to the stream: another stream's decoder never saw
	// the definition, and Unmarshal never keeps one.
	var other Decoder
	if _, err := other.Next(second); err == nil {
		t.Fatal("a fresh Decoder decoded a message that refers to another stream's table")
	}
	if _, err := Unmarshal(second); err == nil {
		t.Fatal("Unmarshal decoded a message that is not self-contained")
	}
}

// A value that fails to encode leaves neither bytes nor a definition behind:
// the type its enclosing struct would have defined is defined by the next
// message that uses it.
func TestEncoderRollsBackFailedAppend(t *testing.T) {
	var enc Encoder
	var dec Decoder
	buf, err := enc.Append(nil, testPoint{X: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(buf); err != nil {
		t.Fatal(err)
	}
	// PtrMsg gets its id and its definition written, then its Any field
	// fails: all of it must be taken back.
	prefix := []byte{0xAA}
	out, err := enc.Append(prefix, &testPtrMsg{ID: 1, Any: unregisteredForStream{V: 1}})
	if !errors.Is(err, ErrUnregistered) {
		t.Fatalf("Append of an unregistered struct = %v, want ErrUnregistered", err)
	}
	if !bytes.Equal(out, prefix) {
		t.Fatalf("failed Append returned %x, want the buffer as it was", out)
	}
	buf, err = enc.Append(nil, &testPtrMsg{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("wiretest.PtrMsg")) {
		t.Fatalf("message after the failed one does not define its type: %x", buf)
	}
	v, err := dec.Next(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := v.(*testPtrMsg); !ok || m.ID != 2 {
		t.Fatalf("decoded %#v", v)
	}
}

// More types than the inline table holds, first uses spread over messages.
func TestStreamManyTypes(t *testing.T) {
	vals := []any{
		testPoint{X: 1}, &testPtrMsg{ID: 1}, appendPayload{A: 1}, &testError{Code: 1, What: "w"},
		testNested{Name: "n"}, fcPayload{ID: 1}, fcTwin{ID: 1}, benchPayload{ID: 1},
		benchNested{Tag: "t", Inner: benchPayload{ID: 2}}, testPoint{X: 2}, fcTwin{ID: 2},
	}
	var enc Encoder
	var dec Decoder
	for round := 0; round < 2; round++ {
		for i, v := range vals {
			buf, err := enc.Append(nil, v)
			if err != nil {
				t.Fatalf("value %d: %v", i, err)
			}
			if round == 1 && bytes.IndexByte(buf, kTypeDef) == 0 {
				t.Fatalf("value %d defined a type on its second trip", i)
			}
			got, err := dec.Next(buf)
			if err != nil {
				t.Fatalf("value %d: %v", i, err)
			}
			if want := roundTrip(t, v); !reflect.DeepEqual(got, want) {
				t.Fatalf("value %d: stream decoded %#v, Unmarshal %#v", i, got, want)
			}
		}
	}
}

// Hostile streams: the decoder refuses what the encoder never writes, and
// once it has refused it keeps refusing.
func TestDecoderRejectsAndSticks(t *testing.T) {
	def := func(id byte, name string) []byte {
		return append([]byte{kTypeDef, id, byte(len(name))}, name...)
	}
	point := func(id byte) []byte { return []byte{kStruct, id, 0} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	good := cat(def(1, "wiretest.Point"), point(1))

	for name, msgs := range map[string][][]byte{
		"redefinition of a live id": {good, cat(def(1, "wiretest.Nested"), point(1))},
		"same name under the id":    {good, cat(def(1, "wiretest.Point"), point(1))},
		"use before definition":     {point(1)},
		"definition leaves a gap":   {cat(def(2, "wiretest.Point"), point(2))},
		"id zero":                   {cat(def(0, "wiretest.Point"), point(0))},
		"trailing bytes":            {cat(good, []byte{kNil})},
		"truncated":                 {good[:len(good)-1]},
	} {
		var dec Decoder
		var err error
		for _, m := range msgs {
			_, err = dec.Next(m)
		}
		if err == nil {
			t.Errorf("%s: decoded", name)
			continue
		}
		var corrupt *CorruptError
		if name != "truncated" && !errors.As(err, &corrupt) {
			t.Errorf("%s: %v, want *CorruptError", name, err)
		}
		// No resynchronising: a well-formed message after the failure gets
		// the same error.
		if _, again := dec.Next([]byte{kNil}); again != err {
			t.Errorf("%s: Next after the failure = %v, want the same %v", name, again, err)
		}
	}

	// The same rule holds inside one self-contained message.
	if _, err := Unmarshal(cat(good[:len(good)-3], def(1, "wiretest.Nested"), point(1))); err == nil {
		t.Error("Unmarshal accepted a redefinition")
	}
}

// The table is bounded per stream, and a definition costs the input that
// carries it: the table never grows by more than one slot per definition.
func TestDecoderTableBoundedByInput(t *testing.T) {
	var dec Decoder
	msg := []byte{kTypeDef, 0xff, 0xff, 0x03, 14}
	msg = append(msg, "wiretest.Point"...)
	msg = append(msg, kNil)
	if _, err := dec.Next(msg); err == nil {
		t.Fatal("a definition of id 65535 on an empty table decoded")
	}
	if n := cap(dec.d.types); n > len(dec.d.typesArr) {
		t.Fatalf("table grew to %d slots for a %d-byte message", n, len(msg))
	}
}
