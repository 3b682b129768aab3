package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// Counts are claims, not reservations: what a hostile message makes the
// decoder allocate follows its size, not the sizes it claims.

// allocatedBy reports the heap bytes allocated while fn ran (by anyone: keep
// the process quiet).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// nestedSlices is a size-byte message of kSlice headers, each claiming
// claim(bytes left after it) elements, padded with kNil.
func nestedSlices(size int, claim func(left int) int) []byte {
	var msg []byte
	for {
		hdr := binary.AppendUvarint([]byte{kSlice}, uint64(claim(size-len(msg)-3)))
		if len(msg)+len(hdr) > size {
			break
		}
		msg = append(msg, hdr...)
	}
	return append(msg, bytes.Repeat([]byte{kNil}, size-len(msg))...)
}

// sliceBomb is the 16 KiB message that made Unmarshal allocate 1.07 GB: every
// header claims 16,384 elements, and each claim used to be checked against
// the message's size rather than the bytes left.
func sliceBomb() []byte { return nestedSlices(16<<10, func(int) int { return 16 << 10 }) }

func TestHostileCountsAllocateWhatArrives(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  []byte
	}{
		{"every header claims 16 KiB", sliceBomb()},
		// Each claim fits the bytes left; together they claim ~5,000 times
		// the message.
		{"every header claims the bytes left", nestedSlices(16<<10, func(left int) int { return left })},
		{"a value count", binary.AppendUvarint(nil, 16<<10)},
	} {
		var err error
		got := allocatedBy(func() {
			if c.name == "a value count" {
				_, err = UnmarshalValues(c.msg)
			} else {
				_, err = Unmarshal(c.msg)
			}
		})
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: %v, want *CorruptError", c.name, err)
		}
		if got > 1<<20 {
			t.Errorf("%s: a %d-byte message allocated %d bytes", c.name, len(c.msg), got)
		}
	}
}

// Nesting is bounded: maxDepth levels decode, one more is corrupt — for the
// generic decoder and for a typed one.
func TestNestingDepthBounded(t *testing.T) {
	nest := func(levels int) []byte {
		return append(bytes.Repeat([]byte{kSlice, 1}, levels), kNil)
	}
	if _, err := Unmarshal(nest(maxDepth)); err != nil {
		t.Errorf("%d levels: %v", maxDepth, err)
	}
	var corrupt *CorruptError
	if _, err := Unmarshal(nest(maxDepth + 1)); !errors.As(err, &corrupt) {
		t.Errorf("%d levels: %v, want *CorruptError", maxDepth+1, err)
	}

	type link struct{ Next *link }
	MustRegister("wiretest.link", link{})
	chain := func(n int) *link {
		var l *link
		for i := 0; i < n; i++ {
			l = &link{Next: l}
		}
		return l
	}
	// The outermost link is the message's value (one level), each Next one more.
	data, err := Marshal(*chain(maxDepth))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err != nil {
		t.Errorf("a chain of %d links: %v", maxDepth, err)
	}
	// One link more, spliced in by hand: the encoder refuses to write it
	// (TestEncoderRefusesTooDeep).
	unit := []byte{kStruct, 1, 1}
	at := bytes.Index(data, unit)
	deeper := append(append(append([]byte(nil), data[:at]...), unit...), data[at:]...)
	if _, err := Unmarshal(deeper); !errors.As(err, &corrupt) {
		t.Errorf("a chain of %d links: %v, want *CorruptError", maxDepth+1, err)
	}
}

// TestEncoderRefusesTooDeep: whatever the decoder would reject as nested too
// deep, the encoder refuses with ErrTooDeep and writes nothing — for generic
// slices and maps, registered structs, compiled structs and typed fields
// alike — and whatever it writes up to the bound decodes.
func TestEncoderRefusesTooDeep(t *testing.T) {
	type link struct{ Next *link }
	MustRegister("wiretest.deeplink", link{})
	type holder struct{ V any }
	MustRegister("wiretest.holder", holder{})
	slices := func(levels int) any {
		var v any
		for i := 0; i < levels; i++ {
			v = []any{v}
		}
		return v
	}
	maps := func(levels int) any {
		var v any = int64(1)
		for i := 0; i < levels; i++ {
			v = map[string]any{"k": v}
		}
		return v
	}
	links := func(levels int) any {
		var l *link
		for i := 0; i < levels; i++ {
			l = &link{Next: l}
		}
		return *l
	}
	// A holder is a struct level of its own around a generic value, and a
	// compiled struct holding one is a level too.
	holders := func(levels int) any {
		var v any
		for i := 0; i < levels; i++ {
			v = holder{V: v}
		}
		return v
	}
	compiled := func(levels int) any {
		return &fcPayload{Extra: slices(levels - 1)}
	}
	for name, build := range map[string]func(int) any{
		"slices": slices, "maps": maps, "links": links, "holders": holders, "compiled": compiled,
	} {
		data, err := Marshal(build(maxDepth))
		if err != nil {
			t.Errorf("%s: %d levels: %v", name, maxDepth, err)
		} else if _, err := Unmarshal(data); err != nil {
			t.Errorf("%s: %d levels encoded, but do not decode: %v", name, maxDepth, err)
		}
		buf := []byte("kept")
		out, err := MarshalAppend(buf, build(maxDepth+1))
		if !errors.Is(err, ErrTooDeep) || out != nil {
			t.Errorf("%s: %d levels encoded to %d bytes, %v; want ErrTooDeep and nothing", name, maxDepth+1, len(out), err)
		}
		var enc Encoder
		if out, err := enc.Append(buf, build(maxDepth+1)); !errors.Is(err, ErrTooDeep) || string(out) != "kept" {
			t.Errorf("%s: stream encoder appended %q, %v for %d levels; want ErrTooDeep and buf untouched", name, out, err, maxDepth+1)
		}
	}
}

// A typed slice longer than the preallocation grows as its elements arrive,
// to exactly the elements sent.
func TestTypedSliceGrowsPastPrealloc(t *testing.T) {
	tags := make([]string, 3*MaxPrealloc+1)
	for i := range tags {
		tags[i] = string(rune('a' + i%26))
	}
	got := roundTrip(t, testNested{Tags: tags}).(testNested)
	if len(got.Tags) != len(tags) || got.Tags[len(tags)-1] != tags[len(tags)-1] {
		t.Fatalf("decoded %d tags, want %d", len(got.Tags), len(tags))
	}
}

// A message of references costs a peer what its size says: 10k references to
// one 64-byte string share the string the literal decoded, so decoding them
// allocates the slots they fill — a constant per reference — and no copy of
// the string each. Every reference the table cannot resolve is corrupt.
func TestStringReferencesAllocateWhatArrives(t *testing.T) {
	long := string(bytes.Repeat([]byte{'r'}, maxStrLen))
	tags := make([]string, 10_000)
	for i := range tags {
		tags[i] = long
	}
	msg, err := Marshal(testNested{Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(msg, []byte(long)); n != 1 {
		t.Fatalf("the string is written %d times, want once", n)
	}
	var back any
	got := allocatedBy(func() { back, err = Unmarshal(msg) })
	if err != nil || len(back.(testNested).Tags) != len(tags) {
		t.Fatalf("decoded %v", err)
	}
	// The slots and their growth come to about 22 bytes per input byte; a
	// copy per reference would add 32 more (64 bytes per 2-byte reference).
	if got > 32*uint64(len(msg)) {
		t.Errorf("a %d-byte message of references allocated %d bytes", len(msg), got)
	}

	for _, c := range []struct {
		name string
		msg  []byte
	}{
		{"a reference before any literal", []byte{kStrRef, 0}},
		{"an index past the table", []byte{kSlice, 2, kString, 1, 'a', kStrRef, 1}},
		{"a reference to a string too long to number", append(append([]byte{kSlice, 2, kString, maxStrLen + 1}, bytes.Repeat([]byte{'x'}, maxStrLen+1)...), kStrRef, 0)},
		{"a reference to an empty string", []byte{kSlice, 2, kString, 0, kStrRef, 0}},
		{"an index of ten bytes", []byte{kStrRef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"a reference where an integer belongs", append(append([]byte{kTypeDef, 1, 14}, "wiretest.Point"...), kStruct, 1, 1, kStrRef, 0)},
	} {
		_, err := Unmarshal(c.msg)
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: %v, want *CorruptError", c.name, err)
		}
	}
}

// A message of deltas costs a peer what its size says. A delta of 4 or 5
// bytes stands for a string of up to maxStrLen: 10k of them, all different,
// make the strings they stand for and the slots they fill — no more, since a
// string a delta makes is looked up in the intern table but not entered in
// it. So does a hostile message whose 4-byte deltas say the same two strings
// over and over. Each refusal of a delta is corrupt.
func TestStringDeltasAllocateWhatArrives(t *testing.T) {
	base := string(bytes.Repeat([]byte{'d'}, maxStrLen-2))
	tags := make([]string, 10_000)
	for i := range tags {
		tags[i] = base + string([]byte{byte(i >> 8), byte(i)})
	}
	msg, err := Marshal(testNested{Tags: tags})
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(msg, []byte(base)); n != 1 {
		t.Fatalf("the shared prefix is written %d times, want once", n)
	}
	// The same, by hand: a literal, then deltas keeping all but its last
	// byte, which alternates.
	hostile := append([]byte{}, msg[:bytes.Index(msg, []byte(base))+len(base)+2]...)
	for i := 1; i < len(tags); i++ {
		hostile = append(hostile, kStrDelta, maxStrLen-1, 1, byte(i%2))
	}
	for name, m := range map[string][]byte{"distinct": msg, "alternating": hostile} {
		var back any
		got := allocatedBy(func() { back, err = Unmarshal(m) })
		if err != nil || len(back.(testNested).Tags) != len(tags) {
			t.Fatalf("%s: decoded %v", name, err)
		}
		// The strings come to 16 bytes per input byte at most (64 per 4),
		// the slots and their growth to about 10 more: 27 in all when every
		// delta makes a new string. (A generic []any of them pays a 16-byte
		// box per string on top, 37 per input byte, within FuzzUnmarshal's
		// bound.)
		if got > 32*uint64(len(m)) {
			t.Errorf("%s: a %d-byte message of deltas allocated %d bytes", name, len(m), got)
		}
	}

	prev := append([]byte{kSlice, 2, kString, maxStrLen}, bytes.Repeat([]byte{'p'}, maxStrLen)...)
	for _, c := range []struct {
		name string
		msg  []byte
	}{
		{"a delta before any literal", []byte{kStrDelta, 2, 1, 'x'}},
		{"a delta after only an empty literal", []byte{kSlice, 2, kString, 0, kStrDelta, 0, 1, 'x'}},
		{"a prefix longer than the literal", []byte{kSlice, 2, kString, 2, 'a', 'b', kStrDelta, 3, 1, 'c'}},
		{"an empty suffix", []byte{kSlice, 2, kString, 2, 'a', 'b', kStrDelta, 2, 0}},
		{"a string longer than the table numbers", append(append([]byte{}, prev...), kStrDelta, maxStrLen, 1, 'z')},
		{"a suffix length of ten bytes", append(append([]byte{}, prev...), kStrDelta, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"a delta where an integer belongs", append(append([]byte{kTypeDef, 1, 14}, "wiretest.Point"...), kStruct, 1, 1, kStrDelta, 0, 1, 'x')},
	} {
		_, err := Unmarshal(c.msg)
		var corrupt *CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("%s: %v, want *CorruptError", c.name, err)
		}
	}
}
