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
	if data, err = Marshal(*chain(maxDepth + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); !errors.As(err, &corrupt) {
		t.Errorf("a chain of %d links: %v, want *CorruptError", maxDepth+1, err)
	}
}

// A typed slice longer than the preallocation grows as its elements arrive,
// to exactly the elements sent.
func TestTypedSliceGrowsPastPrealloc(t *testing.T) {
	tags := make([]string, 3*maxPrealloc+1)
	for i := range tags {
		tags[i] = string(rune('a' + i%26))
	}
	got := roundTrip(t, testNested{Tags: tags}).(testNested)
	if len(got.Tags) != len(tags) || got.Tags[len(tags)-1] != tags[len(tags)-1] {
		t.Fatalf("decoded %d tags, want %d", len(got.Tags), len(tags))
	}
}
