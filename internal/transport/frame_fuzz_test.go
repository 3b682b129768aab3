package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
)

// FuzzFrames drives arbitrary bytes, as one connection's inbound stream,
// through readFrame and, per frame, parseChunk or the credit decode. Nothing
// may panic; every frame the reader accepts is exactly the bytes its own
// writer would have produced for it (minimal varints, so one encoding per
// frame); and reading allocates in proportion to the input — never to what a
// header claims, beyond the one pooled buffer (the pool's 1 MiB ceiling) a
// frame below MaxFrameSize takes before its bytes arrive.
func FuzzFrames(f *testing.F) {
	frame := func(kind byte, id uint64, payload ...byte) []byte {
		return append(appendHeader(nil, kind, id, len(payload)), payload...)
	}
	for _, seed := range [][]byte{
		// Well formed: a request, a chunk, a credit grant.
		slices.Concat(frame(frameRequest, 1, []byte("ping")...), frame(frameChunk, 2, appendChunkHeader(nil, frameRespOK, true, 300)...), frame(frameCredit, 2, 0x80, 0x08)),
		// An overlong length varint: five bytes where four is the most.
		{0x80, 0x80, 0x80, 0x80, 0x01, 0x08},
		// A non-minimal id/kind varint.
		{0x03, 0x89, 0x00, 0x00},
		// A length claim of 2^26+1: drained, then an oversized-frame error.
		append(binary.AppendUvarint(nil, MaxFrameSize+1), 0x0a),
		// Kind 0, and "kind 8" — which three bits read as id 1, kind 0.
		{0x01, 0x00},
		{0x01, 0x08},
		// A chunk frame whose sub-header ends inside its sequence varint.
		frame(frameChunk, 3, frameRespOK|chunkFin, 0x80),
		// A chunk with an inner kind of 0, and a credit with bytes after its
		// varint.
		frame(frameChunk, 3, 0, 0),
		frame(frameCredit, 3, 0x01, 0x00),
		// A length that does not cover its own id/kind varint.
		{0x01, 0x89, 0x01},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var frames int
		allocated := allocatedBy(func() { frames = readAll(t, data) })
		if frames > len(data)/2 {
			t.Fatalf("%d input bytes made %d frames; a frame takes at least 2", len(data), frames)
		}
		if bound := 1<<20 + 16<<10 + 256*uint64(len(data)); allocated > bound {
			t.Fatalf("%d input bytes made the reader allocate %d, bound %d", len(data), allocated, bound)
		}
	})
}

// readAll reads data as frames until the reader fails, checks each frame
// against its re-encoding, and returns how many it read.
func readAll(t *testing.T, data []byte) int {
	br := bufio.NewReader(bytes.NewReader(data))
	pos, n := 0, 0
	for {
		kind, id, payload, size, err := readFrame(br)
		if err != nil {
			var of *OversizedFrameError
			if errors.As(err, &of) && of.Size <= MaxFrameSize {
				t.Fatalf("oversized-frame error for a %d-byte frame", of.Size)
			}
			return n
		}
		n++
		if kind < frameRequest || kind > frameKindMax {
			t.Fatalf("frame %d: kind %d accepted", n, kind)
		}
		want := append(appendHeader(nil, kind, id, len(payload)), payload...)
		if size != len(want) || !bytes.Equal(data[pos:pos+size], want) {
			t.Fatalf("frame %d: read %x (size %d), which re-encodes as %x", n, data[pos:min(pos+size, len(data))], size, want)
		}
		pos += size
		switch kind {
		case frameChunk:
			if cv, err := parseChunk(payload); err == nil {
				sub := appendChunkHeader(nil, cv.inner, cv.fin, cv.seq)
				if !bytes.Equal(payload[:cv.off], sub) || len(cv.data) != len(payload)-cv.off {
					t.Fatalf("frame %d: chunk %x parsed as %+v", n, payload, cv)
				}
			}
		case frameCredit:
			if grant, ok := parseCredit(payload); ok && !bytes.Equal(binary.AppendUvarint(nil, uint64(grant)), payload) {
				t.Fatalf("frame %d: credit %x parsed as %d", n, payload, grant)
			}
		}
		PutBuffer(payload)
	}
}

// allocatedBy reports the bytes fn allocated (TotalAlloc is cumulative, so
// a concurrent collection does not hide them).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
