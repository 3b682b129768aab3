package rmi

// The consuming half of a stream against bytes no EntryWriter wrote: a
// StreamCall over an in-memory reader, so a hostile stream costs no network
// and the fuzz target runs at decoder speed. (The end-to-end versions, a
// serving peer that really writes such bytes, are in stream_test.go.)

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/netsim"
	"repro/internal/wire"
)

// streamOver is a StreamCall reading data as the whole of a stream.
func streamOver(p *Peer, data []byte) *StreamCall {
	return &StreamCall{p: p, br: bufio.NewReader(bytes.NewReader(data))}
}

// entries frames msgs as a stream's bytes: uvarint length, then the message.
func entries(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.AppendUvarint(out, uint64(len(m)))
		out = append(out, m...)
	}
	return out
}

// The hostile and the well-formed streams the tests and the fuzz target
// share. The entry type is the package's own registered rmi.stream.req.
var (
	streamUse = []byte{12, 1, 1, 8, 1, 's'} // kStruct id 1, one field: "s"
	// kTypeDef: id 1 is "rmi.stream.req"; then a use of it.
	streamDefUse = append(append([]byte{13, 1, 14}, "rmi.stream.req"...), streamUse...)

	goodStream = entries(streamDefUse, streamUse)
	// The form an EntryWriter writes: rmi.stream.req is standard type 8, so
	// every entry names it by index (kStd 19) and none defines it.
	streamStdUse    = []byte{19, 8, 1, 8, 1, 's'}
	standardStream  = entries(streamStdUse, streamStdUse)
	defAfterUse     = entries(streamUse, streamDefUse)
	redefinedStream = entries(streamDefUse, streamDefUse)
	truncatedEntry  = goodStream[:len(goodStream)-2]
	// A length of 2^47: what made the consumer allocate itself to death.
	hugeLength = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}
	// A length of 2^63: negative once it is an int.
	negativeLength = []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	// The largest length an entry may claim, followed by almost nothing.
	claimsCeiling = append(binary.AppendUvarint(nil, maxStreamEntry), 1, 2, 3)
	// One 16 KiB entry of nested slice headers each claiming 16 KiB elements:
	// the generic decoder used to reserve them all, level after level.
	nestedClaims = entries(func() []byte {
		var msg []byte
		for len(msg)+3 <= 16<<10 {
			msg = binary.AppendUvarint(append(msg, 10), 16<<10)
		}
		return append(msg, bytes.Repeat([]byte{1}, 16<<10-len(msg))...)
	}())
)

func newDecodePeer(tb testing.TB) *Peer {
	network := netsim.New(netsim.Instant)
	tb.Cleanup(func() { _ = network.Close() })
	p := NewPeer(network, WithLogf(func(string, ...any) {}))
	tb.Cleanup(func() { _ = p.Close() })
	return p
}

// drain reads sc to its end: the entries delivered and the error that ended
// the stream (nil for a clean io.EOF).
func drain(sc *StreamCall) (n int, err error) {
	for {
		if _, err = sc.Next(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		n++
	}
}

func TestStreamCallRejectsHostileBytes(t *testing.T) {
	p := newDecodePeer(t)
	var corrupt *wire.CorruptError
	for _, c := range []struct {
		name    string
		data    []byte
		entries int
		check   func(error) bool
	}{
		{"good", goodStream, 2, func(err error) bool { return err == nil }},
		{"standard type", standardStream, 2, func(err error) bool { return err == nil }},
		{"nested claims", nestedClaims, 0, func(err error) bool { return errors.As(err, &corrupt) }},
		{"empty", nil, 0, func(err error) bool { return err == nil }},
		{"definition after use", defAfterUse, 0, func(err error) bool { return errors.As(err, &corrupt) }},
		{"redefinition of a live id", redefinedStream, 1, func(err error) bool { return errors.As(err, &corrupt) }},
		{"truncated entry", truncatedEntry, 1, func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"truncated prefix", []byte{0x80}, 0, func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"length 2^47", hugeLength, 0, func(err error) bool { return errors.As(err, &corrupt) }},
		{"length 2^63", negativeLength, 0, func(err error) bool { return errors.As(err, &corrupt) }},
		{"length over the ceiling", binary.AppendUvarint(nil, maxStreamEntry+1), 0, func(err error) bool { return errors.As(err, &corrupt) }},
		{"length at the ceiling, no bytes", claimsCeiling, 0, func(err error) bool { return err == io.ErrUnexpectedEOF }},
	} {
		sc := streamOver(p, c.data)
		n, err := drain(sc)
		if n != c.entries || !c.check(err) {
			t.Errorf("%s: %d entries then %v; want %d entries and another ending", c.name, n, err, c.entries)
		}
		if err == nil {
			err = io.EOF
		}
		// What ended the stream keeps ending it: no resynchronising on the
		// bytes that follow.
		if _, again := sc.Next(); again != err {
			t.Errorf("%s: Next after the end = %v, want %v again", c.name, again, err)
		}
	}
}

// A length prefix is a claim, not a reservation: an entry's buffer grows
// with the bytes that arrive. So is a count inside an entry.
func TestStreamCallAllocatesWhatArrives(t *testing.T) {
	p := newDecodePeer(t)
	for _, data := range [][]byte{claimsCeiling, nestedClaims} {
		if got := allocatedBy(func() { _, _ = drain(streamOver(p, data)) }); got > 1<<20 {
			t.Errorf("a %d-byte stream (%x...) allocated %d bytes", len(data), data[:8], got)
		}
	}
}

// allocatedBy reports the heap bytes allocated while fn ran (by anyone: keep
// the process quiet).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzStreamEntries drives arbitrary bytes through StreamCall.Next as one
// stream. Nothing may panic, the stream ends (every entry costs input), what
// ended it is what every later Next returns, and the consumer allocates in
// proportion to its input — never to what a length prefix, a type id or a
// count inside an entry claims (wire's FuzzUnmarshal sets the same bound).
func FuzzStreamEntries(f *testing.F) {
	for _, seed := range [][]byte{
		goodStream, standardStream, defAfterUse, redefinedStream, truncatedEntry,
		hugeLength, negativeLength, claimsCeiling, nestedClaims,
	} {
		f.Add(seed)
	}
	p := newDecodePeer(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var sc *StreamCall
		var n int
		var err error
		allocated := allocatedBy(func() {
			sc = streamOver(p, data)
			n, err = drain(sc)
		})
		if n > len(data) {
			t.Fatalf("%d input bytes delivered %d entries", len(data), n)
		}
		if err == nil {
			err = io.EOF
		}
		if _, again := sc.Next(); again != err {
			t.Fatalf("Next after the end = %v, want %v again", again, err)
		}
		if allocated > 8<<20+256*uint64(len(data)) {
			t.Fatalf("%d input bytes made the consumer allocate %d", len(data), allocated)
		}
	})
}
