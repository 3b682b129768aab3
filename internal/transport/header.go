package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// header.go is the frame format's one codec: it writes and parses the frame
// header, the chunk sub-header and the credit grant laid out in transport.go.
// Every reader of frames — the client and server loops, the tests' recorded
// byte streams (DecodeFrames) — goes through readFrame and parseChunk.

const (
	// maxLenVarint bounds the frame length varint: MaxFrameSize (2^26)
	// needs 4 bytes of 7 bits, so a longer one is not a length this
	// protocol writes.
	maxLenVarint = 4
	// maxChunkHeaderLen is the longest chunk sub-header: the folded
	// kind/fin byte and a uint32 sequence varint.
	maxChunkHeaderLen = 1 + 5
	// maxHeaderLen is the longest header a frame carries: the two header
	// varints and a chunk sub-header.
	maxHeaderLen = maxLenVarint + binary.MaxVarintLen64 + maxChunkHeaderLen

	// chunkFin, in a chunk sub-header's first byte, marks the stream's last
	// chunk; the low three bits are the inner kind.
	chunkFin = 1 << 3
)

// uvarintLen is the encoded length of v.
func uvarintLen(v uint64) int { return 1 + (bits.Len64(v|1)-1)/7 }

// appendHeader appends the two header varints of a frame whose payload —
// everything after the id/kind varint, chunk sub-header included — is plen
// bytes. The id is shifted left by three bits, so ids beyond 2^61 do not
// survive; a client's counter never gets there.
func appendHeader(dst []byte, kind byte, id uint64, plen int) []byte {
	idk := id<<3 | uint64(kind)
	dst = binary.AppendUvarint(dst, uint64(uvarintLen(idk)+plen))
	return binary.AppendUvarint(dst, idk)
}

// appendChunkHeader appends a chunk sub-header.
func appendChunkHeader(dst []byte, inner byte, fin bool, seq uint32) []byte {
	b := inner
	if fin {
		b |= chunkFin
	}
	return binary.AppendUvarint(append(dst, b), uint64(seq))
}

// readUvarint reads one varint of at most max bytes from br, refusing a
// non-minimal encoding (a trailing zero byte) and one that overflows 64
// bits. It returns the value and the bytes it took.
func readUvarint(br io.ByteReader, max int) (uint64, int, error) {
	var v uint64
	for i := 0; i < max; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if i > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, i, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, i + 1, errors.New("transport: header varint overflows 64 bits")
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if b == 0 && i > 0 {
				return 0, i + 1, errors.New("transport: non-minimal header varint")
			}
			return v, i + 1, nil
		}
	}
	return 0, max, fmt.Errorf("transport: header varint longer than %d bytes", max)
}

// uvarintAt decodes one varint of at most max bytes from the front of b
// under readUvarint's rules.
func uvarintAt(b []byte, max int) (uint64, int, error) {
	v, k := binary.Uvarint(b)
	switch {
	case k == 0:
		return 0, 0, errors.New("transport: frame ends inside a varint")
	case k < 0 || k > max:
		return 0, 0, fmt.Errorf("transport: varint longer than %d bytes", max)
	case k > 1 && b[k-1] == 0:
		return 0, 0, errors.New("transport: non-minimal varint")
	}
	return v, k, nil
}

// readFrame reads one frame from br and returns its kind, id, payload and
// total on-wire size (header included). The payload comes from the shared
// buffer pool: the receiver owns it and may hand it back with PutBuffer once
// decoded.
//
// The header's shape is validated BEFORE its length is trusted: a corrupt
// or hostile header must not drive an allocation, so an overlong or
// non-minimal varint, an unknown kind, or a length shorter than the id
// varint it covers fails (connection-fatally — the peer is not speaking our
// protocol) without reading or allocating anything further. A well-formed
// header declaring more than MaxFrameSize has its payload drained without
// allocation and reports a typed *OversizedFrameError, which the read loops
// translate into failing only the addressed call (the receive-side mirror of
// the send path's ErrTooLarge contract). Below the ceiling a claim takes at
// most one pooled buffer (maxPooledBuffer) before its bytes arrive; past
// that, the payload buffer grows as they do.
func readFrame(br *bufio.Reader) (kind byte, id uint64, payload []byte, size int, err error) {
	n, ln, err := readUvarint(br, maxLenVarint)
	if err != nil {
		return 0, 0, nil, 0, err
	}
	idk, k, err := readUvarint(br, binary.MaxVarintLen64)
	if err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, 0, err
	}
	kind, id = byte(idk&7), idk>>3
	if kind < frameRequest || kind > frameKindMax {
		return 0, 0, nil, 0, fmt.Errorf("transport: unknown frame kind %d (%d-byte frame)", kind, n)
	}
	if n < uint64(k) {
		return 0, 0, nil, 0, fmt.Errorf("transport: short frame (%d bytes)", n)
	}
	size = ln + int(n)
	if n > MaxFrameSize {
		if _, derr := io.CopyN(io.Discard, br, int64(n)-int64(k)); derr != nil {
			return 0, 0, nil, 0, derr
		}
		return 0, 0, nil, 0, &OversizedFrameError{Kind: kind, ID: id, Size: n}
	}
	if payload, err = readPayload(br, int(n)-k); err != nil {
		return 0, 0, nil, 0, err
	}
	return kind, id, payload, size, nil
}

// readPayload reads an n-byte payload: into one pooled buffer up to
// maxPooledBuffer, and beyond that into a buffer that doubles as the bytes
// arrive.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	if n <= maxPooledBuffer {
		p := getSizedBuffer(n)
		if _, err := io.ReadFull(br, p); err != nil {
			PutBuffer(p)
			return nil, err
		}
		return p, nil
	}
	p := make([]byte, 0, maxPooledBuffer)
	for len(p) < n {
		if len(p) == cap(p) {
			q := make([]byte, len(p), min(2*cap(p), n))
			copy(q, p)
			p = q
		}
		k, err := io.ReadFull(br, p[len(p):cap(p)])
		p = p[:len(p)+k]
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// chunkView is one parsed frameChunk payload. data aliases the frame
// payload buffer from offset off.
type chunkView struct {
	inner byte
	fin   bool
	seq   uint32
	off   int
	data  []byte
}

// parseChunk splits a frameChunk payload into its sub-header fields and data.
func parseChunk(payload []byte) (chunkView, error) {
	if len(payload) == 0 || payload[0]&^(chunkFin|7) != 0 || payload[0]&7 == 0 {
		return chunkView{}, fmt.Errorf("transport: malformed chunk frame (%d bytes)", len(payload))
	}
	seq, k, err := uvarintAt(payload[1:], 5)
	if err != nil || seq > math.MaxUint32 {
		return chunkView{}, fmt.Errorf("transport: malformed chunk sequence number (%d-byte chunk)", len(payload))
	}
	off := 1 + k
	return chunkView{
		inner: payload[0] & 7,
		fin:   payload[0]&chunkFin != 0,
		seq:   uint32(seq),
		off:   off,
		data:  payload[off:],
	}, nil
}

// parseCredit decodes a frameCredit payload: one varint, nothing after it.
// A malformed grant reports false and is dropped, like a late one.
func parseCredit(payload []byte) (int, bool) {
	n, k, err := uvarintAt(payload, 5)
	if err != nil || k != len(payload) || n > math.MaxInt32 {
		return 0, false
	}
	return int(n), true
}
