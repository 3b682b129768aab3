package transport

import (
	"bufio"
	"bytes"
	"io"
)

// The frame kinds, as DecodeFrames reports them.
const (
	KindRequest   = frameRequest
	KindRespOK    = frameRespOK
	KindRespErr   = frameRespErr
	KindChunk     = frameChunk
	KindCredit    = frameCredit
	KindStreamReq = frameStreamReq
)

// Frame is one frame of a recorded connection byte stream, as DecodeFrames
// splits it.
type Frame struct {
	Kind byte
	ID   uint64
	// Header counts the frame's framing bytes: its two header varints and,
	// for a chunk frame, the chunk sub-header.
	Header int
	// Payload is what the framing carries: a chunk frame's data, a credit
	// frame's grant varint, any other frame's whole payload.
	Payload []byte
	// Inner, Fin and Seq are a chunk frame's sub-header fields.
	Inner byte
	Fin   bool
	Seq   uint32
}

// DecodeFrames splits b — the bytes one direction of a connection carried,
// from its first — into frames, through the reader the transport itself
// reads with. It serves tests and tools that attribute a connection's bytes;
// b must end on a frame boundary.
func DecodeFrames(b []byte) ([]Frame, error) {
	br := bufio.NewReader(bytes.NewReader(b))
	var out []Frame
	for {
		kind, id, payload, size, err := readFrame(br)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		f := Frame{Kind: kind, ID: id, Header: size - len(payload), Payload: payload}
		if kind == frameChunk {
			cv, err := parseChunk(payload)
			if err != nil {
				return out, err
			}
			f.Header += cv.off
			f.Payload, f.Inner, f.Fin, f.Seq = cv.data, cv.inner, cv.fin, cv.seq
		}
		out = append(out, f)
	}
}
