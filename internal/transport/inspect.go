package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"sync"
)

// Recorder is a Network whose dialed connections record both directions,
// for the tests and tools that attribute a connection's bytes with
// DecodeFrames.
type Recorder struct {
	Network
	mu    sync.Mutex
	conns []*recordedConn
}

// Dial dials through the embedded Network and records the connection.
func (r *Recorder) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	c, err := r.Network.Dial(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	rc := &recordedConn{Conn: c, endpoint: endpoint}
	r.mu.Lock()
	r.conns = append(r.conns, rc)
	r.mu.Unlock()
	return rc, nil
}

// Dialed returns the endpoint of each dialed connection, in dial order —
// parallel to Recorded.
func (r *Recorder) Dialed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	eps := make([]string, len(r.conns))
	for i, c := range r.conns {
		eps[i] = c.endpoint
	}
	return eps
}

// Recorded returns a copy of what each dialed connection has carried so
// far, in dial order: the bytes written and the bytes read.
func (r *Recorder) Recorded() (out, in [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.mu.Lock()
		out, in = append(out, bytes.Clone(c.out.Bytes())), append(in, bytes.Clone(c.in.Bytes()))
		c.mu.Unlock()
	}
	return out, in
}

type recordedConn struct {
	net.Conn
	endpoint string
	mu       sync.Mutex
	out, in  bytes.Buffer
}

func (c *recordedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.out.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *recordedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

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

	sub int // the chunk sub-header's length, counted in Header
}

// SizeAs is the size f takes on the wire when it carries id in place of
// f.ID. A connection's frame ids number its calls, so a frame recorded as
// one call of its connection can be priced as another.
func (f Frame) SizeAs(id uint64) int {
	n := uvarintLen(id<<3|uint64(f.Kind)) + f.sub + len(f.Payload)
	return uvarintLen(uint64(n)) + n
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
			f.Payload, f.Inner, f.Fin, f.Seq, f.sub = cv.data, cv.inner, cv.fin, cv.seq, cv.off
		}
		out = append(out, f)
	}
}
