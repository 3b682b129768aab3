package rmi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Response streaming.
//
// A stream call names a registered stream SERVICE instead of an exported
// object: the serving peer dispatches to the StreamServer installed with
// HandleStream, which emits a sequence of wire-encoded entries through an
// EntryWriter. Entries travel inside the transport's chunked frame protocol
// (credit-gated, interleaved with ordinary calls), so the consumer reads
// them strictly in emission order while the producer is still running —
// the substrate beneath core's GetBatch bulk-read path.
//
// A stream's bytes are its entries and nothing else: each is a uvarint length
// and that many bytes of wire message, and the messages share ONE type table
// (wire.Encoder on the serving side, wire.Decoder on the consuming side), so
// a stream of k entries of one struct type costs one definition plus k
// entries — not k self-contained messages.

// streamRequest is the wire envelope of a stream call: the service name
// and the service-specific request value.
type streamRequest struct {
	Service string
	Req     any
}

func encStreamRequest(x wire.Enc, r *streamRequest) error {
	x.BeginStruct("rmi.stream.req", 2)
	encMethod(x, r.Service, true)
	return x.Value(r.Req)
}

func decStreamRequest(x wire.Dec, r *streamRequest, n int) error {
	var err error
	if n > 0 {
		if r.Service, err = decMethod(x); err != nil {
			return err
		}
	}
	if n > 1 {
		if r.Req, err = x.Value(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 2)
}

func init() {
	wire.MustRegisterCompiled("rmi.stream.req", true, encStreamRequest, decStreamRequest)
}

// StreamServer handles one stream call: it decodes req (already FromWire-
// converted) and emits entries through w. A returned error reaches the
// caller's StreamCall after the entries written so far.
type StreamServer func(ctx context.Context, req any, w *EntryWriter) error

// HandleStream installs fn as the handler for stream calls naming service.
// Must be called before Serve; later installs replace earlier ones.
func (p *Peer) HandleStream(service string, fn StreamServer) {
	p.mu.Lock()
	if p.streams == nil {
		p.streams = make(map[string]StreamServer)
	}
	p.streams[service] = fn
	p.mu.Unlock()
}

// handleStream is the transport.StreamHandler for this peer.
func (p *Peer) handleStream(ctx context.Context, payload []byte, w *transport.StreamWriter) error {
	msg, err := wire.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("decode stream request: %w", err)
	}
	req, ok := msg.(*streamRequest)
	if !ok {
		return fmt.Errorf("unexpected stream request type %T", msg)
	}
	p.mu.Lock()
	fn := p.streams[req.Service]
	p.mu.Unlock()
	if fn == nil {
		return fmt.Errorf("rmi: no stream service %q", req.Service)
	}
	ew := &EntryWriter{p: p, w: w}
	err = fn(ctx, p.FromWire(req.Req), ew)
	ew.close()
	return err
}

// entryLinger is the longest a written entry waits in its chunk for company
// before it leaves on its own — well under a LAN round trip, so a slow
// producer still streams, and long enough that a burst shares one chunk.
const entryLinger = 250 * time.Microsecond

// maxStreamEntry is the largest entry a consumer accepts: what the transport
// accepts as one reassembled message. A longer length prefix is a corrupt or
// hostile stream, not an entry to make room for.
const maxStreamEntry = 1 << 30

// EntryWriter emits one stream's entries: each WriteEntry appends a
// length-prefixed wire message to the response stream's current chunk. An
// entry leaves the server when its chunk fills, when the handler returns (it
// rides the stream's last chunk), or when it has waited entryLinger —
// whichever comes first; a burst of entries costs one chunk, and no entry
// waits for a successor that is slow to come. The entries are the messages of
// one wire.Encoder, so a struct type is defined once per stream. WriteEntry
// is not safe for concurrent use.
type EntryWriter struct {
	p   *Peer
	enc wire.Encoder // the stream's type table; the handler's goroutine only

	// mu serialises the stream's two writers — the handler, through
	// WriteEntry, and the linger timer — so the transport's StreamWriter
	// keeps its one-producer contract.
	mu     sync.Mutex
	w      *transport.StreamWriter
	linger *time.Timer // flushes the chunk entryLinger after an entry entered it empty
	armed  bool        // linger is pending: the chunk holds an entry nobody has flushed
	closed bool        // the handler returned: the transport finishes the stream
}

// WriteEntry encodes v (remote objects become refs, like call results) and
// queues it on the stream. Blocks when a chunk must leave and the stream is
// out of flow-control credit; surfaces transport.ErrStreamCanceled once the
// consumer is gone. An entry that fails to encode leaves no trace on the
// stream.
func (ew *EntryWriter) WriteEntry(v any) error {
	wv, err := ew.p.ToWire(v)
	if err != nil {
		return fmt.Errorf("rmi: marshal stream entry: %w", err)
	}
	buf := transport.GetBuffer()
	// Reserve room for the maximal uvarint prefix, encode, then write the
	// prefix tight against the entry.
	const maxPrefix = binary.MaxVarintLen64
	for len(buf) < maxPrefix {
		buf = append(buf, 0)
	}
	out, err := ew.enc.Append(buf, wv)
	if err != nil {
		transport.PutBuffer(out)
		return fmt.Errorf("rmi: encode stream entry: %w", err)
	}
	entryLen := len(out) - maxPrefix
	var pre [maxPrefix]byte
	preLen := binary.PutUvarint(pre[:], uint64(entryLen))
	start := maxPrefix - preLen
	copy(out[start:], pre[:preLen])

	ew.mu.Lock()
	_, err = ew.w.Write(out[start:])
	if err == nil && !ew.armed {
		ew.armed = true
		if ew.linger == nil {
			ew.linger = time.AfterFunc(entryLinger, ew.lingerFlush)
		} else {
			ew.linger.Reset(entryLinger)
		}
	}
	ew.mu.Unlock()
	transport.PutBuffer(out)
	return err
}

// lingerFlush is the linger timer's body: the chunk's oldest entry has waited
// long enough. A failure is the StreamWriter's to remember — the handler's
// next WriteEntry returns it.
func (ew *EntryWriter) lingerFlush() {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	if ew.closed {
		return
	}
	ew.armed = false
	_ = ew.w.Flush()
}

// close ends the writer's part in the stream once the handler has returned:
// it stops the linger timer and waits out a flush in flight, so that from
// here the transport's finish is the stream's only writer. The entries still
// in the chunk leave with what finish sends.
func (ew *EntryWriter) close() {
	ew.mu.Lock()
	defer ew.mu.Unlock()
	ew.closed = true
	if ew.linger != nil {
		ew.linger.Stop()
	}
}

// StreamCall is the consumer end of a stream call: Next returns decoded
// entries strictly in emission order while later entries are in flight.
type StreamCall struct {
	p   *Peer
	r   *transport.StreamReader
	br  *bufio.Reader
	dec wire.Decoder // the stream's type table
	off int          // stream bytes consumed, for error offsets
	err error        // sticky: what ended the stream, io.EOF included
}

// CallStream issues a stream call against service at endpoint. The caller
// must drain the returned StreamCall to io.EOF or Close it.
func (p *Peer) CallStream(ctx context.Context, endpoint, service string, req any) (*StreamCall, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	p.calls.Add(1)
	wreq, err := p.ToWire(req)
	if err != nil {
		return nil, fmt.Errorf("rmi: marshal stream request: %w", err)
	}
	buf := transport.GetBuffer()
	payload, err := wire.MarshalAppend(buf, &streamRequest{Service: service, Req: wreq})
	if err != nil {
		transport.PutBuffer(buf)
		return nil, fmt.Errorf("rmi: encode stream request: %w", err)
	}
	r, err := p.pool.CallStream(ctx, endpoint, payload)
	transport.PutBuffer(payload)
	if err != nil {
		return nil, &RemoteException{Op: "stream " + service, Endpoint: endpoint, Err: err}
	}
	return &StreamCall{p: p, r: r, br: bufio.NewReader(r)}, nil
}

// Next returns the next entry, or io.EOF after the last. A stream failed
// mid-way yields its delivered entries, then the error. An entry that is
// malformed — a length prefix no entry can have, bytes that do not decode —
// fails the stream with a *wire.CorruptError or the decoder's own error;
// whatever ended the stream, every later Next returns it again.
func (sc *StreamCall) Next() (any, error) {
	if sc.err != nil {
		return nil, sc.err
	}
	v, err := sc.next()
	if err != nil {
		sc.err = err
		return nil, err
	}
	return v, nil
}

func (sc *StreamCall) next() (any, error) {
	n, err := sc.entryLen()
	if err != nil {
		return nil, err
	}
	// The buffer grows as the entry's bytes arrive, never ahead of them: a
	// length prefix is a claim, and the credit window bounds what a peer
	// can make arrive.
	buf := transport.GetBuffer()
	for len(buf) < n {
		step := min(n-len(buf), entryReadStep)
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(sc.br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			transport.PutBuffer(buf)
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	sc.off += n
	msg, err := sc.dec.Next(buf)
	transport.PutBuffer(buf)
	if err != nil {
		return nil, fmt.Errorf("rmi: decode stream entry: %w", err)
	}
	return sc.p.FromWire(msg), nil
}

// entryReadStep is how far ahead of the bytes read an entry's buffer grows.
const entryReadStep = 64 << 10

// entryLen reads the next entry's uvarint length prefix: io.EOF at a clean
// end of stream, a *wire.CorruptError for a prefix that says more than
// maxStreamEntry or runs past the five bytes such a length needs.
func (sc *StreamCall) entryLen() (int, error) {
	var n uint64
	for shift := 0; shift < 35; shift += 7 {
		b, err := sc.br.ReadByte()
		if err != nil {
			if err == io.EOF && shift > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		sc.off++
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if n > maxStreamEntry {
				break
			}
			return int(n), nil
		}
	}
	return 0, &wire.CorruptError{Offset: sc.off, Detail: fmt.Sprintf("stream entry longer than %d bytes", maxStreamEntry)}
}

// Close abandons the stream, canceling the producer. Safe after EOF.
func (sc *StreamCall) Close() error { return sc.r.Close() }
