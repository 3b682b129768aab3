// Streaming and multi-frame messages.
//
// One logical message larger than a single frame — an oversized call, or a
// response stream produced incrementally by a StreamHandler — travels as a
// sequence of frameChunk frames sharing the request id (the stream id).
// Chunks of different streams interleave freely on one connection, so a
// bulk transfer never head-of-line-blocks ordinary calls.
//
// Flow control is credit-based, per stream: a sender starts with
// streamWindow bytes of credit, debits it for every data byte framed, and
// blocks when the window is exhausted; the receiver returns credit with
// frameCredit frames — immediately on receipt when it reassembles into a
// buffer, and as the consumer reads when the chunks feed a StreamReader —
// so a slow consumer bounds the bytes in flight instead of buffering
// without limit. A zero-byte grant cancels the stream: the consumer is
// gone and the sender unblocks with ErrStreamCanceled.
package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Tuning. Vars rather than consts so tests can shrink them (see
// export_test.go); production values never change at runtime.
var (
	// maxDirectPayload is the largest payload sent as one ordinary frame;
	// anything larger is chunked transparently by sendMessage.
	maxDirectPayload = MaxFrameSize - binary.MaxVarintLen64
	// maxChunkData is the data size per chunk — under maxPooledBuffer so
	// chunk receive buffers keep pooling.
	maxChunkData = 256 << 10
	// streamWindow is the initial (and maximum outstanding) per-stream
	// credit in bytes.
	streamWindow = 1 << 20
	// maxAssembledMessage bounds what a receiver will reassemble for one
	// logical message; a stream consumed through a StreamReader has no
	// such bound (the window caps what is buffered at any moment).
	maxAssembledMessage = 1 << 30
)

// --- send side: credit windows ------------------------------------------------

// sendWindow is one outbound stream's credit state.
type sendWindow struct {
	avail    int
	canceled bool
	ready    chan struct{} // 1-buffered wake signal
}

// creditTable is one connection's send-side flow-control state: per-stream
// credit windows debited as chunk data is framed and replenished by
// frameCredit grants from the peer's read loop.
type creditTable struct {
	mu      sync.Mutex
	err     error // sticky: the connection is dead
	streams map[uint64]*sendWindow
}

func newCreditTable() *creditTable {
	return &creditTable{streams: make(map[uint64]*sendWindow)}
}

// open registers stream id with a full window.
func (ct *creditTable) open(id uint64) {
	ct.mu.Lock()
	ct.streams[id] = &sendWindow{avail: streamWindow, ready: make(chan struct{}, 1)}
	ct.mu.Unlock()
}

// close drops stream id's window.
func (ct *creditTable) close(id uint64) {
	ct.mu.Lock()
	delete(ct.streams, id)
	ct.mu.Unlock()
}

// grant credits stream id with n more bytes; n == 0 cancels the stream.
// Grants for unknown streams (already finished, or raced with open) are
// dropped — the protocol tolerates late credit.
func (ct *creditTable) grant(id uint64, n int) {
	ct.mu.Lock()
	w := ct.streams[id]
	if w != nil {
		if n == 0 {
			w.canceled = true
		} else {
			w.avail += n
		}
	}
	ct.mu.Unlock()
	if w != nil {
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
}

// fail poisons the table (the connection died) and wakes every blocked
// sender.
func (ct *creditTable) fail(err error) {
	ct.mu.Lock()
	if ct.err == nil {
		ct.err = err
	}
	ws := make([]*sendWindow, 0, len(ct.streams))
	for _, w := range ct.streams {
		ws = append(ws, w)
	}
	ct.mu.Unlock()
	for _, w := range ws {
		select {
		case w.ready <- struct{}{}:
		default:
		}
	}
}

// consume blocks until n bytes of credit are available for stream id and
// debits them.
func (ct *creditTable) consume(ctx context.Context, id uint64, n int) error {
	for {
		ct.mu.Lock()
		if ct.err != nil {
			err := ct.err
			ct.mu.Unlock()
			return err
		}
		w := ct.streams[id]
		if w == nil || w.canceled {
			ct.mu.Unlock()
			return ErrStreamCanceled
		}
		if w.avail >= n {
			w.avail -= n
			ct.mu.Unlock()
			return nil
		}
		ready := w.ready
		ct.mu.Unlock()
		select {
		case <-ready:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// sendMessage hands one logical message to fw: as a single frame when it
// fits (the unchanged hot path), and as a credit-gated chunk sequence
// otherwise — which is what lifts the MaxFrameSize ceiling for ordinary
// oversized calls. The caller may recycle payload when it returns.
func sendMessage(ctx context.Context, fw *frameWriter, ct *creditTable, st *Stats, kind byte, id uint64, payload []byte) error {
	if len(payload) <= maxDirectPayload {
		return fw.write(kind, id, payload)
	}
	ct.open(id)
	defer ct.close(id)
	var seq uint32
	for off := 0; ; {
		c := len(payload) - off
		if c > maxChunkData {
			c = maxChunkData
		}
		fin := off+c == len(payload)
		if err := ct.consume(ctx, id, c); err != nil {
			return err
		}
		if err := fw.writeChunk(id, kind, fin, seq, payload[off:off+c]); err != nil {
			return err
		}
		st.ChunksOut.Inc()
		st.StreamBytesOut.Add(uint64(c))
		seq++
		off += c
		if fin {
			return nil
		}
	}
}

// writeCredit sends one credit grant for stream id. A zero n cancels the
// stream.
func writeCredit(fw *frameWriter, id uint64, n int) error {
	var b [binary.MaxVarintLen32]byte
	return fw.write(frameCredit, id, binary.AppendUvarint(b[:0], uint64(n)))
}

// --- receive side: reassembly -------------------------------------------------

// partial is one in-progress message reassembly.
type partial struct {
	inner byte
	seq   uint32
	buf   []byte
}

// assembler reassembles inbound chunked messages for one connection. It is
// used only from the connection's read loop, so it needs no locking.
type assembler struct {
	m map[uint64]*partial
}

func newAssembler() *assembler {
	return &assembler{m: make(map[uint64]*partial)}
}

// add folds one parsed chunk of stream id into the reassembly state. done
// reports a completed message: its logical kind and assembled payload
// (the caller owns it; PutBuffer applies). A non-nil error is a protocol
// violation and connection-fatal.
func (a *assembler) add(id uint64, cv chunkView) (inner byte, msg []byte, done bool, err error) {
	p := a.m[id]
	if p == nil {
		if cv.seq != 0 {
			return 0, nil, false, fmt.Errorf("transport: chunk stream %d began at seq %d", id, cv.seq)
		}
		p = &partial{inner: cv.inner, buf: GetBuffer()}
		a.m[id] = p
	} else if cv.seq != p.seq {
		a.drop(id)
		return 0, nil, false, fmt.Errorf("transport: chunk stream %d: got seq %d, want %d", id, cv.seq, p.seq)
	}
	p.seq++
	if len(p.buf)+len(cv.data) > maxAssembledMessage {
		a.drop(id)
		return 0, nil, false, fmt.Errorf("transport: chunked message %d exceeds %d bytes", id, maxAssembledMessage)
	}
	p.buf = append(p.buf, cv.data...)
	if !cv.fin {
		return 0, nil, false, nil
	}
	delete(a.m, id)
	// An error chunk (or a fin carrying a different inner kind than the
	// stream opened with) closes with the LAST chunk's kind: a stream
	// handler that fails mid-way finishes with a frameRespErr chunk.
	return cv.inner, p.buf, true, nil
}

// drop discards stream id's partial state (its consumer vanished).
func (a *assembler) drop(id uint64) {
	if p := a.m[id]; p != nil {
		PutBuffer(p.buf)
		delete(a.m, id)
	}
}

// --- StreamWriter (producer side) ---------------------------------------------

// StreamWriter frames a response stream: the stream handler writes bytes
// through it and the transport cuts them into credit-gated frameChunk
// frames interleaved with other traffic on the connection. Not safe for
// concurrent use (one producer per stream).
type StreamWriter struct {
	ctx context.Context
	fw  *frameWriter
	ct  *creditTable
	st  *Stats
	id  uint64

	seq  uint32
	buf  []byte // pooled accumulation buffer, always < maxChunkData when idle
	err  error  // sticky
	done bool   // fin or error chunk already sent
}

func newStreamWriter(ctx context.Context, fw *frameWriter, ct *creditTable, st *Stats, id uint64) *StreamWriter {
	ct.open(id)
	return &StreamWriter{ctx: ctx, fw: fw, ct: ct, st: st, id: id}
}

// Write implements io.Writer: p is buffered and cut into full chunks. It
// blocks when the stream is out of credit — a slow consumer slows the
// producer instead of growing a queue. Returns ErrStreamCanceled once the
// consumer has abandoned the stream.
func (w *StreamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		if w.buf == nil {
			w.buf = GetBuffer()
		}
		room := maxChunkData - len(w.buf)
		if room == 0 {
			if err := w.flushChunk(false); err != nil {
				return 0, err
			}
			continue
		}
		c := room
		if c > len(p) {
			c = len(p)
		}
		w.buf = append(w.buf, p[:c]...)
		p = p[c:]
	}
	return n, nil
}

// Flush frames any buffered bytes immediately, so what small Writes have
// accumulated reaches the consumer without waiting for a full chunk.
func (w *StreamWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	return w.flushChunk(false)
}

// flushChunk frames the accumulation buffer as one chunk.
func (w *StreamWriter) flushChunk(fin bool) error {
	if err := w.sendChunk(w.buf, fin); err != nil {
		return err
	}
	if w.buf != nil {
		w.buf = w.buf[:0]
	}
	return nil
}

// sendChunk frames one data span, debiting credit first.
func (w *StreamWriter) sendChunk(data []byte, fin bool) error {
	if err := w.ct.consume(w.ctx, w.id, len(data)); err != nil {
		w.err = err
		return err
	}
	if err := w.fw.writeChunk(w.id, frameRespOK, fin, w.seq, data); err != nil {
		w.err = err
		return err
	}
	w.seq++
	w.st.ChunksOut.Inc()
	w.st.StreamBytesOut.Add(uint64(len(data)))
	if fin {
		w.done = true
	}
	return nil
}

// finish completes the stream after the handler returned: on success the
// buffered tail flushes with the fin bit; a handler error is delivered as
// a final error chunk, behind the buffered tail, so the consumer surfaces
// it after everything the handler wrote. Called by the server dispatch wrapper, never by handlers.
func (w *StreamWriter) finish(herr error) {
	defer func() {
		PutBuffer(w.buf)
		w.buf = nil
		w.ct.close(w.id)
	}()
	if w.err != nil || w.done {
		return // transport dead, canceled, or already finished
	}
	if herr == nil {
		_ = w.flushChunk(true)
		return
	}
	// What the handler wrote leaves ahead of the error chunk, which carries
	// only the message.
	if len(w.buf) > 0 && w.flushChunk(false) != nil {
		return
	}
	msg := []byte(herr.Error())
	if len(msg) > maxChunkData {
		msg = msg[:maxChunkData]
	}
	if err := w.ct.consume(w.ctx, w.id, len(msg)); err != nil {
		w.err = err
		return
	}
	if err := w.fw.writeChunk(w.id, frameRespErr, true, w.seq, msg); err != nil {
		w.err = err
		return
	}
	w.seq++
	w.st.ChunksOut.Inc()
	w.st.StreamBytesOut.Add(uint64(len(msg)))
	w.done = true
}

// --- StreamReader (consumer side) ---------------------------------------------

// StreamReader delivers one response stream strictly in order while later
// chunks are still in flight. It implements io.Reader; Read grants
// flow-control credit back to the sender as bytes are consumed, so the
// unread backlog is bounded by the stream window. The reader must be
// drained to io.EOF or Closed — Close cancels the sender.
type StreamReader struct {
	c   *Client
	cc  *clientConn
	ctx context.Context
	id  uint64

	mu      sync.Mutex
	items   []chunkItem // pooled chunk payloads, in arrival (= stream) order
	cur     []byte   // unconsumed remainder of the item being read
	curBuf  []byte   // cur's backing buffer, for PutBuffer
	wantSeq uint32
	fin     bool
	err     error
	closed  bool
	ended   bool // terminal state accounted (StreamsOpen gauge)
	pending int  // bytes consumed but not yet granted back
	ready   chan struct{}
}

func newStreamReader(ctx context.Context, c *Client, cc *clientConn, id uint64) *StreamReader {
	c.st.StreamsOpen.Add(1)
	return &StreamReader{c: c, cc: cc, ctx: ctx, id: id, ready: make(chan struct{}, 1)}
}

// endLocked marks the stream terminal exactly once. Caller holds r.mu.
func (r *StreamReader) endLocked() {
	if !r.ended {
		r.ended = true
		r.c.st.StreamsOpen.Add(-1)
	}
}

// chunkItem is one delivered chunk: its whole payload, whose data span
// starts at off, behind the chunk sub-header.
type chunkItem struct {
	buf []byte
	off int
}

// deliver hands one in-order chunk (or the terminal error) to the reader.
// Called from the client read loop; data (when non-nil) is the chunk's
// whole payload — sub-header, then the data span from off — in a pooled
// buffer the reader now owns. Reports whether the stream is terminal.
func (r *StreamReader) deliver(seq uint32, data []byte, off int, fin bool, err error) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if data != nil {
			PutBuffer(data)
		}
		return true
	}
	if err == nil && data != nil {
		if seq != r.wantSeq {
			// Frames arrive in connection order, so a gap is a protocol
			// violation by the sender; fail the stream, not the connection.
			err = fmt.Errorf("transport: stream %d: got chunk seq %d, want %d", r.id, seq, r.wantSeq)
			PutBuffer(data)
			data = nil
		} else {
			r.wantSeq++
		}
	}
	if len(data) > off {
		r.items = append(r.items, chunkItem{buf: data, off: off})
	} else if data != nil {
		PutBuffer(data)
	}
	if fin {
		r.fin = true
	}
	if err != nil && r.err == nil {
		r.err = err
	}
	terminal := r.fin || r.err != nil
	if terminal {
		r.endLocked()
	}
	r.mu.Unlock()
	select {
	case r.ready <- struct{}{}:
	default:
	}
	return terminal
}

// Read implements io.Reader, blocking until data, EOF, or a stream error
// arrives. A stream failed mid-way returns the data received before the
// failure, then the error.
func (r *StreamReader) Read(p []byte) (int, error) {
	for {
		r.mu.Lock()
		if len(r.cur) == 0 && len(r.items) > 0 {
			if r.curBuf != nil {
				PutBuffer(r.curBuf)
			}
			r.cur, r.curBuf = r.items[0].buf[r.items[0].off:], r.items[0].buf
			r.items = r.items[1:]
		}
		if len(r.cur) > 0 {
			n := copy(p, r.cur)
			r.cur = r.cur[n:]
			if len(r.cur) == 0 {
				PutBuffer(r.curBuf)
				r.curBuf = nil
			}
			var grant int
			r.pending += n
			// Batch grants so a byte-at-a-time consumer does not write a
			// credit frame per read.
			if r.pending >= streamWindow/4 {
				grant, r.pending = r.pending, 0
			}
			r.mu.Unlock()
			if grant > 0 {
				_ = writeCredit(r.cc.fw, r.id, grant)
			}
			return n, nil
		}
		switch {
		case r.err != nil:
			err := r.err
			r.mu.Unlock()
			return 0, err
		case r.fin:
			r.mu.Unlock()
			return 0, io.EOF
		case r.closed:
			r.mu.Unlock()
			return 0, ErrClosed
		}
		ready := r.ready
		r.mu.Unlock()
		select {
		case <-ready:
		case <-r.ctx.Done():
			_ = r.Close()
			return 0, r.ctx.Err()
		}
	}
}

// Close abandons the stream: buffered chunks are released and, when the
// stream has not already finished, the sender is canceled with a
// zero-credit grant. Safe to call repeatedly and after EOF.
func (r *StreamReader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	live := !r.fin && r.err == nil
	for _, it := range r.items {
		PutBuffer(it.buf)
	}
	r.items = nil
	if r.curBuf != nil {
		PutBuffer(r.curBuf)
		r.curBuf = nil
	}
	r.cur = nil
	r.endLocked()
	r.mu.Unlock()
	select {
	case r.ready <- struct{}{}:
	default:
	}
	if live {
		r.c.remove(r.id)
		_ = writeCredit(r.cc.fw, r.id, 0)
	}
	return nil
}
