package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// frameHeaderLen is the on-wire size of the length prefix plus frame header.
const frameHeaderLen = 4 + frameHeader

// --- payload buffer pool ------------------------------------------------------

// maxPooledBuffer bounds the capacity the payload pool retains; buffers that
// grew beyond it (large file transfers) are left to the GC rather than
// pinned forever. minPooledBuffer is the capacity the pool hands out fresh
// and the least it takes back: a smaller buffer in circulation would miss
// every frame-sized request and push its own growth onto every appender.
const (
	minPooledBuffer = 4096
	maxPooledBuffer = 1 << 20
)

var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, minPooledBuffer)
	return &b
}}

// GetBuffer returns a zero-length payload buffer from the shared pool.
// Callers append a message to it (e.g. with wire.MarshalAppend) and hand it
// back with PutBuffer when the message has been fully written or decoded,
// so steady-state traffic stops allocating a fresh []byte per message.
func GetBuffer() []byte {
	return (*payloadPool.Get().(*[]byte))[:0]
}

// PutBuffer returns a buffer obtained from GetBuffer (or any buffer the
// caller owns outright) to the pool. The buffer must not be used after.
// Buffers outside [minPooledBuffer, maxPooledBuffer] are left to the GC.
func PutBuffer(b []byte) {
	if cap(b) < minPooledBuffer || cap(b) > maxPooledBuffer {
		return
	}
	b = b[:0]
	payloadPool.Put(&b)
}

// getSizedBuffer returns a length-n buffer, pooled when possible. A pooled
// buffer too small for n is dropped, not put back: the fresh one replaces
// it in circulation when its user returns it, so the pool's buffers grow
// toward the sizes asked for instead of multiplying.
func getSizedBuffer(n int) []byte {
	b := GetBuffer()
	if cap(b) < n {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	poolHits.Add(1)
	return b[:n]
}

// --- frame writer -------------------------------------------------------------

// qframe is one queued frame: its fixed header, an optional chunk
// sub-header (frameChunk frames only), and the caller's payload span.
type qframe struct {
	hdr     *[frameHeaderLen]byte
	chdr    *[chunkHeaderLen]byte
	payload []byte
}

// size is the frame's total on-wire length.
func (f *qframe) size() int {
	n := frameHeaderLen + len(f.payload)
	if f.chdr != nil {
		n += chunkHeaderLen
	}
	return n
}

func (f *qframe) recycle() {
	headerPool.Put(f.hdr)
	if f.chdr != nil {
		chunkHdrPool.Put(f.chdr)
	}
	*f = qframe{}
}

// frameWriter serializes frame writes onto a shared connection with group
// commit: the goroutine that finds the writer idle becomes the flusher and
// writes everything queued — its own frame plus any frames concurrent
// callers enqueue while a flush is in flight — in a single writev
// (net.Buffers) on TCP, or one copy-and-write on other connections. Under
// concurrent small-frame load (the multiplexed client, the server's
// response path) this coalesces many frames into one syscall and removes
// the old per-frame payload copy.
type frameWriter struct {
	w     io.Writer
	isTCP bool
	st    *Stats

	mu      sync.Mutex
	err     error // sticky: the connection is dead
	queue   []qframe
	waiters []chan error
	writing bool
	// spare double-buffers the queue slices so steady-state flushing
	// allocates nothing.
	spareQueue   []qframe
	spareWaiters []chan error
	// spans is the flush-time scratch translating queued frames into write
	// vectors; cbuf is the coalescing copy buffer for non-TCP writers.
	spans [][]byte
	cbuf  []byte
}

var headerPool = sync.Pool{New: func() any { return new([frameHeaderLen]byte) }}
var chunkHdrPool = sync.Pool{New: func() any { return new([chunkHeaderLen]byte) }}
var waiterPool = sync.Pool{New: func() any { return make(chan error, 1) }}

func newFrameWriter(w io.Writer, st *Stats) *frameWriter {
	_, isTCP := w.(*net.TCPConn)
	if st == nil {
		st = noStats
	}
	return &frameWriter{w: w, isTCP: isTCP, st: st}
}

// write sends one frame, blocking until the frame has been handed to the
// connection (so the caller may recycle payload immediately after). It is
// safe for concurrent use. An oversized frame fails with ErrTooLarge before
// anything is buffered or locked; the connection remains usable. (Callers
// that accept multi-frame messages use sendMessage, which chunks instead of
// failing.)
func (fw *frameWriter) write(kind byte, id uint64, payload []byte) error {
	n := frameHeader + len(payload)
	if n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	hdr := headerPool.Get().(*[frameHeaderLen]byte)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = kind
	binary.BigEndian.PutUint64(hdr[5:], id)
	return fw.enqueue(qframe{hdr: hdr, payload: payload})
}

// writeChunk sends one frameChunk frame of stream id: inner is the chunked
// message's logical kind, fin marks the stream's last chunk, seq its
// position. Like write, it blocks until the chunk is handed to the
// connection, so the caller may reuse data immediately after.
func (fw *frameWriter) writeChunk(id uint64, inner byte, fin bool, seq uint32, data []byte) error {
	n := frameHeader + chunkHeaderLen + len(data)
	if n > MaxFrameSize {
		// Unreachable for the package's own senders: maxChunkData is far
		// below the frame ceiling.
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	hdr := headerPool.Get().(*[frameHeaderLen]byte)
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	hdr[4] = frameChunk
	binary.BigEndian.PutUint64(hdr[5:], id)
	chdr := chunkHdrPool.Get().(*[chunkHeaderLen]byte)
	chdr[0] = inner
	chdr[1] = 0
	if fin {
		chdr[1] = chunkFin
	}
	binary.BigEndian.PutUint32(chdr[2:], seq)
	return fw.enqueue(qframe{hdr: hdr, chdr: chdr, payload: data})
}

// enqueue adds one frame to the group-commit queue and runs the flush loop
// when this goroutine finds the writer idle.
func (fw *frameWriter) enqueue(f qframe) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		f.recycle()
		return err
	}
	fw.queue = append(fw.queue, f)
	if fw.writing {
		// A flush is in flight; our frame rides the next one.
		ch := waiterPool.Get().(chan error)
		fw.waiters = append(fw.waiters, ch)
		fw.mu.Unlock()
		err := <-ch
		waiterPool.Put(ch)
		return err
	}
	fw.writing = true
	var myErr error
	first := true
	for fw.err == nil && len(fw.queue) > 0 {
		queue, waiters := fw.queue, fw.waiters
		fw.queue, fw.waiters = fw.spareQueue[:0], fw.spareWaiters[:0]
		fw.mu.Unlock()

		werr := fw.flush(queue)
		for i := range queue {
			queue[i].recycle()
		}
		for _, ch := range waiters {
			ch <- werr
		}
		if first {
			myErr = werr
			first = false
		}

		fw.mu.Lock()
		fw.spareQueue, fw.spareWaiters = queue[:0], waiters[:0]
		if werr != nil {
			fw.err = werr
			// Fail everything enqueued while the doomed flush was in
			// flight; their frames were never written.
			for _, ch := range fw.waiters {
				ch <- werr
			}
			for i := range fw.queue {
				fw.queue[i].recycle()
			}
			fw.queue, fw.waiters = fw.queue[:0], fw.waiters[:0]
		}
	}
	fw.writing = false
	fw.mu.Unlock()
	return myErr
}

// flush writes one batch of queued frames.
func (fw *frameWriter) flush(queue []qframe) error {
	spans := fw.spans[:0]
	var total int
	for i := range queue {
		f := &queue[i]
		spans = append(spans, f.hdr[:])
		if f.chdr != nil {
			spans = append(spans, f.chdr[:])
		}
		if len(f.payload) > 0 {
			spans = append(spans, f.payload)
		}
		total += f.size()
	}
	if fw.st != noStats {
		fw.st.FramesOut.Add(uint64(len(queue)))
		fw.st.Writev.Observe(int64(len(queue)))
		fw.st.BytesOut.Add(uint64(total))
	}
	err := fw.writeSpans(queue, spans)
	// Drop payload references so the scratch vector does not pin large
	// buffers between flushes (net.Buffers also consumes entries in place).
	for i := range spans {
		spans[i] = nil
	}
	fw.spans = spans[:0]
	return err
}

func (fw *frameWriter) writeSpans(queue []qframe, spans [][]byte) error {
	if fw.isTCP {
		bufs := net.Buffers(spans)
		_, err := bufs.WriteTo(fw.w)
		return err
	}
	// Generic writers get one coalesced copy-and-write per batch: net.Conn
	// implementations without writev support (netsim links, pipes) would
	// otherwise pay one Write per span.
	if len(queue) == 1 && len(queue[0].payload) >= 4096 {
		// Single large frame: writing the headers and the payload
		// separately beats copying the payload.
		var hb [frameHeaderLen + chunkHeaderLen]byte
		h := append(hb[:0], queue[0].hdr[:]...)
		if queue[0].chdr != nil {
			h = append(h, queue[0].chdr[:]...)
		}
		if _, err := fw.w.Write(h); err != nil {
			return err
		}
		_, err := fw.w.Write(queue[0].payload)
		return err
	}
	fw.cbuf = fw.cbuf[:0]
	for _, b := range spans {
		fw.cbuf = append(fw.cbuf, b...)
	}
	_, err := fw.w.Write(fw.cbuf)
	if cap(fw.cbuf) > maxPooledBuffer {
		fw.cbuf = nil
	}
	return err
}

// readFrame reads one frame from r. The returned payload comes from the
// shared buffer pool: the receiver owns it and may hand it back with
// PutBuffer once decoded.
//
// The header's shape is validated BEFORE its length is trusted: a corrupt
// or hostile header must not drive a max-size pool allocation, so an
// unknown kind fails (connection-fatally — the peer is not speaking our
// protocol) without reading or allocating anything further. A well-formed
// header declaring more than MaxFrameSize has its payload drained without
// allocation and reports a typed *OversizedFrameError, which the read
// loops translate into failing only the addressed call (the receive-side
// mirror of the send path's ErrTooLarge contract).
func readFrame(r io.Reader) (kind byte, id uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	kind = hdr[4]
	id = binary.BigEndian.Uint64(hdr[5:])
	if kind < frameRequest || kind > frameKindMax {
		return 0, 0, nil, fmt.Errorf("transport: unknown frame kind %d (%d-byte frame)", kind, n)
	}
	if n < frameHeader {
		return 0, 0, nil, fmt.Errorf("transport: short frame (%d bytes)", n)
	}
	if n > MaxFrameSize {
		if _, derr := io.CopyN(io.Discard, r, int64(n-frameHeader)); derr != nil {
			return 0, 0, nil, derr
		}
		return 0, 0, nil, &OversizedFrameError{Kind: kind, ID: id, Size: uint64(n)}
	}
	payload = getSizedBuffer(int(n - frameHeader))
	if _, err = io.ReadFull(r, payload); err != nil {
		PutBuffer(payload)
		return 0, 0, nil, err
	}
	return kind, id, payload, nil
}
