package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
)

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

// qframe is one queued frame: its encoded header (with a frameChunk frame's
// sub-header appended) and the caller's payload span.
type qframe struct {
	hdr     *[maxHeaderLen]byte
	hlen    int
	payload []byte
}

// size is the frame's total on-wire length.
func (f *qframe) size() int { return f.hlen + len(f.payload) }

func (f *qframe) recycle() {
	headerPool.Put(f.hdr)
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

var headerPool = sync.Pool{New: func() any { return new([maxHeaderLen]byte) }}
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
	return fw.writeFrame(kind, id, nil, payload)
}

// writeChunk sends one frameChunk frame of stream id: inner is the chunked
// message's logical kind, fin marks the stream's last chunk, seq its
// position. Like write, it blocks until the chunk is handed to the
// connection, so the caller may reuse data immediately after.
func (fw *frameWriter) writeChunk(id uint64, inner byte, fin bool, seq uint32, data []byte) error {
	var sub [maxChunkHeaderLen]byte
	return fw.writeFrame(frameChunk, id, appendChunkHeader(sub[:0], inner, fin, seq), data)
}

// writeFrame encodes the header of one frame — sub, a chunk sub-header or
// nothing, rides behind it — and queues the frame.
func (fw *frameWriter) writeFrame(kind byte, id uint64, sub, payload []byte) error {
	if n := uvarintLen(id<<3|uint64(kind)) + len(sub) + len(payload); n > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	hdr := headerPool.Get().(*[maxHeaderLen]byte)
	h := appendHeader(hdr[:0], kind, id, len(sub)+len(payload))
	h = append(h, sub...)
	return fw.enqueue(qframe{hdr: hdr, hlen: len(h), payload: payload})
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
		spans = append(spans, f.hdr[:f.hlen])
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
		if _, err := fw.w.Write(queue[0].hdr[:queue[0].hlen]); err != nil {
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

