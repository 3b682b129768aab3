package transport

import (
	"context"
	"io"
	"testing"
)

// TestPayloadPoolRejectsUndersizedBuffers is the regression test for the
// pool decay: PutBuffer used to accept any caller-owned buffer with a
// non-zero capacity, so tiny buffers accumulated in the shared pool and a
// frame-sized request kept drawing them, missing, and allocating. Feeding
// the pool many tiny buffers must leave getSizedBuffer(4096) hitting.
func TestPayloadPoolRejectsUndersizedBuffers(t *testing.T) {
	for i := 0; i < 1024; i++ {
		PutBuffer(make([]byte, 0, 64))
	}
	_, missesBefore := PoolCounters()
	for i := 0; i < 256; i++ {
		b := getSizedBuffer(minPooledBuffer)
		if len(b) != minPooledBuffer {
			t.Fatalf("getSizedBuffer(%d) returned %d bytes", minPooledBuffer, len(b))
		}
		// Deliberately not returned: every draw must find a usable buffer
		// (or an empty pool, which makes a fresh full-sized one).
	}
	if _, misses := PoolCounters(); misses != missesBefore {
		t.Errorf("%d of 256 frame-sized requests missed the pool after it was fed tiny buffers", misses-missesBefore)
	}
}

// TestStreamReaderKeepsWholeChunkPayload pins where the tiny buffers came
// from: the reader used to own only a chunk's data span, so the buffer it
// returned to the pool had lost the chunk sub-header's bytes of capacity —
// every trip through the pool, until frame-sized requests missed. It must
// hold (and so return) the payload it was handed, and read past the header.
func TestStreamReaderKeepsWholeChunkPayload(t *testing.T) {
	r := newStreamReader(context.Background(), &Client{st: noStats}, nil, 1)
	sub := appendChunkHeader(nil, frameRespOK, true, 0)
	payload := append(getSizedBuffer(0), sub...)
	payload = append(payload, "hello"...)
	r.deliver(0, payload, len(sub), true, nil)

	got := make([]byte, 2)
	if n, err := r.Read(got); err != nil || string(got[:n]) != "he" {
		t.Fatalf("Read = %q, %v; want \"he\"", got[:n], err)
	}
	if &r.curBuf[0] != &payload[0] || cap(r.curBuf) != cap(payload) {
		t.Errorf("reader will pool a %d-byte-capacity view of the %d-byte payload", cap(r.curBuf), cap(payload))
	}
	rest, err := io.ReadAll(r)
	if err != nil || string(rest) != "llo" {
		t.Errorf("rest of stream = %q, %v; want \"llo\"", rest, err)
	}
}
