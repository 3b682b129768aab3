package transport_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// rawServer accepts one connection at endpoint and hands each inbound
// request frame (kind, id, payload) to respond, which writes whatever raw
// bytes it wants back. It lets tests inject protocol-level garbage the real
// Server never produces.
func rawServer(t *testing.T, n transport.Network, endpoint string, respond func(conn net.Conn, kind byte, id uint64, payload []byte)) {
	t.Helper()
	l, err := n.Listen(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			kind, id, payload, err := transport.ReadFrame(br)
			if err != nil {
				return
			}
			respond(conn, kind, id, payload)
		}
	}()
}

// writeRawFrame writes one well-formed frame.
func writeRawFrame(conn net.Conn, kind byte, id uint64, payload []byte) {
	_, _ = conn.Write(transport.AppendFrame(nil, kind, id, payload))
}

// Receive-side mirror of TestOversizedCallDoesNotKillConnection: a peer
// response frame past MaxFrameSize must fail ONLY the addressed call. The
// oversized payload is drained, the connection survives (no redial), and
// subsequent calls on it succeed.
func TestInboundOversizedFrameFailsOnlyCall(t *testing.T) {
	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	n := &dialCounter{inner: sim}

	rawServer(t, sim, "rawhuge", func(conn net.Conn, kind byte, id uint64, payload []byte) {
		if string(payload) == "big" {
			// Valid kind, in-protocol id, length past the ceiling.
			junk := make([]byte, 1<<20)
			size := transport.MaxFrameSize + 1
			_, _ = conn.Write(transport.AppendHeader(nil, transport.KindRespOK, id, size))
			for sent := 0; sent < size; {
				c := min(len(junk), size-sent)
				if _, err := conn.Write(junk[:c]); err != nil {
					return
				}
				sent += c
			}
			return
		}
		writeRawFrame(conn, 2, id, payload) // echo
	})

	c := transport.NewClient(n, "rawhuge")
	defer c.Close()

	if _, err := c.Call(context.Background(), []byte("warm")); err != nil {
		t.Fatal(err)
	}
	_, err := c.Call(context.Background(), []byte("big"))
	if !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	got, err := c.Call(context.Background(), []byte("alive"))
	if err != nil {
		t.Fatalf("call after oversized inbound frame: %v", err)
	}
	if string(got) != "alive" {
		t.Fatalf("got %q", got)
	}
	if d := n.dials.Load(); d != 1 {
		t.Fatalf("client redialed after oversized inbound frame: %d dials", d)
	}
}

// A garbage header (unknown kind) claiming a near-MaxFrameSize length must
// fail fast: the kind is validated BEFORE the length is trusted, so the
// reader neither allocates for nor drains the phantom payload. The server
// sends nothing after the header — if readFrame trusted the length first it
// would block draining 64 MiB that never arrives, and the call below would
// time out instead of failing promptly.
func TestGarbageHeaderFailsFast(t *testing.T) {
	sim := netsim.New(netsim.Instant)
	defer sim.Close()

	rawServer(t, sim, "garbage", func(conn net.Conn, kind byte, id uint64, payload []byte) {
		_, _ = conn.Write(transport.AppendHeader(nil, 0, id, transport.MaxFrameSize-8))
	})

	c := transport.NewClient(sim, "garbage")
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Call(ctx, []byte("hi"))
	if err == nil {
		t.Fatal("call succeeded against a garbage-header peer")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("call timed out: reader trusted the garbage length before validating the kind")
	}
	if !strings.Contains(err.Error(), "unknown frame kind") {
		t.Fatalf("got %v, want unknown-frame-kind connection error", err)
	}
}

// With the chunking thresholds shrunk, an ordinary Call whose request and
// response both span many chunks must round-trip intact, and the chunk
// counters must show multi-frame transfer actually happened.
func TestChunkedCallRoundTrip(t *testing.T) {
	t.Cleanup(transport.SetStreamTuningForTest(1<<10, 512, 2<<10))

	n := startServer(t, "chunky", echoHandler)
	c := transport.NewClient(n, "chunky")
	defer c.Close()

	if _, err := c.Call(context.Background(), []byte("small")); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got, err := c.Call(context.Background(), payload)
	if err != nil {
		t.Fatalf("chunked call: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("chunked payload corrupted")
	}
	// Concurrent small calls must keep working while a chunked one flows.
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), payload[:32<<10])
		done <- err
	}()
	for i := 0; i < 20; i++ {
		if _, err := c.Call(context.Background(), []byte("tiny")); err != nil {
			t.Fatalf("small call during chunked transfer: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("concurrent chunked call: %v", err)
	}
}

// CallStream delivers the handler's writes strictly in order, and delivery
// overlaps production: the reader observes early entries while the handler
// is still writing later ones.
func TestCallStreamOrdered(t *testing.T) {
	t.Cleanup(transport.SetStreamTuningForTest(1<<10, 256, 1<<10))

	const entries = 200
	var written atomic.Int32
	handler := func(_ context.Context, payload []byte, w *transport.StreamWriter) error {
		for i := 0; i < entries; i++ {
			if _, err := fmt.Fprintf(w, "entry-%04d;", i); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			written.Add(1)
		}
		return nil
	}

	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	l, err := sim.Listen("stream")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf), transport.WithStreamHandler(handler))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := transport.NewClient(sim, "stream")
	defer c.Close()
	r, err := c.CallStream(context.Background(), []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var all []byte
	buf := make([]byte, 64)
	sawOverlap := false
	for {
		n, err := r.Read(buf)
		all = append(all, buf[:n]...)
		if n > 0 && int(written.Load()) < entries {
			sawOverlap = true
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
	}
	var want bytes.Buffer
	for i := 0; i < entries; i++ {
		fmt.Fprintf(&want, "entry-%04d;", i)
	}
	if !bytes.Equal(all, want.Bytes()) {
		t.Fatalf("stream out of order or corrupted (%d bytes, want %d)", len(all), want.Len())
	}
	if !sawOverlap {
		t.Log("no read overlapped production (timing-dependent; not a failure)")
	}
}

// A slow consumer must bound the producer: with the window shrunk, the
// handler cannot run more than window+chunk bytes ahead of what the reader
// consumed.
func TestCallStreamFlowControl(t *testing.T) {
	const window = 4 << 10
	const chunk = 1 << 10
	t.Cleanup(transport.SetStreamTuningForTest(16<<10, chunk, window))

	const total = 256 << 10
	var produced atomic.Int64
	handler := func(_ context.Context, payload []byte, w *transport.StreamWriter) error {
		blob := make([]byte, 512)
		for sent := 0; sent < total; sent += len(blob) {
			if _, err := w.Write(blob); err != nil {
				return err
			}
			produced.Add(int64(len(blob)))
		}
		return nil
	}

	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	l, err := sim.Listen("slow")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf), transport.WithStreamHandler(handler))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := transport.NewClient(sim, "slow")
	defer c.Close()
	r, err := c.CallStream(context.Background(), []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Consume a trickle, then verify the producer is stalled near the
	// window instead of having buffered the whole payload.
	buf := make([]byte, 256)
	consumed := 0
	for consumed < 1<<10 {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		consumed += n
	}
	time.Sleep(50 * time.Millisecond) // let the producer run as far as credit allows
	// Producer may be ahead by: the unread window, one full buffered chunk,
	// and one batched-but-ungranted refill (window/4 rounds of batching).
	limit := int64(consumed + window + 2*chunk + window/4)
	if p := produced.Load(); p > limit {
		t.Fatalf("producer ran %d bytes ahead of a consumer at %d (limit %d): flow control not enforced", p, consumed, limit)
	}
	n, err := io.Copy(io.Discard, r)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if int(n)+consumed != total {
		t.Fatalf("stream delivered %d bytes, want %d", int(n)+consumed, total)
	}
}

// Closing the reader mid-stream cancels the producer: its next Write
// surfaces ErrStreamCanceled, and the connection keeps serving other calls.
func TestCallStreamCancel(t *testing.T) {
	const window = 4 << 10
	t.Cleanup(transport.SetStreamTuningForTest(16<<10, 1<<10, window))

	handlerErr := make(chan error, 1)
	handler := func(_ context.Context, payload []byte, w *transport.StreamWriter) error {
		blob := make([]byte, 1<<10)
		for {
			if _, err := w.Write(blob); err != nil {
				handlerErr <- err
				return err
			}
		}
	}

	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	l, err := sim.Listen("cancel")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf), transport.WithStreamHandler(handler))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := transport.NewClient(sim, "cancel")
	defer c.Close()
	r, err := c.CallStream(context.Background(), []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := r.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-handlerErr:
		if !errors.Is(err, transport.ErrStreamCanceled) {
			t.Fatalf("handler got %v, want ErrStreamCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer never observed the cancel")
	}
	if got, err := c.Call(context.Background(), []byte("after")); err != nil || string(got) != "after" {
		t.Fatalf("plain call after stream cancel: %q, %v", got, err)
	}
}

// A handler error surfaces through the reader AFTER the data written
// before it; a server without a stream handler rejects CallStream cleanly.
func TestCallStreamHandlerError(t *testing.T) {
	t.Cleanup(transport.SetStreamTuningForTest(16<<10, 256, 4<<10))

	handler := func(_ context.Context, payload []byte, w *transport.StreamWriter) error {
		// Written, not flushed: finish sends it ahead of the error.
		if _, err := w.Write([]byte("partial-data")); err != nil {
			return err
		}
		return errors.New("backend exploded")
	}

	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	l, err := sim.Listen("oops")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf), transport.WithStreamHandler(handler))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := transport.NewClient(sim, "oops")
	defer c.Close()
	r, err := c.CallStream(context.Background(), []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err == nil {
		t.Fatal("stream ended without the handler error")
	}
	var he *transport.HandlerError
	if !errors.As(err, &he) || !strings.Contains(he.Msg, "backend exploded") {
		t.Fatalf("got %v, want HandlerError(backend exploded)", err)
	}
	if string(data) != "partial-data" {
		t.Fatalf("data before error: %q, want %q", data, "partial-data")
	}
}

func TestCallStreamNoHandler(t *testing.T) {
	n := startServer(t, "nostream", echoHandler)
	c := transport.NewClient(n, "nostream")
	defer c.Close()
	r, err := c.CallStream(context.Background(), []byte("go"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("stream against a handler-less server succeeded")
	}
}
