package rmi_test

// The stream layer on its own: HandleStream / CallStream / EntryWriter over a
// simulated network, with the bytes the consumer's connection carried on
// record. What is pinned here is the delivery rule — a written entry leaves
// when its chunk fills, when the handler returns, or after entryLinger — and
// the stream's wire form: entries of one wire.Encoder, no terminator frame.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

type streamItem struct {
	N int64
	S string
}

type unregisteredItem struct{ N int64 }

func init() {
	wire.MustRegister("rmitest.item", streamItem{})
}

const streamHost = "stream-server"

// tapNetwork records every byte the connections dialed through it deliver
// to their reader: the serving peer's half of the conversation.
type tapNetwork struct {
	transport.Network
	mu sync.Mutex
	in bytes.Buffer
}

func (n *tapNetwork) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	c, err := n.Network.Dial(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: n}, nil
}

type tapConn struct {
	net.Conn
	tap *tapNetwork
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.in.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

// chunks returns the chunk frames among the recorded bytes, decoded by the
// transport's own frame reader.
func (n *tapNetwork) chunks(t *testing.T) []transport.Frame {
	t.Helper()
	n.mu.Lock()
	b := append([]byte(nil), n.in.Bytes()...)
	n.mu.Unlock()
	frames, err := transport.DecodeFrames(b)
	if err != nil {
		t.Fatalf("recorded bytes: %v", err)
	}
	return slices.DeleteFunc(frames, func(f transport.Frame) bool { return f.Kind != transport.KindChunk })
}

type streamEnv struct {
	server, client *rmi.Peer
	tap            *tapNetwork
}

// newStreamEnv serves handler as stream service "svc" and returns a client
// whose inbound bytes are recorded. Teardown is registered in an order that
// lets a goroutine-leak check registered BEFORE the call run last.
func newStreamEnv(t *testing.T, handler rmi.StreamServer) *streamEnv {
	t.Helper()
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	server.HandleStream("svc", handler)
	if err := server.Serve(streamHost); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	tap := &tapNetwork{Network: network}
	client := rmi.NewPeer(tap, rmi.WithLogf(silentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return &streamEnv{server: server, client: client, tap: tap}
}

func (env *streamEnv) open(t *testing.T) *rmi.StreamCall {
	t.Helper()
	sc, err := env.client.CallStream(context.Background(), streamHost, "svc", "req")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// nextWithin is sc.Next with a deadline: a stream that stopped streaming
// fails the test instead of hanging it.
func nextWithin(t *testing.T, sc *rmi.StreamCall, d time.Duration) (any, error) {
	t.Helper()
	type result struct {
		v   any
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := sc.Next()
		done <- result{v, err}
	}()
	select {
	case r := <-done:
		return r.v, r.err
	case <-time.After(d):
		t.Fatalf("Next did not return within %v", d)
		return nil, nil
	}
}

// readAll drains sc: the entries delivered and what ended the stream (nil
// for io.EOF).
func readAll(t *testing.T, sc *rmi.StreamCall) ([]any, error) {
	t.Helper()
	var out []any
	for {
		v, err := nextWithin(t, sc, 5*time.Second)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
}

// TestSlowProducerStillStreams is the streaming contract: the producer
// writes entry i+1 only after the consumer has READ entry i (and 20 ms
// later), so an entry that waited for a successor, or for the handler to
// return, would deadlock the pair. Each entry arrives on its own, within the
// linger and not a scheduling eternity after it was written.
func TestSlowProducerStillStreams(t *testing.T) {
	const k = 8
	read := make(chan struct{})
	written := make(chan time.Time, k)
	returned := make(chan struct{})
	env := newStreamEnv(t, func(ctx context.Context, _ any, w *rmi.EntryWriter) error {
		defer close(returned)
		for i := 0; i < k; i++ {
			written <- time.Now()
			if err := w.WriteEntry(streamItem{N: int64(i)}); err != nil {
				return err
			}
			select {
			case <-read:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("entry %d was never read", i)
			}
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	})
	sc := env.open(t)
	defer sc.Close()
	waits := make([]time.Duration, 0, k)
	for i := 0; i < k; i++ {
		v, err := nextWithin(t, sc, 2*time.Second)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if it, ok := v.(streamItem); !ok || it.N != int64(i) {
			t.Fatalf("entry %d = %#v", i, v)
		}
		waits = append(waits, time.Since(<-written))
		select {
		case <-returned:
			t.Fatalf("entry %d arrived only after the handler returned", i)
		default:
		}
		read <- struct{}{}
	}
	if _, err := nextWithin(t, sc, 2*time.Second); err != io.EOF {
		t.Fatalf("after the last entry: %v, want io.EOF", err)
	}
	// The linger (250 µs) is the worst delay the writer adds. The median of
	// the eight is held to 10 ms — the linger plus a generous scheduling
	// allowance, and half the producer's own pace — so that one hiccup of a
	// loaded machine does not fail the test and a linger gone missing does.
	slices.Sort(waits)
	if median := waits[k/2]; median > 10*time.Millisecond {
		t.Errorf("entries took %v from WriteEntry to Next (median %v); the linger is meant to be the worst added delay", waits, median)
	}
	// Eight lone entries: eight data chunks and the (now empty) fin.
	if got := env.tap.chunks(t); len(got) != k+1 {
		t.Errorf("slow stream of %d entries took %d chunks, want %d", k, len(got), k+1)
	}
}

// burst runs a handler that writes k items back to back and returns the
// entries read and the chunks that carried them. A burst the scheduler cut
// in two (the producer descheduled for a whole linger) is legal but not what
// the callers pin, so it is retried a few times for one that went through in
// at most wantChunks.
func burst(t *testing.T, k, wantChunks int) ([]any, []transport.Frame) {
	t.Helper()
	var entries []any
	var chunks []transport.Frame
	for attempt := 0; attempt < 5; attempt++ {
		env := newStreamEnv(t, func(ctx context.Context, _ any, w *rmi.EntryWriter) error {
			for i := 0; i < k; i++ {
				if err := w.WriteEntry(streamItem{N: int64(i), S: "v"}); err != nil {
					return err
				}
			}
			return nil
		})
		sc := env.open(t)
		var err error
		entries, err = readAll(t, sc)
		sc.Close()
		if err != nil {
			t.Fatal(err)
		}
		chunks = env.tap.chunks(t)
		if len(chunks) <= wantChunks {
			break
		}
	}
	return entries, chunks
}

// TestBurstSharesOneChunk: entries written back to back leave together. The
// stream's bytes name the entry type once, the last data chunk carries the
// fin bit, and no empty chunk follows it.
func TestBurstSharesOneChunk(t *testing.T) {
	for _, c := range []struct{ k, maxChunks int }{{16, 2}, {1, 1}} {
		entries, chunks := burst(t, c.k, c.maxChunks)
		if len(entries) != c.k {
			t.Fatalf("k=%d: read %d entries", c.k, len(entries))
		}
		for i, v := range entries {
			if it, ok := v.(streamItem); !ok || it.N != int64(i) || it.S != "v" {
				t.Fatalf("k=%d: entry %d = %#v", c.k, i, v)
			}
		}
		if len(chunks) == 0 || len(chunks) > c.maxChunks {
			t.Fatalf("k=%d: %d chunks, want at most %d", c.k, len(chunks), c.maxChunks)
		}
		var stream []byte
		for i, ch := range chunks {
			if len(ch.Payload) == 0 {
				t.Errorf("k=%d: chunk %d is empty; the fin rides the last data chunk", c.k, i)
			}
			if ch.Seq != uint32(i) || ch.Fin != (i == len(chunks)-1) {
				t.Errorf("k=%d: chunk %d has seq %d fin %v", c.k, i, ch.Seq, ch.Fin)
			}
			stream = append(stream, ch.Payload...)
		}
		if n := bytes.Count(stream, []byte("rmitest.item")); n != 1 {
			t.Errorf("k=%d: the stream names its entry type %d times, want once", c.k, n)
		}
	}
}

// TestStreamWireFormTwoEntries is the golden of a stream's bytes: ONE chunk
// (inner kind response-ok, fin set, seq 0) whose data is two length-prefixed
// messages — the first defines rmitest.item as type 1 and uses it, the
// second only uses it.
func TestStreamWireFormTwoEntries(t *testing.T) {
	_, chunks := burst(t, 2, 1)
	if len(chunks) != 1 {
		t.Fatalf("two back-to-back entries took %d chunks, want 1", len(chunks))
	}
	ch := chunks[0]
	if ch.Inner != 2 || !ch.Fin || ch.Seq != 0 {
		t.Errorf("chunk header = inner %d fin %v seq %d; want 2 true 0", ch.Inner, ch.Fin, ch.Seq)
	}
	// The chunk's framing: a 1-byte length and a 1-byte id/kind varint, then
	// the kind/fin byte and a 1-byte sequence varint (19 bytes in the fixed
	// 13-byte header and 6-byte sub-header it replaced).
	if ch.Header != 4 {
		t.Errorf("the chunk's framing took %d bytes, want 4", ch.Header)
	}
	const want = "" +
		"17" + "0d010c" + "726d69746573742e6974656d" + "0c0102" + "0400" + "080176" + // len 23: typedef 1 "rmitest.item"; struct 1, 2 fields: 0, "v"
		"08" + "0c0102" + "0402" + "080176" // len 8: struct 1, 2 fields: 1, "v"
	if got := hex.EncodeToString(ch.Payload); got != want {
		t.Errorf("stream bytes\n  %s, want\n  %s", got, want)
	}
}

// TestStreamHandlerErrorAfterEntries: a handler that fails after m entries —
// still sitting in their chunk when it returns — delivers the m entries,
// then the error.
func TestStreamHandlerErrorAfterEntries(t *testing.T) {
	const m = 3
	env := newStreamEnv(t, func(ctx context.Context, _ any, w *rmi.EntryWriter) error {
		for i := 0; i < m; i++ {
			if err := w.WriteEntry(streamItem{N: int64(i)}); err != nil {
				return err
			}
		}
		return errors.New("ran out of road")
	})
	sc := env.open(t)
	defer sc.Close()
	entries, err := readAll(t, sc)
	if len(entries) != m {
		t.Errorf("read %d entries before the error, want %d", len(entries), m)
	}
	if err == nil || !strings.Contains(err.Error(), "ran out of road") {
		t.Errorf("stream ended with %v, want the handler's error", err)
	}
	if _, again := sc.Next(); again != err {
		t.Errorf("Next after the error = %v, want it again", again)
	}
}

// TestStreamCloseMidBurst: the consumer closes while entries sit in a chunk
// with the linger timer armed. The producer learns of it — the flush that
// finds the stream canceled fails its next WriteEntry — and once everything
// is shut down no goroutine (a timer's included) is left.
func TestStreamCloseMidBurst(t *testing.T) {
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() {
		if !t.Failed() {
			clustertest.AssertGoroutinesReturn(t, baseline, 5*time.Second)
		}
	})
	wrote := make(chan struct{})
	closed := make(chan struct{})
	result := make(chan error, 1)
	env := newStreamEnv(t, func(ctx context.Context, _ any, w *rmi.EntryWriter) error {
		for i := 0; i < 3; i++ {
			if err := w.WriteEntry(streamItem{N: int64(i)}); err != nil {
				result <- err
				return err
			}
		}
		close(wrote) // three entries in the chunk, the timer armed
		<-closed
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if err := w.WriteEntry(streamItem{N: 99}); err != nil {
				result <- err
				return err
			}
			time.Sleep(time.Millisecond)
		}
		result <- nil
		return nil
	})
	sc := env.open(t)
	<-wrote
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	select {
	case err := <-result:
		if !errors.Is(err, transport.ErrStreamCanceled) {
			t.Errorf("producer of a closed stream stopped with %v, want transport.ErrStreamCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer never returned")
	}
	if _, err := sc.Next(); err == nil {
		t.Error("Next on a closed stream delivered an entry")
	}
}

// TestStreamEntryEncodeFailure: an entry that cannot be encoded fails its
// WriteEntry — and so the stream, after the entries before it — without
// leaving half a message or a type definition behind; the next stream starts
// from an empty type table like any other.
func TestStreamEntryEncodeFailure(t *testing.T) {
	var fail atomic.Bool
	env := newStreamEnv(t, func(ctx context.Context, _ any, w *rmi.EntryWriter) error {
		if err := w.WriteEntry(streamItem{N: 1}); err != nil {
			return err
		}
		if fail.Load() {
			if err := w.WriteEntry(unregisteredItem{N: 2}); err != nil {
				return err
			}
		}
		return w.WriteEntry(streamItem{N: 3})
	})
	fail.Store(true)
	sc := env.open(t)
	entries, err := readAll(t, sc)
	sc.Close()
	if len(entries) != 1 || err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("failing stream delivered %d entries then %v; want 1 and the encode error", len(entries), err)
	}
	fail.Store(false)
	before := len(env.tap.chunks(t))
	sc = env.open(t)
	entries, err = readAll(t, sc)
	sc.Close()
	if len(entries) != 2 || err != nil {
		t.Fatalf("fresh stream delivered %d entries then %v; want 2 and io.EOF", len(entries), err)
	}
	var stream []byte
	for _, ch := range env.tap.chunks(t)[before:] {
		stream = append(stream, ch.Payload...)
	}
	if n := bytes.Count(stream, []byte("rmitest.item")); n != 1 {
		t.Errorf("fresh stream names its entry type %d times, want once (its own definition)", n)
	}
}

// TestHostileLengthPrefixFailsTheStream: a serving peer that writes a length
// prefix of 2^47, or of 2^63, as its stream used to take the CLIENT down (an
// unrecoverable out-of-memory, a negative slice bound). It fails the stream.
func TestHostileLengthPrefixFailsTheStream(t *testing.T) {
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	var hostile []byte
	srv := transport.NewServer(
		func(context.Context, []byte) ([]byte, error) { return nil, errors.New("streams only") },
		transport.WithStreamHandler(func(_ context.Context, _ []byte, w *transport.StreamWriter) error {
			_, err := w.Write(hostile)
			return err
		}),
		transport.WithLogf(silentLogf))
	l, err := network.Listen("hostile")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	t.Cleanup(func() { _ = client.Close() })

	for _, prefix := range [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		hostile = prefix
		sc, err := client.CallStream(context.Background(), "hostile", "svc", nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = nextWithin(t, sc, 5*time.Second)
		var corrupt *wire.CorruptError
		if !errors.As(err, &corrupt) {
			t.Errorf("length prefix %x: Next = %v, want a *wire.CorruptError", prefix, err)
		}
		sc.Close()
	}
}
