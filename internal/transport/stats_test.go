package transport_test

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// recorded returns what tap's one connection wrote and read.
func recorded(t *testing.T, tap *transport.Recorder) (out, in []byte) {
	t.Helper()
	outs, ins := tap.Recorded()
	if len(outs) != 1 {
		t.Fatalf("%d connections dialed, want 1", len(outs))
	}
	return outs[0], ins[0]
}

// TestStatsCountWireBytes: the byte counters are what the connection carried,
// header for header. Plain calls, a handler error, a call chunked both ways
// and a response stream put request, response, error, chunk and credit frames
// on one tapped connection; the client's BytesOut and BytesIn must equal the
// bytes it wrote and read, and the server's the same bytes from its side.
func TestStatsCountWireBytes(t *testing.T) {
	t.Cleanup(transport.SetStreamTuningForTest(1<<10, 300, 1<<10))
	sim := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = sim.Close() })
	l, err := sim.Listen("counted")
	if err != nil {
		t.Fatal(err)
	}
	handler := func(ctx context.Context, p []byte) ([]byte, error) {
		if string(p) == "fail" {
			return nil, io.ErrUnexpectedEOF
		}
		return echoHandler(ctx, p)
	}
	stream := func(_ context.Context, p []byte, w *transport.StreamWriter) error {
		for i := 0; i < 40; i++ {
			if _, err := w.Write(bytes.Repeat(p, 50)); err != nil {
				return err
			}
		}
		return nil
	}
	srvSt := transport.NewStats(stats.New())
	srv := transport.NewServer(handler, transport.WithLogf(silentLogf), transport.WithStreamHandler(stream), transport.WithStats(srvSt))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	tap := &transport.Recorder{Network: sim}
	c := transport.NewClient(tap, "counted")
	t.Cleanup(func() { _ = c.Close() })
	st := transport.NewStats(stats.New())
	c.SetStats(st)

	ctx := context.Background()
	for i := 0; i < 20; i++ { // ids past 15 take a second header byte
		if _, err := c.Call(ctx, bytes.Repeat([]byte("x"), i*7)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Call(ctx, []byte("fail")); err == nil {
		t.Fatal("the failing handler's call succeeded")
	}
	big := bytes.Repeat([]byte("0123456789"), 400) // past maxDirectPayload: chunked each way
	if got, err := c.Call(ctx, big); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("chunked call: %d bytes, %v", len(got), err)
	}
	r, err := c.CallStream(ctx, []byte("stream"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, r); err != nil || n != 40*50*6 {
		t.Fatalf("stream: %d bytes, %v", n, err)
	}
	_ = r.Close()

	out, in := recorded(t, tap)
	seen := map[byte]int{}
	for _, b := range [][]byte{out, in} {
		frames, err := transport.DecodeFrames(b)
		if err != nil {
			t.Fatalf("recorded bytes: %v", err)
		}
		for _, f := range frames {
			seen[f.Kind]++
			if got := f.SizeAs(f.ID); got != f.Header+len(f.Payload) {
				t.Errorf("kind %d frame %d: SizeAs its own id = %d, it took %d B", f.Kind, f.ID, got, f.Header+len(f.Payload))
			}
		}
	}
	for kind, name := range map[byte]string{
		transport.KindRequest: "request", transport.KindRespOK: "response", transport.KindRespErr: "error",
		transport.KindChunk: "chunk", transport.KindCredit: "credit", transport.KindStreamReq: "stream request",
	} {
		if seen[kind] == 0 {
			t.Errorf("no %s frame crossed the connection", name)
		}
	}

	// Trailing credit grants may still be in flight when the last call
	// returns: wait for the counters to reach what the tap recorded.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, in := recorded(t, tap)
		lines := []struct {
			name      string
			got, want uint64
		}{
			{"client BytesOut", st.BytesOut.Get(), uint64(len(out))},
			{"client BytesIn", st.BytesIn.Get(), uint64(len(in))},
			{"server BytesIn", srvSt.BytesIn.Get(), uint64(len(out))},
			{"server BytesOut", srvSt.BytesOut.Get(), uint64(len(in))},
		}
		settled := true
		for _, l := range lines {
			settled = settled && l.got == l.want
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			for _, l := range lines {
				if l.got != l.want {
					t.Errorf("%s = %d, the connection carried %d", l.name, l.got, l.want)
				}
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}
