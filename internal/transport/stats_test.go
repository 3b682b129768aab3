package transport_test

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/transport"
)

// tapNetwork records the bytes every connection dialed through it wrote and
// read.
type tapNetwork struct {
	transport.Network
	mu      sync.Mutex
	out, in bytes.Buffer
}

func (n *tapNetwork) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	c, err := n.Network.Dial(ctx, endpoint)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, n: n}, nil
}

func (n *tapNetwork) recorded() (out, in []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return bytes.Clone(n.out.Bytes()), bytes.Clone(n.in.Bytes())
}

type tapConn struct {
	net.Conn
	n *tapNetwork
}

func (c *tapConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.mu.Lock()
	c.n.out.Write(p[:k])
	c.n.mu.Unlock()
	return k, err
}

func (c *tapConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.mu.Lock()
	c.n.in.Write(p[:k])
	c.n.mu.Unlock()
	return k, err
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

	tap := &tapNetwork{Network: sim}
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

	out, in := tap.recorded()
	seen := map[byte]int{}
	for _, b := range [][]byte{out, in} {
		frames, err := transport.DecodeFrames(b)
		if err != nil {
			t.Fatalf("recorded bytes: %v", err)
		}
		for _, f := range frames {
			seen[f.Kind]++
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
		out, in := tap.recorded()
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
