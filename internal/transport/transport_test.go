package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

func silentLogf(string, ...any) {}

// startServer serves handler at endpoint on a fresh instant network.
func startServer(t *testing.T, endpoint string, handler transport.Handler) *netsim.Network {
	t.Helper()
	n := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = n.Close() })
	l, err := n.Listen(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(handler, transport.WithLogf(silentLogf))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return n
}

func echoHandler(_ context.Context, payload []byte) ([]byte, error) {
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, nil
}

func TestCallRoundTrip(t *testing.T) {
	n := startServer(t, "echo", echoHandler)
	c := transport.NewClient(n, "echo")
	defer c.Close()
	got, err := c.Call(context.Background(), []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	// Slow handler for short payloads, fast for long ones: forces responses
	// out of order and exercises id-based correlation.
	handler := func(_ context.Context, p []byte) ([]byte, error) {
		if len(p) < 4 {
			time.Sleep(20 * time.Millisecond)
		}
		return echoHandler(context.Background(), p)
	}
	n := startServer(t, "mux", handler)
	c := transport.NewClient(n, "mux")
	defer c.Close()

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(i)}, i+1)
			got, err := c.Call(context.Background(), payload)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payload) {
				errs <- fmt.Errorf("worker %d: got %v want %v", i, got, payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	handler := func(context.Context, []byte) ([]byte, error) {
		return nil, errors.New("boom at dispatch")
	}
	n := startServer(t, "err", handler)
	c := transport.NewClient(n, "err")
	defer c.Close()
	_, err := c.Call(context.Background(), []byte("x"))
	var he *transport.HandlerError
	if !errors.As(err, &he) {
		t.Fatalf("got %v (%T), want *HandlerError", err, err)
	}
	if he.Msg != "boom at dispatch" || he.Endpoint != "err" {
		t.Fatalf("got %+v", he)
	}
}

func TestCallContextCancel(t *testing.T) {
	blocked := make(chan struct{})
	handler := func(ctx context.Context, p []byte) ([]byte, error) {
		close(blocked)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	n := startServer(t, "slow", handler)
	c := transport.NewClient(n, "slow")
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, []byte("x"))
		done <- err
	}()
	<-blocked
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestDialFailure(t *testing.T) {
	n := netsim.New(netsim.Instant)
	defer n.Close()
	c := transport.NewClient(n, "missing")
	defer c.Close()
	if _, err := c.Call(context.Background(), []byte("x")); err == nil {
		t.Fatal("call to unbound endpoint succeeded")
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	started := make(chan struct{})
	handler := func(ctx context.Context, p []byte) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	n := startServer(t, "hang", handler)
	c := transport.NewClient(n, "hang")
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), []byte("x"))
		done <- err
	}()
	<-started
	_ = c.Close()
	if err := <-done; err == nil {
		t.Fatal("pending call survived client close")
	}
	if _, err := c.Call(context.Background(), []byte("x")); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call after close: got %v, want ErrClosed", err)
	}
}

func TestServerCloseFailsPendingAndRedialWorks(t *testing.T) {
	n := netsim.New(netsim.Instant)
	defer n.Close()
	l, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered: the handler may get here before the test waits, and its
	// send does not block.
	started := make(chan struct{}, 1)
	srv := transport.NewServer(func(ctx context.Context, p []byte) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}, transport.WithLogf(silentLogf))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}

	c := transport.NewClient(n, "svc")
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), []byte("x"))
		done <- err
	}()
	<-started
	_ = srv.Close()
	if err := <-done; err == nil {
		t.Fatal("pending call survived server close")
	}

	// A new server on the same endpoint: the client must redial.
	l2, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := transport.NewServer(echoHandler, transport.WithLogf(silentLogf))
	if err := srv2.Serve(l2); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got, err := c.Call(context.Background(), []byte("again"))
	if err != nil {
		t.Fatalf("redial failed: %v", err)
	}
	if string(got) != "again" {
		t.Fatalf("got %q", got)
	}
}

// TestSendAfterPeerCloseRedialsOnce: the server closes its side of the
// client's connection — it crashed — and a new server takes the endpoint;
// the client sends at once, mostly before its read loop noticed the close.
// Such a send fails before any byte of the request left, so the client
// sends it once more on a new connection: every call succeeds, and each
// request runs exactly once.
func TestSendAfterPeerCloseRedialsOnce(t *testing.T) {
	n := netsim.New(netsim.Instant)
	defer n.Close()
	var runs atomic.Int64
	handler := func(_ context.Context, p []byte) ([]byte, error) {
		runs.Add(1)
		return echoHandler(nil, p)
	}
	serve := func() *transport.Server {
		l, err := n.Listen("svc")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(handler, transport.WithLogf(silentLogf))
		if err := srv.Serve(l); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := serve()
	c := transport.NewClient(n, "svc")
	defer c.Close()
	const calls = 1000
	for i := range calls {
		payload := []byte{byte(i), byte(i >> 8)}
		if i > 0 {
			_ = srv.Close()
			srv = serve()
		}
		got, err := c.Call(context.Background(), payload)
		if err != nil {
			t.Fatalf("call %d after the server's close: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("call %d corrupted", i)
		}
	}
	_ = srv.Close()
	if got := runs.Load(); got != calls {
		t.Fatalf("%d calls ran %d times", calls, got)
	}
}

func TestPoolReusesClients(t *testing.T) {
	n := startServer(t, "pooled", echoHandler)
	p := transport.NewPool(n)
	defer p.Close()
	c1, err := p.Get("pooled")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get("pooled")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pool created two clients for one endpoint")
	}
	if _, err := p.Call(context.Background(), "pooled", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	if _, err := p.Get("pooled"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestLargePayload(t *testing.T) {
	n := startServer(t, "big", echoHandler)
	c := transport.NewClient(n, "big")
	defer c.Close()
	payload := bytes.Repeat([]byte{0xAB}, 4<<20)
	got, err := c.Call(context.Background(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large payload corrupted")
	}
}

// A payload past MaxFrameSize no longer trips ErrTooLarge: sendMessage
// splits it into frameChunk frames and the receiver reassembles, in both
// directions (the echoed response is oversized too). This pins the lifted
// single-frame ceiling at the real production constants, so it moves
// >128 MiB through netsim and stays out of -short runs.
func TestOversizedPayloadChunked(t *testing.T) {
	if testing.Short() {
		t.Skip("moves >128 MiB; skipped under -short (covered at reduced scale by TestChunkedCallRoundTrip)")
	}
	n := startServer(t, "huge", echoHandler)
	c := transport.NewClient(n, "huge")
	defer c.Close()
	payload := make([]byte, transport.MaxFrameSize+1)
	payload[0], payload[len(payload)-1] = 0xA5, 0x5A
	got, err := c.Call(context.Background(), payload)
	if err != nil {
		t.Fatalf("oversized call: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("oversized payload corrupted in chunked transfer")
	}
}

func TestServeTwiceFails(t *testing.T) {
	n := netsim.New(netsim.Instant)
	defer n.Close()
	l1, _ := n.Listen("a")
	l2, _ := n.Listen("b")
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf))
	defer srv.Close()
	if err := srv.Serve(l1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l2); err == nil {
		t.Fatal("second Serve succeeded")
	}
}

func TestTCPNetwork(t *testing.T) {
	var network transport.TCPNetwork
	l, err := network.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := transport.NewClient(network, l.Addr().String())
	defer c.Close()
	got, err := c.Call(context.Background(), []byte("over tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
}

func TestManySequentialCalls(t *testing.T) {
	n := startServer(t, "seq", echoHandler)
	c := transport.NewClient(n, "seq")
	defer c.Close()
	for i := 0; i < 200; i++ {
		payload := []byte{byte(i), byte(i >> 8)}
		got, err := c.Call(context.Background(), payload)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("call %d corrupted", i)
		}
	}
}
