package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func dialPair(t *testing.T, p Profile) (client, server net.Conn) {
	t.Helper()
	n := New(p)
	t.Cleanup(func() { _ = n.Close() })
	l, err := n.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, err = l.Accept()
	}()
	client, derr := n.Dial(context.Background(), "srv")
	if derr != nil {
		t.Fatal(derr)
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

func TestInstantRoundTrip(t *testing.T) {
	c, s := dialPair(t, Instant)
	go func() {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(s, buf); err != nil {
			return
		}
		_, _ = s.Write(buf)
	}()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
}

func TestLatencyApplied(t *testing.T) {
	p := Profile{Name: "t", RTT: 40 * time.Millisecond}
	c, s := dialPair(t, p)
	go func() {
		buf := make([]byte, 1)
		if _, err := io.ReadFull(s, buf); err != nil {
			return
		}
		_, _ = s.Write(buf)
	}()
	start := time.Now()
	_, _ = c.Write([]byte{1})
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < p.RTT {
		t.Fatalf("round trip took %v, want >= %v", elapsed, p.RTT)
	}
	if elapsed > p.RTT*5 {
		t.Fatalf("round trip took %v, want close to %v", elapsed, p.RTT)
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 1 MiB at 100 Mbit/s ≈ 84 ms of transmission time.
	p := Profile{Name: "t", BitsPerSecond: 100e6}
	c, s := dialPair(t, p)
	payload := make([]byte, 1<<20)
	go func() {
		_, _ = c.Write(payload)
	}()
	start := time.Now()
	if _, err := io.ReadFull(s, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	want := p.txTime(len(payload))
	if elapsed < want {
		t.Fatalf("transfer took %v, want >= %v", elapsed, want)
	}
	if elapsed > 4*want {
		t.Fatalf("transfer took %v, want close to %v", elapsed, want)
	}
}

func TestFIFOOrdering(t *testing.T) {
	c, s := dialPair(t, Profile{Name: "t", RTT: 2 * time.Millisecond, BitsPerSecond: 1e9})
	const n = 64
	go func() {
		for i := 0; i < n; i++ {
			_, _ = c.Write([]byte{byte(i)})
		}
	}()
	buf := make([]byte, n)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if buf[i] != byte(i) {
			t.Fatalf("byte %d = %d, out of order", i, buf[i])
		}
	}
}

func TestEOFAfterDrain(t *testing.T) {
	c, s := dialPair(t, Instant)
	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatalf("in-flight data lost on close: %v", err)
	}
	if string(buf) != "tail" {
		t.Fatalf("got %q", buf)
	}
	if _, err := s.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want EOF", err)
	}
}

// TestCloseUnblocksReaderOfDelayedData: a reader waiting for a chunk that is
// due an hour from now returns EOF as soon as its own side closes.
func TestCloseUnblocksReaderOfDelayedData(t *testing.T) {
	c, s := dialPair(t, Profile{RTT: 2 * time.Hour})
	if _, err := s.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park on the chunk
	_ = c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("got %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the reader waiting for the delayed chunk")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	c, _ := dialPair(t, Instant)
	_ = c.Close()
	if _, err := c.Write([]byte{1}); err == nil {
		t.Fatal("write after close succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	c, _ := dialPair(t, Instant)
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline ignored")
	}
	// Clearing the deadline re-enables reads.
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownEndpoint(t *testing.T) {
	n := New(Instant)
	defer n.Close()
	if _, err := n.Dial(context.Background(), "nobody"); err == nil {
		t.Fatal("dial to unbound endpoint succeeded")
	}
}

func TestDuplicateListen(t *testing.T) {
	n := New(Instant)
	defer n.Close()
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestListenerCloseUnblocksAcceptAndFreesName(t *testing.T) {
	n := New(Instant)
	defer n.Close()
	l, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	_ = l.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("got %v, want net.ErrClosed", err)
	}
	if _, err := n.Listen("a"); err != nil {
		t.Fatalf("name not freed after close: %v", err)
	}
}

func TestNetworkCloseRefusesDialAndListen(t *testing.T) {
	n := New(Instant)
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	_ = n.Close()
	if _, err := n.Dial(context.Background(), "a"); err == nil {
		t.Fatal("dial after network close succeeded")
	}
	if _, err := n.Listen("b"); err == nil {
		t.Fatal("listen after network close succeeded")
	}
}

func TestDialContextCancel(t *testing.T) {
	n := New(Instant)
	defer n.Close()
	l, err := n.Listen("busy")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the backlog so Dial blocks.
	for i := 0; i < cap(l.(*listener).backlog); i++ {
		if _, err := n.Dial(context.Background(), "busy"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := n.Dial(ctx, "busy"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context deadline", err)
	}
}

func TestScaledProfile(t *testing.T) {
	p := Wireless.Scaled(10)
	if p.RTT != Wireless.RTT/10 {
		t.Errorf("RTT = %v", p.RTT)
	}
	if p.BitsPerSecond != Wireless.BitsPerSecond*10 {
		t.Errorf("bw = %v", p.BitsPerSecond)
	}
	if got := Wireless.Scaled(1); got != Wireless {
		t.Errorf("Scaled(1) changed profile: %+v", got)
	}
	if got := Wireless.Scaled(0); got != Wireless {
		t.Errorf("Scaled(0) changed profile: %+v", got)
	}
}

func TestTxTime(t *testing.T) {
	p := Profile{BitsPerSecond: 8e6} // 1 byte per microsecond
	if got := p.txTime(1000); got != time.Millisecond {
		t.Errorf("txTime(1000) = %v, want 1ms", got)
	}
	if got := Instant.txTime(1 << 30); got != 0 {
		t.Errorf("infinite bandwidth txTime = %v, want 0", got)
	}
	if got := p.txTime(0); got != 0 {
		t.Errorf("txTime(0) = %v, want 0", got)
	}
}

func TestAddrs(t *testing.T) {
	c, s := dialPair(t, Instant)
	if c.RemoteAddr().String() != "srv" {
		t.Errorf("client remote = %q", c.RemoteAddr())
	}
	if s.LocalAddr().String() != "srv" {
		t.Errorf("server local = %q", s.LocalAddr())
	}
	if c.LocalAddr().Network() != "sim" {
		t.Errorf("network = %q", c.LocalAddr().Network())
	}
}

// TestManyRoundTripsNoLostWakeup is a regression test for a lost-wakeup
// race in the link's timer-based wait: the timer's broadcast could fire
// before the reader parked, leaving a request/response exchange hung
// forever. Thousands of tight round trips through short-latency links make
// the window hit reliably enough to catch regressions; the watchdog turns
// a hang into a failure.
func TestManyRoundTripsNoLostWakeup(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test (~7s); skipped in -short")
	}
	c, s := dialPair(t, Profile{Name: "t", RTT: 200 * time.Microsecond, BitsPerSecond: 1e9})
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				done <- nil // client closed at the end
				return
			}
			if _, err := s.Write(buf); err != nil {
				done <- err
				return
			}
		}
	}()
	finished := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		for i := 0; i < 3000; i++ {
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				finished <- err
				return
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				finished <- err
				return
			}
		}
		finished <- nil
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("round-trip loop hung: lost wakeup")
	}
	_ = c.Close()
	<-done
}

func TestPartialReads(t *testing.T) {
	c, s := dialPair(t, Instant)
	if _, err := c.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	var got []byte
	for len(got) < 6 {
		n, err := s.Read(one)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, one[:n]...)
	}
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
}
