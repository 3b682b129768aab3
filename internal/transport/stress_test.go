package transport_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// dialCounter wraps a Network and counts dials, to observe redials.
type dialCounter struct {
	inner transport.Network
	dials atomic.Int32
}

func (d *dialCounter) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	d.dials.Add(1)
	return d.inner.Dial(ctx, endpoint)
}

func (d *dialCounter) Listen(endpoint string) (net.Listener, error) {
	return d.inner.Listen(endpoint)
}

// Concurrent Calls across a forced redial mid-burst: no response
// may be misdelivered (every success echoes its own payload), every call
// issued on the dying connection fails exactly once with the connection
// error (observable as: no call hangs, no call double-settles, no pooled
// record is corrupted), and traffic resumes on the new connection. Run
// under -race in CI.
func TestClientRedialStress(t *testing.T) {
	sim := netsim.New(netsim.Instant)
	defer sim.Close()

	serve := func() *transport.Server {
		l, err := sim.Listen("stress")
		if err != nil {
			t.Fatal(err)
		}
		srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf))
		if err := srv.Serve(l); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := serve()

	c := transport.NewClient(sim, "stress")
	defer c.Close()

	const workers = 8
	const callsPerWorker = 300
	var failures atomic.Int32
	var successes atomic.Int32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 16)
			for i := 0; i < callsPerWorker; i++ {
				binary.BigEndian.PutUint64(payload[:8], uint64(w))
				binary.BigEndian.PutUint64(payload[8:], uint64(i))
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				got, err := c.Call(ctx, payload)
				cancel()
				if err != nil {
					// Connection failures are expected mid-restart; a
					// timeout would mean a lost or double-settled call.
					if errors.Is(err, context.DeadlineExceeded) {
						errCh <- err
						return
					}
					failures.Add(1)
					continue
				}
				if !bytes.Equal(got, payload) {
					errCh <- errors.New("misdelivered response")
					return
				}
				successes.Add(1)
			}
		}(w)
	}

	// Kill the server twice mid-burst; each restart forces every in-flight
	// call to fail with the connection error and the client to redial.
	for k := 0; k < 2; k++ {
		time.Sleep(30 * time.Millisecond)
		_ = srv.Close()
		srv = serve()
	}
	wg.Wait()
	_ = srv.Close()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if successes.Load() == 0 {
		t.Fatal("no call succeeded")
	}
	if failures.Load() == 0 {
		t.Log("no call overlapped the restarts; stress window missed (not a failure)")
	}
	t.Logf("successes=%d connection-failures=%d", successes.Load(), failures.Load())
}

// TestClientCrashFaultMidFlush races the netsim crash fault against a burst
// of concurrent in-flight calls: the server endpoint goes down mid-burst
// (connections reset, dials refused) and comes back, twice. The pending-
// call table must fail each in-flight call EXACTLY once — observable as: no
// call hangs past its deadline (a lost record), no response is misdelivered
// (a double-settled or recycled record would corrupt the pooled channels),
// and traffic resumes through a redial after each restart. Unlike
// TestClientRedialStress this kills the server at the network layer while
// the transport.Server object survives, which is exactly the shape the
// chaos harness injects. Run under -race in CI.
func TestClientCrashFaultMidFlush(t *testing.T) {
	sim := netsim.New(netsim.Instant)
	defer sim.Close()
	l, err := sim.Listen("crashy")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(echoHandler, transport.WithLogf(silentLogf))
	if err := srv.Serve(l); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n := &dialCounter{inner: sim}
	c := transport.NewClient(n, "crashy")
	defer c.Close()

	const workers = 8
	var failures, successes, postRestart atomic.Int32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	restarted := make(chan struct{})
	stop := make(chan struct{})

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := make([]byte, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				binary.BigEndian.PutUint64(payload[:8], uint64(w))
				binary.BigEndian.PutUint64(payload[8:], uint64(i))
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				got, err := c.Call(ctx, payload)
				cancel()
				if err != nil {
					// Reset connections and refused dials are the crash
					// surfacing; a deadline means a call settled zero times.
					if errors.Is(err, context.DeadlineExceeded) {
						errCh <- errors.New("call hung: pending record lost")
						return
					}
					failures.Add(1)
					continue
				}
				if !bytes.Equal(got, payload) {
					errCh <- errors.New("misdelivered response: pending record double-used")
					return
				}
				successes.Add(1)
				select {
				case <-restarted:
					postRestart.Add(1)
				default:
				}
			}
		}(w)
	}

	// Crash the endpoint twice mid-burst; each cycle resets every live
	// connection and refuses dials until the restart. The burst keeps
	// running until recovery after the final restart is observed.
	for k := 0; k < 2; k++ {
		time.Sleep(15 * time.Millisecond)
		sim.Crash("crashy")
		time.Sleep(5 * time.Millisecond)
		sim.Restart("crashy")
		if k == 1 {
			close(restarted)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for postRestart.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if successes.Load() == 0 {
		t.Fatal("no call succeeded")
	}
	if postRestart.Load() == 0 {
		t.Fatal("no call succeeded after the final restart: client never recovered")
	}
	if failures.Load() == 0 {
		t.Log("no call overlapped the crash windows; stress window missed (not a failure)")
	}
	if d := n.dials.Load(); failures.Load() > 0 && d < 2 {
		t.Fatalf("crash cycles produced failures but only %d dial(s): no redial happened", d)
	}
	t.Logf("successes=%d crash-failures=%d dials=%d", successes.Load(), failures.Load(), n.dials.Load())
}

// A burst of concurrent writers through one frame writer must deliver every
// frame intact (the coalesced writev path preserves framing).
func TestCoalescedFramesIntact(t *testing.T) {
	n := startServer(t, "coalesce", echoHandler)
	c := transport.NewClient(n, "coalesce")
	defer c.Close()

	const workers = 32
	const reps = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reps; i++ {
				payload := bytes.Repeat([]byte{byte(w)}, (w+i)%97+1)
				got, err := c.Call(context.Background(), payload)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errCh <- errors.New("frame corrupted under coalescing")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
