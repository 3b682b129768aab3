package netsim

import (
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// connPair creates the two endpoints of a simulated full-duplex connection
// between the source host src (the dialer; "" for un-attributed clients) and
// the destination endpoint dst. Each direction is an independent link with
// its own serialization horizon, so concurrent traffic in both directions
// does not contend for bandwidth (full duplex, like switched Ethernet and
// unlike shared-medium Wi-Fi; the request/response pattern of RMI never
// overlaps directions anyway).
func (n *Network) connPair(src, dst string) (client, server net.Conn) {
	c2s := newLink(n.profile, n.clock)
	s2c := newLink(n.profile, n.clock)
	clientName := src
	if clientName == "" {
		clientName = "client->" + dst
	}
	cl := &conn{
		net: n, out: pair{src, dst},
		rd: s2c, wr: c2s,
		local: simAddr(clientName), remote: simAddr(dst),
	}
	sv := &conn{
		net: n, out: pair{dst, src},
		rd: c2s, wr: s2c,
		local: simAddr(dst), remote: simAddr(clientName),
	}
	return cl, sv
}

// link is one direction of a simulated connection: a FIFO of byte chunks,
// each stamped with the simulated time at which it becomes visible to the
// reader. Delivery time models both transmission (bytes/bandwidth, which
// serializes back-to-back writes) and propagation (one-way latency). All
// time flows through the owning network's Clock — there is no direct use of
// the time package on this path, so a VirtualClock fully controls delivery.
type link struct {
	mu   sync.Mutex
	cond *sync.Cond

	profile  Profile
	clock    Clock
	queue    []chunk
	closed   bool
	nextFree time.Time // when the link finishes transmitting queued bytes

	readDeadline time.Time
}

type chunk struct {
	data []byte
	due  time.Time
}

func newLink(p Profile, c Clock) *link {
	l := &link{profile: p, clock: c}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// write enqueues b for delayed delivery, with extra added to the one-way
// propagation delay (injected link faults). It never blocks: the link models
// an unbounded sender-side socket buffer, which is accurate enough for
// request/response workloads whose outstanding data is bounded by design.
func (l *link) write(b []byte, extra time.Duration) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, io.ErrClosedPipe
	}
	data := make([]byte, len(b))
	copy(data, b)
	// Instant links (no latency, no pacing, no injected delay) skip the
	// clock entirely: a zero due time means "ready now", so readers never
	// arm timers and writers never query the clock. Keeps the instant
	// profile measuring middleware cost, not simulator cost.
	if l.profile.RTT == 0 && l.profile.BitsPerSecond <= 0 && extra == 0 {
		l.queue = append(l.queue, chunk{data: data})
		l.cond.Broadcast()
		return len(b), nil
	}
	now := l.clock.Now()
	start := l.nextFree
	if start.Before(now) {
		start = now
	}
	txEnd := start.Add(l.profile.txTime(len(b)))
	l.nextFree = txEnd
	l.queue = append(l.queue, chunk{data: data, due: txEnd.Add(l.profile.oneWay() + extra)})
	l.cond.Broadcast()
	return len(b), nil
}

// read blocks until data is due, the link closes (EOF after drain), or the
// read deadline passes.
func (l *link) read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if !l.readDeadline.IsZero() && !l.clock.Now().Before(l.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		if len(l.queue) > 0 {
			head := &l.queue[0]
			if head.due.IsZero() || !head.due.After(l.clock.Now()) {
				n := copy(p, head.data)
				if n == len(head.data) {
					l.queue = l.queue[1:]
					if len(l.queue) == 0 {
						l.queue = nil
					}
				} else {
					head.data = head.data[n:]
				}
				return n, nil
			}
			l.waitUntil(head.due)
			continue
		}
		if l.closed {
			return 0, io.EOF
		}
		l.waitUntil(time.Time{})
	}
}

// waitUntil sleeps on the condition variable, waking no later than `due`
// (or the read deadline, whichever is earlier). Zero due means wait for a
// broadcast only. Caller holds l.mu.
func (l *link) waitUntil(due time.Time) {
	wake := due
	if !l.readDeadline.IsZero() && (wake.IsZero() || l.readDeadline.Before(wake)) {
		wake = l.readDeadline
	}
	if wake.IsZero() {
		l.cond.Wait()
		return
	}
	d := wake.Sub(l.clock.Now())
	if d <= 0 {
		return
	}
	// The timer callback MUST take the lock before broadcasting: a bare
	// Broadcast could fire in the window between arming the timer and the
	// caller parking in Wait, and with request/response traffic no later
	// write would ever re-signal the link (lost wakeup, permanent hang).
	// Holding the lock serializes the broadcast after the Wait unlock.
	t := l.clock.AfterFunc(d, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	l.cond.Wait()
	t.Stop()
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// reset closes the link abortively: queued, not-yet-delivered chunks are
// DISCARDED (a real RST drops undelivered data), so a fault-killed
// connection can never execute a delayed in-flight request after its
// failure was reported — which would reorder effects behind the next
// connection's traffic.
func (l *link) reset() {
	l.mu.Lock()
	l.closed = true
	l.queue = nil
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *link) setReadDeadline(t time.Time) {
	l.mu.Lock()
	l.readDeadline = t
	l.cond.Broadcast()
	l.mu.Unlock()
}

// conn is one endpoint of a simulated connection. out is the directed link
// identity of its writes, consulted against the network's fault state.
type conn struct {
	net    *Network
	out    pair
	rd     *link
	wr     *link
	local  net.Addr
	remote net.Addr

	closeOnce sync.Once
}

var _ net.Conn = (*conn)(nil)

func (c *conn) Read(p []byte) (int, error) { return c.rd.read(p) }

// Write consults the network's fault state first: a partitioned or crashed
// direction (or a drop-roll on a lossy link) resets the whole connection —
// the writer gets an error, the peer EOF — which is how stream transports
// experience loss; otherwise the chunk is delivered with any injected extra
// latency.
func (c *conn) Write(p []byte) (int, error) {
	extra, kill := c.net.writeFault(c.out)
	if kill {
		c.reset()
		return 0, fmt.Errorf("netsim: connection %s->%s reset by fault", c.out.src, c.out.dst)
	}
	return c.wr.write(p, extra)
}

// Close shuts both directions gracefully: the peer sees EOF after draining
// in-flight data; local reads unblock with EOF at once, also while data
// bound for them is still in flight, which no one can read any more.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.close()
		c.rd.reset()
		c.net.unregister(c)
	})
	return nil
}

// reset shuts both directions abortively (fault kills): undelivered data is
// dropped on the floor, like a connection reset, never executed late.
func (c *conn) reset() {
	c.closeOnce.Do(func() {
		c.wr.reset()
		c.rd.reset()
		c.net.unregister(c)
	})
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline and SetReadDeadline interpret t on the NETWORK'S clock: under
// the default RealClock a wall-clock deadline behaves as usual, but under a
// VirtualClock callers must derive deadlines from Clock.Now() — a wall time
// compared against the virtual epoch lies decades in the future and never
// fires before simulated traffic. No in-tree transport code sets conn
// deadlines today; this note guards the first one added under chaos.
func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline is a no-op: simulated writes never block.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }
