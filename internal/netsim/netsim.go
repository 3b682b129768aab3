// Package netsim provides an in-memory network with configurable propagation
// latency and bandwidth, standing in for the two physical testbeds used in
// the paper's evaluation (a 1 Gbps / 1 ms LAN and a 48 Mbps / 252 ms wireless
// link between two Windows XP machines, §5.2).
//
// Every quantitative effect in the paper's Figures 5-13 is a function of
// round-trip latency, link bandwidth, and per-call marshalling cost. The
// simulator injects exactly the first two; the codec supplies the third. So
// the figures' shapes (linear growth for RMI, flat curves for BRMI, the
// crossover points) are preserved even though the absolute milliseconds
// belong to 2009 hardware we do not have.
//
// Profiles can be scaled down (Profile.Scaled) to keep wall-clock benchmark
// time reasonable on the high-latency wireless profile; scaling divides both
// latency and the per-byte transmission time, which multiplies every data
// point by the same constant and therefore preserves shape.
package netsim

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Profile describes a simulated link.
type Profile struct {
	// Name labels the profile in benchmark output.
	Name string
	// RTT is the round-trip propagation delay. Each direction incurs RTT/2.
	RTT time.Duration
	// BitsPerSecond is the link bandwidth; 0 means infinite (no pacing).
	BitsPerSecond float64
}

// The paper's two experimental configurations (§5.2) plus an instantaneous
// profile for unit tests.
var (
	// Instant has no latency and infinite bandwidth.
	Instant = Profile{Name: "instant"}
	// LAN mirrors configuration 1: dedicated 1 Gbps, 1 ms latency network.
	LAN = Profile{Name: "lan", RTT: time.Millisecond, BitsPerSecond: 1e9}
	// Wireless mirrors configuration 2: 48 Mbps, 252 ms latency wireless
	// network (the figures label the link 48 Mbps; the text says 54 Mbps —
	// we follow the figures).
	Wireless = Profile{Name: "wireless", RTT: 252 * time.Millisecond, BitsPerSecond: 48e6}
	// WAN models a cross-datacenter link (no counterpart in the paper, which
	// measured a single client/server pair): 80 ms RTT, 100 Mbps — slow
	// enough that a test can tell a call that waits on the network from one
	// that does not.
	WAN = Profile{Name: "wan", RTT: 80 * time.Millisecond, BitsPerSecond: 100e6}
)

// Scaled returns a copy of p with latency divided by factor and bandwidth
// multiplied by factor, shrinking every time component uniformly. factor <= 1
// returns p unchanged.
func (p Profile) Scaled(factor int) Profile {
	if factor <= 1 {
		return p
	}
	q := p
	q.Name = fmt.Sprintf("%s/%d", p.Name, factor)
	q.RTT = p.RTT / time.Duration(factor)
	if p.BitsPerSecond > 0 {
		q.BitsPerSecond = p.BitsPerSecond * float64(factor)
	}
	return q
}

// oneWay returns the one-direction propagation delay.
func (p Profile) oneWay() time.Duration { return p.RTT / 2 }

// txTime returns the serialization (transmission) delay for n bytes.
func (p Profile) txTime(n int) time.Duration {
	if p.BitsPerSecond <= 0 || n == 0 {
		return 0
	}
	return time.Duration(float64(n) * 8 / p.BitsPerSecond * float64(time.Second))
}

// Network is an in-memory Network implementation (in the sense of
// transport.Network) whose connections exhibit the profile's latency and
// bandwidth. Endpoints are arbitrary names.
//
// Beyond the healthy-path profile, a Network carries a fault surface
// (faults.go): directional partitions, per-link latency/jitter/loss,
// connection drops, and endpoint crashes, all injectable at runtime. All
// temporal behaviour routes through the network's Clock (clock.go), so a
// VirtualClock makes high-latency fault scenarios cheap and host-
// scheduling-independent.
type Network struct {
	profile Profile
	clock   Clock
	faults  *faultState

	mu        sync.Mutex
	listeners map[string]*listener
	closed    bool
}

// Option configures a Network.
type Option func(*Network)

// WithClock substitutes the network's time source (default: RealClock).
func WithClock(c Clock) Option {
	return func(n *Network) { n.clock = c }
}

// WithFaultSeed seeds the RNG behind probabilistic link faults (jitter
// draws, drop rolls). The default seed is 1; chaos harnesses pass their run
// seed so fault outcomes are reproducible.
func WithFaultSeed(seed int64) Option {
	return func(n *Network) { n.faults = newFaultState(seed) }
}

// New creates a network with the given link profile.
func New(profile Profile, opts ...Option) *Network {
	n := &Network{
		profile:   profile,
		clock:     RealClock,
		faults:    newFaultState(1),
		listeners: make(map[string]*listener),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Clock returns the network's time source.
func (n *Network) Clock() Clock { return n.clock }

// Profile returns the network's link profile.
func (n *Network) Profile() Profile { return n.profile }

// Listen implements transport.Network.
func (n *Network) Listen(endpoint string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, net.ErrClosed
	}
	if _, ok := n.listeners[endpoint]; ok {
		return nil, fmt.Errorf("netsim: endpoint %q already bound", endpoint)
	}
	l := &listener{
		network:  n,
		endpoint: endpoint,
		backlog:  make(chan net.Conn, 16),
		done:     make(chan struct{}),
	}
	n.listeners[endpoint] = l
	return l, nil
}

// Dial implements transport.Network. Un-attributed dials have source
// identity "" for fault targeting; use Host views to name the dialer.
func (n *Network) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	return n.dialFrom(ctx, "", endpoint)
}

// dialFrom opens a connection from the named source host to endpoint,
// subject to the network's fault state.
func (n *Network) dialFrom(ctx context.Context, src, endpoint string) (net.Conn, error) {
	if err := n.dialRefused(src, endpoint); err != nil {
		return nil, err
	}
	n.mu.Lock()
	l, ok := n.listeners[endpoint]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("netsim: dial %q: connection refused", endpoint)
	}
	client, server := n.connPair(src, endpoint)
	select {
	case l.backlog <- server:
		n.register(client.(*conn))
		n.register(server.(*conn))
		// Re-check after registering, with the KILL-SWEEP predicate (either
		// direction blocked, either endpoint down): a fault installed
		// between the check above and register would miss this pair in its
		// sweep (sweeps iterate only registered conns), silently letting a
		// connection span a crash or partition.
		if n.pairForbidden(pair{src, endpoint}) {
			client.(*conn).reset()
			server.(*conn).reset()
			return nil, fmt.Errorf("netsim: dial %q from %q: connection reset by fault", endpoint, src)
		}
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: dial %q: connection refused", endpoint)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close shuts down all listeners. Existing connections keep working until
// closed by their owners.
func (n *Network) Close() error {
	n.mu.Lock()
	listeners := make([]*listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	n.closed = true
	n.mu.Unlock()
	for _, l := range listeners {
		_ = l.Close()
	}
	return nil
}

func (n *Network) removeListener(endpoint string) {
	n.mu.Lock()
	delete(n.listeners, endpoint)
	n.mu.Unlock()
}

type listener struct {
	network  *Network
	endpoint string
	backlog  chan net.Conn
	once     sync.Once
	done     chan struct{}
}

var _ net.Listener = (*listener)(nil)

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.network.removeListener(l.endpoint)
	})
	return nil
}

func (l *listener) Addr() net.Addr { return simAddr(l.endpoint) }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }
