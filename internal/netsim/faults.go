package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the simulator's fault surface: directional link partitions,
// per-link latency/jitter/loss, forced connection drops, and endpoint
// crash/restart. Faults are keyed by the *direction* (src endpoint, dst
// endpoint); the dialing side of a connection is attributed to a source name
// via Host views (an un-named Dial has source ""). The chaos harness drives
// this API from a seeded schedule; everything here is also usable directly
// from ordinary tests.

// LinkFaults describes degradations of one directed link. The zero value is
// a healthy link.
type LinkFaults struct {
	// ExtraLatency is added to the one-way propagation delay of every chunk
	// sent on the link.
	ExtraLatency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) per
	// chunk, drawn from the network's seeded RNG. Stream order is preserved
	// (a later chunk never overtakes an earlier one); jitter skews when
	// bytes become readable, modelling queueing noise.
	Jitter time.Duration
	// DropPerWrite is the probability, per write, that the connection
	// carrying it is reset (both directions close abortively; the writer
	// gets an error, undelivered data is discarded like a real RST). This
	// is how packet loss manifests to a reliable-stream transport: the
	// stream dies and the client must redial.
	DropPerWrite float64
}

// IsZero reports whether f describes a healthy link.
func (f LinkFaults) IsZero() bool {
	return f.ExtraLatency == 0 && f.Jitter == 0 && f.DropPerWrite == 0
}

// pair is a directed (source, destination) link identity.
type pair struct{ src, dst string }

// faultState carries the network's mutable fault tables, guarded by its own
// mutex so the data path (per-write fault lookup) never contends with
// listener bookkeeping. The active flag is the write hot path's lock-free
// fast exit: a fault-free network (every benchmark) answers writeFault
// with one atomic load, so the fault surface costs the instant profile
// nothing.
type faultState struct {
	active  atomic.Bool // any blocked/links/down entry installed
	mu      sync.Mutex
	rng     *rand.Rand
	blocked map[pair]bool
	links   map[pair]LinkFaults
	down    map[string]bool
	conns   map[*conn]struct{}
}

func newFaultState(seed int64) *faultState {
	return &faultState{
		rng:     rand.New(rand.NewSource(seed)),
		blocked: make(map[pair]bool),
		links:   make(map[pair]LinkFaults),
		down:    make(map[string]bool),
		conns:   make(map[*conn]struct{}),
	}
}

// recomputeActive refreshes the fast-path flag; caller holds f.mu.
func (f *faultState) recomputeActive() {
	f.active.Store(len(f.blocked) > 0 || len(f.links) > 0 || len(f.down) > 0)
}

// Host returns a view of the network that attributes outbound connections to
// the named endpoint, so directional faults can target traffic *from* that
// host. Servers already have an identity (their listening endpoint); Host
// gives one to dialers. The view implements the same Dial/Listen surface as
// the Network itself (transport.Network).
func (n *Network) Host(name string) *Host {
	return &Host{network: n, name: name}
}

// Host is a named dialing identity on a Network.
type Host struct {
	network *Network
	name    string
}

// Name returns the host's endpoint name.
func (h *Host) Name() string { return h.name }

// Network returns the underlying simulated network.
func (h *Host) Network() *Network { return h.network }

// Dial opens a connection to endpoint, attributed to this host.
func (h *Host) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	return h.network.dialFrom(ctx, h.name, endpoint)
}

// Listen binds endpoint on the underlying network. Listening is not
// attributed: the endpoint name itself is the server's identity.
func (h *Host) Listen(endpoint string) (net.Listener, error) {
	return h.network.Listen(endpoint)
}

// FaultSet is a complete description of a network's injected faults,
// installed atomically by SetFaultSet: the whole previous state is replaced
// under one lock, with no instant in between where the network is
// transiently healthy. Schedule-driven harnesses use it at step boundaries
// so a fault window spanning several steps is genuinely continuous even
// while other goroutines keep sending.
type FaultSet struct {
	// Partitions lists blocked directed links as [src, dst].
	Partitions [][2]string
	// Links maps directed [src, dst] pairs to their degradations.
	Links map[[2]string]LinkFaults
	// Down lists crashed endpoints.
	Down []string
}

// SetFaultSet atomically replaces the network's entire fault state, then
// resets every established connection the new state forbids (partitioned
// pairs, crashed endpoints). Repeated installs of the same set are
// idempotent: forbidden pairs cannot have live connections.
func (n *Network) SetFaultSet(fs FaultSet) {
	blocked := make(map[pair]bool, len(fs.Partitions))
	for _, p := range fs.Partitions {
		blocked[pair{p[0], p[1]}] = true
	}
	links := make(map[pair]LinkFaults, len(fs.Links))
	for p, f := range fs.Links {
		if !f.IsZero() {
			links[pair{p[0], p[1]}] = f
		}
	}
	down := make(map[string]bool, len(fs.Down))
	for _, ep := range fs.Down {
		down[ep] = true
	}
	n.faults.mu.Lock()
	n.faults.blocked = blocked
	n.faults.links = links
	n.faults.down = down
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
	// The kill sweep consults the local snapshot, not the live tables:
	// killConns holds the fault mutex while matching.
	n.killConns(func(c *conn) bool {
		return blocked[c.out] || blocked[pair{c.out.dst, c.out.src}] ||
			down[c.out.src] || down[c.out.dst]
	})
}

// Partition blocks the directed link src→dst: established connections
// carrying that direction are reset and new dials from src to dst are
// refused until Heal. Partitioning is directional; call it twice (or use
// PartitionPair) for a full cut.
func (n *Network) Partition(src, dst string) {
	n.faults.mu.Lock()
	n.faults.blocked[pair{src, dst}] = true
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
	n.killConns(func(c *conn) bool { return c.out == (pair{src, dst}) || c.out == (pair{dst, src}) })
}

// PartitionPair cuts both directions between a and b.
func (n *Network) PartitionPair(a, b string) {
	n.Partition(a, b)
	n.Partition(b, a)
}

// Heal removes a directed partition.
func (n *Network) Heal(src, dst string) {
	n.faults.mu.Lock()
	delete(n.faults.blocked, pair{src, dst})
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
}

// HealAll removes every partition, link fault, and down marker, returning
// the network to health. Established connections that were already reset
// stay dead; redials succeed.
func (n *Network) HealAll() {
	n.faults.mu.Lock()
	n.faults.blocked = make(map[pair]bool)
	n.faults.links = make(map[pair]LinkFaults)
	n.faults.down = make(map[string]bool)
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
}

// SetLinkFaults installs latency/jitter/loss faults on the directed link
// src→dst, replacing any previous setting. A zero LinkFaults clears it.
func (n *Network) SetLinkFaults(src, dst string, f LinkFaults) {
	n.faults.mu.Lock()
	if f.IsZero() {
		delete(n.faults.links, pair{src, dst})
	} else {
		n.faults.links[pair{src, dst}] = f
	}
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
}

// Crash takes endpoint down: every connection to or from it is reset and
// dials involving it are refused until Restart. The listener stays bound —
// a crashed server's socket is gone, not its address — so Restart brings
// the same server back with whatever in-memory state it kept. (Simulating a
// restart with state loss is a harness-level concern: close the serving
// peer and start a fresh one.)
func (n *Network) Crash(endpoint string) {
	n.faults.mu.Lock()
	n.faults.down[endpoint] = true
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
	n.KillConns(endpoint)
}

// Restart clears a Crash, making endpoint dialable again.
func (n *Network) Restart(endpoint string) {
	n.faults.mu.Lock()
	delete(n.faults.down, endpoint)
	n.faults.recomputeActive()
	n.faults.mu.Unlock()
}

// Down reports whether endpoint is currently crashed.
func (n *Network) Down(endpoint string) bool {
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	return n.faults.down[endpoint]
}

// KillConns resets every established connection whose either end is
// endpoint, forcing clients to redial. The endpoint itself stays dialable —
// this is the "connection drop" fault, distinct from Crash.
func (n *Network) KillConns(endpoint string) {
	n.killConns(func(c *conn) bool { return c.out.src == endpoint || c.out.dst == endpoint })
}

// killConns closes every tracked connection matching the filter.
func (n *Network) killConns(match func(*conn) bool) {
	n.faults.mu.Lock()
	var victims []*conn
	for c := range n.faults.conns {
		if match(c) {
			victims = append(victims, c)
		}
	}
	n.faults.mu.Unlock()
	for _, c := range victims {
		c.reset()
	}
}

// register tracks an established connection for fault targeting.
func (n *Network) register(c *conn) {
	n.faults.mu.Lock()
	n.faults.conns[c] = struct{}{}
	n.faults.mu.Unlock()
}

// unregister drops a closed connection.
func (n *Network) unregister(c *conn) {
	n.faults.mu.Lock()
	delete(n.faults.conns, c)
	n.faults.mu.Unlock()
}

// pairForbidden reports whether an ESTABLISHED connection on the directed
// pair must not exist under the current fault state — the same predicate
// the partition/crash kill sweeps use (either direction blocked, either
// endpoint down). dialFrom re-checks it after registering a new pair to
// close the race with a concurrent sweep.
func (n *Network) pairForbidden(pr pair) bool {
	if !n.faults.active.Load() {
		return false
	}
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	return n.faults.blocked[pr] || n.faults.blocked[pair{pr.dst, pr.src}] ||
		n.faults.down[pr.src] || n.faults.down[pr.dst]
}

// dialRefused reports whether a dial src→dst must be refused outright
// (partitioned direction, or either endpoint down).
func (n *Network) dialRefused(src, dst string) error {
	if !n.faults.active.Load() {
		return nil
	}
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	switch {
	case n.faults.down[dst]:
		return fmt.Errorf("netsim: dial %q: endpoint down", dst)
	case n.faults.down[src]:
		return fmt.Errorf("netsim: dial from %q: endpoint down", src)
	case n.faults.blocked[pair{src, dst}]:
		return fmt.Errorf("netsim: dial %q from %q: link partitioned", dst, src)
	}
	return nil
}

// writeFault decides the fate of one write on the directed link pr: kill
// (reset the connection), or deliver with extra one-way delay.
func (n *Network) writeFault(pr pair) (extra time.Duration, kill bool) {
	if !n.faults.active.Load() {
		return 0, false
	}
	n.faults.mu.Lock()
	defer n.faults.mu.Unlock()
	if n.faults.blocked[pr] || n.faults.down[pr.src] || n.faults.down[pr.dst] {
		return 0, true
	}
	f, ok := n.faults.links[pr]
	if !ok {
		return 0, false
	}
	if f.DropPerWrite > 0 && n.faults.rng.Float64() < f.DropPerWrite {
		return 0, true
	}
	extra = f.ExtraLatency
	if f.Jitter > 0 {
		extra += time.Duration(n.faults.rng.Int63n(int64(f.Jitter)))
	}
	return extra, false
}
