// Package clustertest is the shared multi-server test scaffolding: a full
// cluster deployment (serving peers with the BRMI executor, a registry, and
// the cluster node service, plus a client peer) on one simulated network,
// and the Counter workload object whose state makes execution order
// observable.
//
// It consolidates the setup helpers that used to be duplicated across the
// cluster package's test files, and it is the deployment substrate of the
// chaos harness (internal/chaos): every peer dials through a named
// netsim.Host view, so directional fault injection can target any
// (source, destination) link, client included.
package clustertest

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/statsnode"
	"repro/internal/wire"
)

// ClientHost is the netsim host identity of the cluster's client peer.
const ClientHost = "client"

// SilentLogf drops diagnostics; tests that expect transport errors pass it
// to keep logs quiet.
func SilentLogf(string, ...any) {}

// Server bundles one serving member: its peer, BRMI executor, registry,
// cluster node and replica services, and the pre-exported Counter workload
// object.
type Server struct {
	Endpoint string
	Peer     *rmi.Peer
	Exec     *core.Executor
	Reg      *registry.Service
	Node     *cluster.Node
	Replica  *cluster.Replica
	Stats    *stats.Registry
	Counter  *Counter
	Ref      wire.Ref
}

// Cluster is k full serving members plus a client on one simulated network.
type Cluster struct {
	Network *netsim.Network
	Servers []*Server
	Client  *rmi.Peer
	// ClientStats is the client peer's metrics registry (scraped directly;
	// the client runs no stats.Node service since it serves nothing).
	ClientStats *stats.Registry

	tb testing.TB
}

// Option configures cluster construction.
type Option func(*config)

type config struct {
	network *netsim.Network
}

// WithNetwork builds the cluster on an externally constructed network (the
// chaos harness passes one carrying a virtual clock and a seeded fault RNG).
func WithNetwork(n *netsim.Network) Option {
	return func(c *config) { c.network = n }
}

// New builds a cluster of k servers named "server-0" … "server-<k-1>", each
// serving through its own netsim host identity, plus a client peer dialing
// as ClientHost. Everything is torn down via t.Cleanup, and a passing test
// ends with a goroutine-leak check: once the peers, executors and the
// network are closed, the process goroutine count must be back at the level
// New found. The check is skipped under WithNetwork — the caller owns that
// network's lifetime (and, in the chaos harness, its virtual clock).
func New(tb testing.TB, k int, opts ...Option) *Cluster {
	tb.Helper()
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.network == nil {
		// Registered first, so it runs last, after every teardown below.
		baseline := runtime.NumGoroutine()
		tb.Cleanup(func() {
			if !tb.Failed() {
				AssertGoroutinesReturn(tb, baseline, 5*time.Second)
			}
		})
		cfg.network = netsim.New(netsim.Instant)
		tb.Cleanup(func() { _ = cfg.network.Close() })
	}
	c := &Cluster{Network: cfg.network, tb: tb}
	for i := 0; i < k; i++ {
		c.StartServer(fmt.Sprintf("server-%d", i))
	}
	c.ClientStats = stats.New(stats.WithClock(c.Network.Clock()))
	c.Client = rmi.NewPeer(c.Network.Host(ClientHost),
		rmi.WithLogf(SilentLogf), rmi.WithStatsRegistry(c.ClientStats))
	tb.Cleanup(func() { _ = c.Client.Close() })
	return c
}

// AssertGoroutinesReturn polls until the process goroutine count falls back
// to (near) baseline, dumping all stacks on timeout. The small slack absorbs
// runtime/test-framework churn; a goroutine leaked per flush blows well past
// it.
func AssertGoroutinesReturn(tb testing.TB, baseline int, within time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(within)
	n := 0
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	tb.Fatalf("goroutine count stuck at %d (baseline %d); leaked stacks:\n%s", n, baseline, buf)
}

// StartServer brings up a full member (peer + executor + registry + node +
// exported Counter) at endpoint and appends it to c.Servers. Used by New
// and by tests that grow the cluster mid-run (scale-out, state-loss
// restart).
func (c *Cluster) StartServer(endpoint string) *Server {
	c.tb.Helper()
	sreg := stats.New(stats.WithClock(c.Network.Clock()))
	srv := rmi.NewPeer(c.Network.Host(endpoint),
		rmi.WithLogf(SilentLogf), rmi.WithStatsRegistry(sreg))
	if err := srv.Serve(endpoint); err != nil {
		c.tb.Fatal(err)
	}
	c.tb.Cleanup(func() { _ = srv.Close() })
	exec, err := core.Install(srv)
	if err != nil {
		c.tb.Fatal(err)
	}
	c.tb.Cleanup(exec.Stop)
	reg, err := registry.Start(srv)
	if err != nil {
		c.tb.Fatal(err)
	}
	node, err := cluster.StartNode(srv, reg, nil)
	if err != nil {
		c.tb.Fatal(err)
	}
	replica, err := cluster.StartReplica(srv, reg, node, exec)
	if err != nil {
		c.tb.Fatal(err)
	}
	if _, err := statsnode.Start(srv); err != nil {
		c.tb.Fatal(err)
	}
	ctr := &Counter{}
	ref, err := srv.Export(ctr, CounterIface)
	if err != nil {
		c.tb.Fatal(err)
	}
	s := &Server{Endpoint: endpoint, Peer: srv, Exec: exec, Reg: reg, Node: node, Replica: replica, Stats: sreg, Counter: ctr, Ref: ref}
	c.Servers = append(c.Servers, s)
	return s
}

// Close tears the whole deployment down: every member and the client (the
// network belongs to whoever built it — t.Cleanup when New did, the caller
// under WithNetwork). Idempotent, and safe to combine with the
// t.Cleanup teardown New registers (each underlying Close/Stop is itself
// idempotent). The chaos harness closes clusters explicitly because one
// test may run many simulations (shrinking a failing fault schedule), and
// deferring teardown to test end would pile up live peers.
func (c *Cluster) Close() {
	for _, s := range c.Servers {
		s.Exec.Stop()
		_ = s.Peer.Close()
	}
	_ = c.Client.Close()
}

// StopServer CLEANLY stops the member at endpoint and removes it from
// c.Servers, freeing the listener slot: the executor stops first, then the
// peer closes in an orderly way. It models a planned shutdown — callers are
// expected to have drained the member (Rebalancer.RemoveServer) first, so
// nothing of value lives there anymore. For the unplanned, state-losing
// variant — the one the chaos harness's kill events and the failover tests
// exercise — use CrashServer.
func (c *Cluster) StopServer(endpoint string) {
	c.tb.Helper()
	for i, s := range c.Servers {
		if s.Endpoint == endpoint {
			s.Exec.Stop()
			_ = s.Peer.Close()
			c.Servers = append(c.Servers[:i], c.Servers[i+1:]...)
			return
		}
	}
	c.tb.Fatalf("clustertest: StopServer(%q): no such member", endpoint)
}

// CrashServer kills the member at endpoint with STATE LOSS: its in-flight
// connections are reset, the peer is torn down with no orderly handoff, and
// every object it hosted is gone. The listener slot is freed, so a later
// StartServer(endpoint) comes back empty — the crashed-and-replaced shape
// failover recovers from (follower promotion resurrects the lost shards
// from their replicas; without replication the state is simply lost). Dials
// to the endpoint are refused until then.
func (c *Cluster) CrashServer(endpoint string) {
	c.tb.Helper()
	for i, s := range c.Servers {
		if s.Endpoint == endpoint {
			c.Network.KillConns(endpoint)
			_ = s.Peer.Close()
			s.Exec.Stop()
			c.Servers = append(c.Servers[:i], c.Servers[i+1:]...)
			return
		}
	}
	c.tb.Fatalf("clustertest: CrashServer(%q): no such member", endpoint)
}

// Server returns the member serving endpoint, or nil.
func (c *Cluster) Server(endpoint string) *Server {
	for _, s := range c.Servers {
		if s.Endpoint == endpoint {
			return s
		}
	}
	return nil
}

// Endpoints returns the member endpoints in start order.
func (c *Cluster) Endpoints() []string {
	out := make([]string, len(c.Servers))
	for i, s := range c.Servers {
		out[i] = s.Endpoint
	}
	return out
}

// Refs returns the pre-exported Counter refs in server order.
func (c *Cluster) Refs() []wire.Ref {
	out := make([]wire.Ref, len(c.Servers))
	for i, s := range c.Servers {
		out[i] = s.Ref
	}
	return out
}

// BindCounter exports a fresh Counter seeded with seed at name's home and
// binds it through the directory.
func (c *Cluster) BindCounter(dir *cluster.Directory, name string, seed int64) wire.Ref {
	c.tb.Helper()
	home, err := dir.Home(name)
	if err != nil {
		c.tb.Fatal(err)
	}
	s := c.Server(home)
	if s == nil {
		c.tb.Fatalf("clustertest: bind %q: home %s is not a member", name, home)
	}
	ref, err := s.Peer.Export(NewCounter(seed), CounterIface)
	if err != nil {
		c.tb.Fatal(err)
	}
	if err := dir.Bind(context.Background(), name, ref); err != nil {
		c.tb.Fatal(err)
	}
	return ref
}

// PickNames generates names routed to oldHome by old and to newHome by
// grown — the deterministic moved (or staying, when oldHome == newHome)
// sets that re-sharding tests need.
func PickNames(old, grown *cluster.Ring, oldHome, newHome string, count int) []string {
	var names []string
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf("obj-%d", i)
		if old.Route(name) == oldHome && grown.Route(name) == newHome {
			names = append(names, name)
		}
		if i > 100000 {
			panic("clustertest: PickNames: no matching names found")
		}
	}
	return names
}
