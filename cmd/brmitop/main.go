// Command brmitop is the live cluster ops view: it scrapes every server's
// stats.Node service — ONE cluster batch flush per refresh, so a scrape
// costs a single parallel round-trip wave regardless of cluster size — and
// renders a per-server table of executed-call rate, executor wave latency
// quantiles, transport buffer-pool and wire codec reuse rates, readonly
// lease-cache hit rate, migration progress, and ring epoch (with skew
// markers). Cache counters live client-side, so in -sim mode the view adds
// the client's own registry as a pseudo-row.
//
// Usage:
//
//	brmitop -endpoints host:port,host:port[,...]   # live TCP cluster
//	brmitop -sim                                   # self-contained demo:
//	                                               # 3 netsim servers under
//	                                               # synthetic batch load
//	brmitop -sim -once                             # one render, then exit
//	brmitop -endpoints ... -interval 5s            # refresh cadence
//
// In the refreshing view the QPS column is the executed-call delta over the
// last interval; -once takes two samples one second apart so rates are
// still meaningful.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/statsnode"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	var (
		endpoints = flag.String("endpoints", "", "comma-separated server endpoints (host:port) to scrape")
		interval  = flag.Duration("interval", 2*time.Second, "refresh interval")
		once      = flag.Bool("once", false, "render one table and exit (two samples, 1s apart)")
		sim       = flag.Bool("sim", false, "run a self-contained netsim cluster under synthetic load")
		simN      = flag.Int("sim.servers", 3, "server count for -sim")
	)
	flag.Parse()
	if err := run(*endpoints, *interval, *once, *sim, *simN); err != nil {
		fmt.Fprintln(os.Stderr, "brmitop:", err)
		os.Exit(1)
	}
}

func run(endpoints string, interval time.Duration, once, sim bool, simN int) error {
	ctx := context.Background()
	var (
		client *rmi.Peer
		eps    []string
		local  func() *stats.Snapshot
	)
	switch {
	case sim:
		demo, err := startSim(simN)
		if err != nil {
			return err
		}
		defer demo.stop()
		client, eps, local = demo.client, demo.endpoints, demo.local
	case endpoints != "":
		for _, ep := range strings.Split(endpoints, ",") {
			if ep = strings.TrimSpace(ep); ep != "" {
				eps = append(eps, ep)
			}
		}
		if len(eps) == 0 {
			return fmt.Errorf("-endpoints lists no servers")
		}
		client = rmi.NewPeer(transport.TCPNetwork{}, rmi.WithLogf(func(string, ...any) {}))
		defer client.Close()
	default:
		return fmt.Errorf("nothing to watch: pass -endpoints or -sim")
	}

	// addLocal appends the client's own registry as a pseudo-row: the
	// lease-cache counters the CACHE column reads live in the client process,
	// not on any scraped server.
	addLocal := func(cur map[string]*stats.Snapshot) {
		if local != nil && cur != nil {
			cur["client (local)"] = local()
		}
	}

	if once {
		prev, err := statsnode.ScrapeCluster(ctx, client, eps)
		if err != nil {
			return err
		}
		addLocal(prev)
		const sample = time.Second
		time.Sleep(sample)
		cur, err := statsnode.ScrapeCluster(ctx, client, eps)
		if err != nil {
			return err
		}
		addLocal(cur)
		statsnode.RenderTable(os.Stdout, statsnode.BuildRows(cur, prev, sample))
		return nil
	}

	var prev map[string]*stats.Snapshot
	last := time.Now()
	for {
		cur, err := statsnode.ScrapeCluster(ctx, client, eps)
		now := time.Now()
		if err != nil && len(cur) == 0 {
			return err
		}
		scraped := len(cur)
		addLocal(cur)
		rows := statsnode.BuildRows(cur, prev, now.Sub(last))
		fmt.Print("\x1b[H\x1b[2J") // home + clear: redraw in place
		fmt.Printf("brmitop — %d/%d servers — %s (refresh %s, ctrl-c to quit)\n\n",
			scraped, len(eps), now.Format("15:04:05"), interval)
		statsnode.RenderTable(os.Stdout, rows)
		if err != nil {
			fmt.Printf("\npartial scrape: %v\n", err)
		}
		prev, last = cur, now
		time.Sleep(interval)
	}
}

// --- -sim: self-contained demo cluster ---------------------------------------

// simCounter is the synthetic-load workload object.
type simCounter struct {
	rmi.RemoteBase
	v atomic.Int64
}

// Add increments the counter and returns the new value.
func (c *simCounter) Add(n int64) int64 { return c.v.Add(n) }

// Get reads the counter; the sim issues it through CallRO so the client's
// lease cache (and the CACHE column) has traffic.
func (c *simCounter) Get() int64 { return c.v.Load() }

const simIface = "brmitop.Counter"

type simDemo struct {
	client    *rmi.Peer
	endpoints []string
	// local snapshots the client peer's own registry: cache hit/miss
	// counters live client-side, so the view shows them as a pseudo-row.
	local func() *stats.Snapshot
	stop  func()
}

// startSim brings up n full servers (executor + registry + node + stats
// scrape service) on a simulated LAN and drives continuous batched load
// against them from a background goroutine, so the view has live numbers.
func startSim(n int) (*simDemo, error) {
	if n < 1 {
		return nil, fmt.Errorf("-sim.servers must be >= 1, got %d", n)
	}
	network := netsim.New(netsim.LAN)
	silent := rmi.WithLogf(func(string, ...any) {})
	var cleanup []func()
	shutdown := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	cleanup = append(cleanup, func() { _ = network.Close() })

	eps := make([]string, n)
	refs := make([]wire.Ref, n)
	for i := range eps {
		eps[i] = fmt.Sprintf("server-%d", i)
		srv := rmi.NewPeer(network, silent, rmi.WithStatsRegistry(stats.New()))
		if err := srv.Serve(eps[i]); err != nil {
			shutdown()
			return nil, err
		}
		cleanup = append(cleanup, func() { _ = srv.Close() })
		exec, err := core.Install(srv)
		if err != nil {
			shutdown()
			return nil, err
		}
		cleanup = append(cleanup, exec.Stop)
		reg, err := registry.Start(srv)
		if err != nil {
			shutdown()
			return nil, err
		}
		if _, err := cluster.StartNode(srv, reg, nil); err != nil {
			shutdown()
			return nil, err
		}
		if _, err := statsnode.Start(srv); err != nil {
			shutdown()
			return nil, err
		}
		refs[i], err = srv.Export(&simCounter{}, simIface)
		if err != nil {
			shutdown()
			return nil, err
		}
	}

	client := rmi.NewPeer(network, silent, rmi.WithStatsRegistry(stats.New()))
	cleanup = append(cleanup, func() { _ = client.Close() })
	cache := cluster.NewCache(client, nil)

	// Synthetic load: every tick a cached-read batch (CallRO on each root —
	// mostly lease hits), and every fourth tick a write batch that ends
	// the leases at its ack, so the hit rate hovers rather than pinning at
	// 100%. Writes are one multi-root cluster batch, a few calls per root.
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			fctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			if i%4 == 0 {
				b := cluster.New(client, cluster.WithCache(cache))
				for _, ref := range refs {
					p := b.Root(ref)
					for j := 0; j < 3; j++ {
						p.Call("Add", int64(1))
					}
				}
				_ = b.Flush(fctx) // faults are impossible on a clean netsim LAN
			}
			rb := cluster.New(client, cluster.WithCache(cache))
			for _, ref := range refs {
				rb.Root(ref).CallRO("Get")
			}
			_ = rb.Flush(fctx)
			cancel()
		}
	}()

	stopLoad := func() { close(done) }
	return &simDemo{
		client:    client,
		endpoints: eps,
		local:     client.Stats().Snapshot,
		stop: func() {
			stopLoad()
			shutdown()
		},
	}, nil
}
