// Ops: the live observability plane — ROADMAP's "live ops view" demo.
//
// Three servers run under synthetic batched load while the monitoring
// plane scrapes them the same way the workload talks to them: one cluster
// Batch whose roots are each server's stats.Node system object, flushed as
// a single parallel wave. The scraped snapshots render the brmitop table
// (QPS, executor wave latency quantiles, pool/codec reuse, migration,
// epoch). Then a fourth server joins mid-load, and the next scrape shows
// the rebalance happening: migration counters move and the ring epoch
// bumps. Finally one server's snapshot is re-exported in Prometheus text
// format — the bridge to off-the-shelf dashboards.
//
//	go run ./examples/ops
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/statsnode"
)

// Meter is a movable counter: its total follows it when the ring grows.
type Meter struct {
	rmi.RemoteBase
	mu    sync.Mutex
	total int64
}

const meterIface = "example.Meter"

func init() {
	cluster.RegisterMovable(meterIface, func() rmi.Remote { return &Meter{} })
}

// Record adds a reading and returns the running total.
func (m *Meter) Record(n int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += n
	return m.total
}

// Snapshot and Restore implement cluster.Movable.
func (m *Meter) Snapshot() (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total, nil
}

func (m *Meter) Restore(state any) error {
	n, ok := state.(int64)
	if !ok {
		return fmt.Errorf("unexpected snapshot %T", state)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total = n
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ops:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	network := netsim.New(netsim.LAN)
	defer network.Close()
	silent := rmi.WithLogf(func(string, ...any) {})

	// --- four full nodes, each with a stats registry and a stats.Node ------
	// scrape service; only three start in the ring.
	const baseServers, totalServers = 3, 4
	endpoints := make([]string, totalServers)
	servers := make(map[string]*rmi.Peer, totalServers)
	for i := 0; i < totalServers; i++ {
		endpoints[i] = fmt.Sprintf("server-%d", i)
		server := rmi.NewPeer(network, silent,
			rmi.WithStatsRegistry(stats.New()))
		if err := server.Serve(endpoints[i]); err != nil {
			return err
		}
		defer server.Close()
		exec, err := core.Install(server)
		if err != nil {
			return err
		}
		defer exec.Stop()
		reg, err := registry.Start(server)
		if err != nil {
			return err
		}
		// Migration hands a moving object's state from its source to its
		// new home over the replication service, so every member runs one.
		node, err := cluster.StartNode(server, reg, nil)
		if err != nil {
			return err
		}
		if _, err := cluster.StartReplica(server, reg, node, exec); err != nil {
			return err
		}
		if _, err := statsnode.Start(server); err != nil {
			return err
		}
		servers[endpoints[i]] = server
	}
	newcomer := endpoints[baseServers]

	client := rmi.NewPeer(network, silent, rmi.WithStatsRegistry(stats.New()))
	defer client.Close()
	dir := cluster.NewDirectory(client, endpoints[:baseServers])

	// --- sharded meters + synthetic load ------------------------------------
	meters := []string{"api", "auth", "billing", "cart", "search", "mail", "feed", "jobs"}
	for _, name := range meters {
		home, err := dir.Home(name)
		if err != nil {
			return err
		}
		ref, err := servers[home].Export(&Meter{}, meterIface)
		if err != nil {
			return err
		}
		if err := dir.Bind(ctx, name, ref); err != nil {
			return err
		}
	}
	load := func(rounds int) error {
		for i := 0; i < rounds; i++ {
			// Eight names, no lookups: RootNamed routes on the local ring and
			// the one wave below carries each name to its home to resolve.
			b := cluster.New(client, cluster.WithDirectory(dir))
			for _, name := range meters {
				m, err := b.RootNamed(ctx, name)
				if err != nil {
					return err
				}
				m.Call("Record", int64(1))
			}
			if err := b.Flush(ctx); err != nil {
				return err
			}
		}
		return nil
	}

	// --- scrape 1+2: the brmitop view under steady load ---------------------
	// A scrape is ONE cluster batch flush: every server's Scrape() rides the
	// same parallel wave, so monitoring cost does not grow with cluster size.
	if err := load(40); err != nil {
		return err
	}
	prev, err := statsnode.ScrapeCluster(ctx, client, dir.Servers())
	if err != nil {
		return err
	}
	start := time.Now()
	if err := load(40); err != nil {
		return err
	}
	cur, err := statsnode.ScrapeCluster(ctx, client, dir.Servers())
	if err != nil {
		return err
	}
	fmt.Printf("steady state: %d servers, one scrape wave each refresh\n\n", baseServers)
	statsnode.RenderTable(os.Stdout, statsnode.BuildRows(cur, prev, time.Since(start)))

	// --- the cluster grows; the next scrape shows the rebalance -------------
	if _, err := cluster.NewRebalancer(dir).AddServer(ctx, newcomer); err != nil {
		return err
	}
	if err := load(40); err != nil {
		return err
	}
	grown, err := statsnode.ScrapeCluster(ctx, client, dir.Servers())
	if err != nil {
		return err
	}
	fmt.Printf("\nafter %s joined: migration and epoch columns move\n\n", newcomer)
	statsnode.RenderTable(os.Stdout, statsnode.BuildRows(grown, cur, time.Since(start)))

	// --- Prometheus bridge ---------------------------------------------------
	fmt.Printf("\nPrometheus text format (excerpt, %s):\n\n", endpoints[0])
	return writePromExcerpt(os.Stdout, endpoints[0], grown[endpoints[0]])
}

// writePromExcerpt exports one server's snapshot in Prometheus text format
// and prints a representative slice (full output is several hundred lines).
func writePromExcerpt(w io.Writer, endpoint string, snap *stats.Snapshot) error {
	var buf strings.Builder
	if err := stats.WritePrometheus(&buf, map[string]*stats.Snapshot{endpoint: snap}); err != nil {
		return err
	}
	shown := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.Contains(line, "core_calls_executed"),
			strings.Contains(line, "cluster_ring_epoch"),
			strings.Contains(line, "transport_pool_hit"),
			strings.Contains(line, "core_wave_ns"):
			fmt.Fprintln(w, line)
			shown++
		}
		if shown >= 12 {
			break
		}
	}
	return nil
}
