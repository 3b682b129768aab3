// Package statsnode exposes a server's metrics registry as the stats.Node
// system RMI service, making the monitoring plane a first-class consumer of
// the batching runtime it observes: ScrapeCluster records one Scrape per
// server into one cluster batch, so a whole-cluster scrape costs exactly
// one parallel round-trip wave regardless of cluster size — the
// same amortization argument the paper makes for application traffic
// (§3.2), applied to operations tooling.
//
// The service is exported at the reserved rmi.StatsObjID alongside the
// registry, BRMI executor, and cluster node services, so any instrumented
// serving peer is scrapeable with no extra wiring.
package statsnode

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Node is the per-server metrics scrape service, exported at the reserved
// rmi.StatsObjID. Scrape hands out a consistent point-in-time snapshot of
// the server's registry; the snapshot is plain wire-encodable data, so it
// travels through the ordinary call path like any other result.
type Node struct {
	rmi.RemoteBase

	reg *stats.Registry
}

// Start exports a stats scrape service on p at the reserved stats id,
// serving snapshots of p's registry (rmi.WithStatsRegistry). It fails on
// an uninstrumented peer: exporting a scrape service with nothing to
// scrape would hide the missing wiring behind empty snapshots.
func Start(p *rmi.Peer) (*Node, error) {
	reg := p.Stats()
	if reg == nil {
		return nil, errors.New("statsnode: peer has no stats registry (build it with rmi.WithStatsRegistry)")
	}
	n := &Node{reg: reg}
	if _, err := p.ExportSystem(rmi.StatsObjID, n, rmi.StatsIface); err != nil {
		return nil, fmt.Errorf("statsnode: start: %w", err)
	}
	return n, nil
}

// Scrape returns a point-in-time snapshot of this server's registry.
func (n *Node) Scrape() *stats.Snapshot {
	return n.reg.Snapshot()
}

// Ref builds the well-known reference of the stats service at endpoint.
func Ref(endpoint string) wire.Ref {
	return rmi.SystemRef(endpoint, rmi.StatsObjID, rmi.StatsIface)
}

// ScrapeCluster snapshots every endpoint's registry in ONE cluster batch
// flush: the recording is one independent root call per endpoint, which
// plans to a single stage, so the Scrape calls fan out to all servers in
// parallel and the whole scrape costs one round-trip wave. Per-server
// failures are partial: reachable servers still land in the returned map,
// and the error joins the failures (nil when every server answered).
func ScrapeCluster(ctx context.Context, peer *rmi.Peer, endpoints []string) (map[string]*stats.Snapshot, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("statsnode: scrape: no endpoints")
	}
	b := cluster.New(peer)
	futs := make([]*cluster.Future, len(endpoints))
	for i, ep := range endpoints {
		futs[i] = b.Root(Ref(ep)).Call("Scrape")
	}
	flushErr := b.Flush(ctx)
	out := make(map[string]*stats.Snapshot, len(endpoints))
	var errs []error
	for i, ep := range endpoints {
		v, err := futs[i].Get()
		if err != nil {
			errs = append(errs, fmt.Errorf("statsnode: scrape %s: %w", ep, err))
			continue
		}
		snap, ok := v.(*stats.Snapshot)
		if !ok {
			errs = append(errs, fmt.Errorf("statsnode: scrape %s: unexpected result %T", ep, v))
			continue
		}
		out[ep] = snap
	}
	if len(errs) == 0 && flushErr != nil {
		// Defensive: a flush failure whose futures all settled anyway.
		errs = append(errs, flushErr)
	}
	return out, errors.Join(errs...)
}
