package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/rcache"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ErrNoServers reports a naming or batch operation against an empty ring.
var ErrNoServers = errors.New("cluster: no servers in the shard map")

// Directory is the cluster-aware naming layer: it combines the shard map
// with the per-server registries so that one logical namespace spans the
// whole cluster. A name's home server is decided by the ring; Bind and
// Lookup then talk to the ordinary internal/registry service on that server,
// so a single-server deployment degenerates to plain registry use.
type Directory struct {
	peer *rmi.Peer
	ring *Ring

	// sf coalesces concurrent Refresh calls: N goroutines that each hit a
	// WrongHomeError for the same migration share one node poll instead of
	// issuing N identical fan-outs.
	sf rcache.Group

	// Metrics, wired from the peer's stats registry (nil no-ops otherwise).
	lookupRetries    *stats.Counter // cluster.lookup_retries
	refreshes        *stats.Counter // cluster.dir_refreshes
	refreshCoalesced *stats.Counter // cluster.dir_refresh_coalesced
}

// NewDirectory creates a directory routing over the given server endpoints.
// Each endpoint must run a registry (registry.Start) for naming calls to
// succeed.
func NewDirectory(peer *rmi.Peer, endpoints []string, opts ...RingOption) *Directory {
	d := &Directory{peer: peer, ring: NewRing(endpoints, opts...)}
	if r := peer.Stats(); r != nil {
		d.lookupRetries = r.Counter("cluster.lookup_retries")
		d.refreshes = r.Counter("cluster.dir_refreshes")
		d.refreshCoalesced = r.Counter("cluster.dir_refresh_coalesced")
	}
	return d
}

// Ring exposes the underlying shard map (e.g. to add servers at runtime).
func (d *Directory) Ring() *Ring { return d.ring }

// Epoch returns this directory's view of the membership version.
func (d *Directory) Epoch() uint64 { return d.ring.Epoch() }

// Servers returns the cluster members, sorted.
func (d *Directory) Servers() []string { return d.ring.Endpoints() }

// Home returns the endpoint that owns name on this directory's ring. It is
// local: the routing step of every name-addressed request.
func (d *Directory) Home(name string) (string, error) {
	ep := d.ring.Route(name)
	if ep == "" {
		return "", ErrNoServers
	}
	return ep, nil
}

// Owners returns name's ordered owner list (primary first, then followers,
// see Ring.Owners) and the ring epoch it was read at.
func (d *Directory) Owners(name string) ([]string, uint64) {
	return d.ring.Owners(name)
}

// Replication returns the ring's replication factor R (1 = no replication).
func (d *Directory) Replication() int { return d.ring.Replication() }

// Bind binds name to ref in the registry of name's home server.
func (d *Directory) Bind(ctx context.Context, name string, ref wire.Ref) error {
	ep, err := d.Home(name)
	if err != nil {
		return err
	}
	return registry.Bind(ctx, d.peer, ep, name, ref)
}

// Rebind binds name to ref at its home server, replacing any existing
// binding.
func (d *Directory) Rebind(ctx context.Context, name string, ref wire.Ref) error {
	ep, err := d.Home(name)
	if err != nil {
		return err
	}
	return registry.Rebind(ctx, d.peer, ep, name, ref)
}

// Lookup resolves name at its home server's registry: one round trip per
// name. A wrong-home failure — the name migrated after this directory last
// saw the ring — refreshes the shard map from the cluster nodes and retries
// once at the new home. It is for callers that want the reference itself
// (tools, tests, un-batched rmi calls). No data path pays it: a flush
// (Batch.RootNamed) and a bulk read (GetBatch) route by Home and let the
// home resolve the names they carry — except that a flush looks up a named
// root it must pass by reference to another server.
func (d *Directory) Lookup(ctx context.Context, name string) (wire.Ref, error) {
	ref, err := d.lookupOnce(ctx, name)
	if err == nil {
		return ref, nil
	}
	var wrong *rmi.WrongHomeError
	if !errors.As(err, &wrong) {
		return wire.Ref{}, err
	}
	if rerr := d.refreshTo(ctx, wrong.NewEpoch); rerr != nil {
		return wire.Ref{}, fmt.Errorf("%w (ring refresh failed: %v)", err, rerr)
	}
	d.lookupRetries.Inc()
	return d.lookupOnce(ctx, name)
}

// refreshTo answers a wrong-home rejection announcing epoch: it refreshes
// the ring until it caught up with that epoch. A coalesced Refresh may have
// joined a poll that STARTED before the membership change the rejection
// reports, adopting an older ring, so one more (bounded) refresh follows
// when the first falls short.
func (d *Directory) refreshTo(ctx context.Context, epoch uint64) error {
	for attempt := 0; ; attempt++ {
		if err := d.Refresh(ctx); err != nil {
			return err
		}
		if d.Epoch() >= epoch || attempt >= 1 {
			return nil
		}
	}
}

func (d *Directory) lookupOnce(ctx context.Context, name string) (wire.Ref, error) {
	ep, err := d.Home(name)
	if err != nil {
		return wire.Ref{}, err
	}
	ref, err := registry.Lookup(ctx, d.peer, ep, name)
	if err != nil {
		return wire.Ref{}, fmt.Errorf("cluster: lookup %q at %s: %w", name, ep, err)
	}
	return ref, nil
}

// Refresh polls the cluster nodes for their ring state and adopts the
// newest epoch seen, bringing a stale directory back in sync after a
// membership change it did not witness. It fails only when no node is
// reachable. Concurrent callers coalesce onto one in-flight poll: they
// share its outcome (and its context), which is safe because adoption is
// monotone — the poll installs the newest epoch any node reports,
// regardless of which caller triggered it.
func (d *Directory) Refresh(ctx context.Context) error {
	_, err, shared := d.sf.Do("refresh", func() (any, error) {
		return nil, d.refreshOnce(ctx)
	})
	if shared {
		d.refreshCoalesced.Inc()
	}
	return err
}

func (d *Directory) refreshOnce(ctx context.Context) error {
	d.refreshes.Inc()
	members := d.ring.Endpoints()
	if len(members) == 0 {
		return ErrNoServers
	}
	snaps := make([]*RingSnapshot, len(members))
	err := fanOut(members, func(i int, ep string) error {
		res, err := d.peer.Call(ctx, NodeRef(ep), "RingState")
		if err != nil {
			return fmt.Errorf("cluster: ring state from %s: %w", ep, err)
		}
		if len(res) == 1 {
			if snap, ok := res[0].(*RingSnapshot); ok {
				snaps[i] = snap
			}
		}
		return nil
	})
	var best *RingSnapshot
	for _, snap := range snaps {
		if snap != nil && (best == nil || snap.Epoch > best.Epoch) {
			best = snap
		}
	}
	if best == nil {
		return fmt.Errorf("cluster: refresh: no node reachable: %w", err)
	}
	if best.Epoch > d.ring.Epoch() {
		d.ring.Reset(best.Members, best.Epoch)
	}
	return nil
}

// Unbind removes name's binding at its home server.
func (d *Directory) Unbind(ctx context.Context, name string) error {
	ep, err := d.Home(name)
	if err != nil {
		return err
	}
	return registry.Unbind(ctx, d.peer, ep, name)
}

// List returns every name bound anywhere in the cluster, keyed by server
// endpoint. The per-server registries are queried in parallel, so the call
// costs one round trip of wall-clock time, like a cluster batch flush.
func (d *Directory) List(ctx context.Context) (map[string][]string, error) {
	servers := d.ring.Endpoints()
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	out := make(map[string][]string, len(servers))
	var mu sync.Mutex
	err := fanOut(servers, func(_ int, ep string) error {
		names, err := registry.List(ctx, d.peer, ep)
		if err != nil {
			return fmt.Errorf("cluster: list %s: %w", ep, err)
		}
		mu.Lock()
		out[ep] = names
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut runs fn once per item, all in parallel, and joins the failures. It
// is the fan-out shape every cluster-wide control operation (listing, ring
// broadcast/refresh, migration flows) shares: one round trip of wall-clock
// time regardless of cluster size.
func fanOut[T any](items []T, fn func(i int, item T) error) error {
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, item := range items {
		wg.Add(1)
		go func(i int, item T) {
			defer wg.Done()
			errs[i] = fn(i, item)
		}(i, item)
	}
	wg.Wait()
	return errors.Join(errs...)
}
