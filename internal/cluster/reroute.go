package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// reroute.go is the stale-route retry as a re-planner: canRetryStale decides
// which failed waves qualify, rehome turns their sub-batches into sub-batches
// bound for the roots' new homes. It flushes nothing — the executor hands
// rehome's result to the same wave every other sub-batch runs through.

// rejection is a sub-batch whose destination refused the wave without
// executing it, and the refusal.
type rejection struct {
	sb    *subBatch
	cause error
}

// resolver is what rehome needs of the naming layer (*Directory).
type resolver interface {
	Refresh(ctx context.Context) error
	Lookup(ctx context.Context, name string) (wire.Ref, error)
}

// canRetryStale decides whether a failed destination wave may be retried
// against a refreshed shard map. Caller holds b.mu.
//
// The retry re-resolves the destination's named roots (Proxy.key, set by
// RootNamed) and replays this stage's calls against fresh core batches at
// the new homes, so it is only sound when (a) nothing server-side is lost
// with the old session — the batch must be epoch-aware (WithDirectory),
// this must be the destination's last stage, and no earlier wave may have
// left a chained session open (earlier results live only in that session
// and cannot follow the object to its new home) — and (b) the wave is
// known NOT to have executed. Two failure classes qualify: a wrong-home
// rejection (the server refused the wave before running it) and a dial
// failure (transport.DialError: the request never left the client — the
// shape a crashed primary produces after failover re-homed its shards). A
// mid-call connection loss does NOT qualify: the server may have executed
// the wave before the response was lost. Neither does a quorum miss: the
// primary applied the wave, a re-send could double-apply. One retry per
// flush.
func (b *Batch) canRetryStale(ds *destState, stage int, err error) bool {
	if b.dir == nil || b.retried || ds.sessionOpen() || stage != ds.lastStage {
		return false
	}
	var qe *QuorumError
	if errors.As(err, &qe) {
		return false
	}
	var wrong *rmi.WrongHomeError
	if errors.As(err, &wrong) {
		return true
	}
	var dial *transport.DialError
	return errors.As(err, &dial)
}

// rehome spends the flush's one stale-route retry on re-planning: it
// refreshes the shard map once, re-resolves the named roots of ALL rejected
// sub-batches, regroups their calls per new home — two old homes that merge
// into one new home cost one round trip — and returns the new sub-batches.
// An error means nothing was re-planned and the rejections are final.
func (b *Batch) rehome(ctx context.Context, dir resolver, rejected []rejection) ([]*subBatch, error) {
	b.mu.Lock()
	b.retried = true
	b.wrongHome.Inc()
	b.mu.Unlock()
	if err := dir.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("stale-route retry: ring refresh failed: %w", err)
	}
	// Re-resolve outside the batch lock — lookups are network calls,
	// independent per root. Un-named roots keep their recorded ref: if one
	// of them was the migrated object there is no key to re-resolve it by,
	// and the retried wave fails wrong-home again, this time finally.
	var roots []*Proxy
	var resolved []wire.Ref
	for _, rj := range rejected {
		for _, ref := range rj.sb.group.roots {
			roots = append(roots, rj.sb.group.rootProxies[ref])
			resolved = append(resolved, ref)
		}
	}
	err := fanOut(roots, func(i int, p *Proxy) error {
		if p.key == "" {
			return nil
		}
		ref, err := dir.Lookup(ctx, p.key)
		if err != nil {
			return fmt.Errorf("stale-route retry: re-resolve %q: %w", p.key, err)
		}
		resolved[i] = ref
		return nil
	})
	if err != nil {
		return nil, err
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	// Rewire the roots into one fresh group per new home, then re-home every
	// call (and the proxy it settles) to its root's group, so partition and
	// translate see a consistent recording again.
	byEndpoint := make(map[string]*group)
	for i, p := range roots {
		nr := resolved[i]
		g := byEndpoint[nr.Endpoint]
		if g == nil {
			g = &group{endpoint: nr.Endpoint, rootProxies: make(map[wire.Ref]*Proxy)}
			byEndpoint[nr.Endpoint] = g
		}
		g.roots = append(g.roots, nr)
		g.rootProxies[nr] = p
		p.rootRef, p.group, p.core = nr, g, nil
	}
	var calls []*recordedCall
	for _, rj := range rejected {
		for _, c := range rj.sb.calls {
			c.group = rootOf(c.target).group
			c.target.group = c.group
			if c.proxy != nil {
				c.proxy.group, c.proxy.core = c.group, nil
			}
			calls = append(calls, c)
		}
	}
	// Cross-root dataflow that the re-sharding split across homes cannot be
	// replayed by this retry: the producer's result would now have to cross
	// the network mid-wave. Settle those calls with a clear error carrying
	// the original wrong-home cause instead of an internal failure.
	for _, rj := range rejected {
		for _, c := range rj.sb.calls {
			if c.out.done {
				continue
			}
			for _, a := range c.args {
				if x, ok := a.(*Proxy); ok && x.origin != nil && x.group != c.group && byEndpoint[x.group.endpoint] == x.group {
					settle(c, nil, fmt.Errorf(
						"stale-route retry: %s consumes a result the re-sharding moved to %q while the call now targets %q: %w",
						c.method, x.group.endpoint, c.group.endpoint, rj.cause))
					break
				}
			}
		}
	}
	// Calls that now share a server replay in recording order.
	sort.Slice(calls, func(i, j int) bool { return calls[i].index < calls[j].index })
	return partition(calls), nil
}
