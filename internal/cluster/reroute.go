package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// reroute.go is the stale-route retry as a re-planner: canRetryStale decides
// which failed waves qualify, rehome turns their sub-batches into sub-batches
// bound for the roots' new homes. It flushes nothing and looks nothing up —
// the executor hands rehome's result to the same wave every other sub-batch
// runs through, and the new homes resolve the names that wave carries.

// rejection is a sub-batch whose destination refused the wave without
// executing it, and the refusal.
type rejection struct {
	sb    *subBatch
	cause error
}

// resolver is what rehome needs of the naming layer (*Directory): a fresh
// ring, and a name's home on it.
type resolver interface {
	Refresh(ctx context.Context) error
	Home(name string) (string, error)
}

// canRetryStale decides whether a failed destination wave may be retried
// against a refreshed shard map. Caller holds b.mu.
//
// The retry re-routes the destination's named roots (Proxy.key, set by
// RootNamed) and replays its calls — this stage's and every later one's —
// against a fresh core batch at the new homes, so it is only sound when (a)
// nothing server-side is lost with the old session — the batch must be
// epoch-aware (WithDirectory) and the refusal must be the destination's
// FIRST CONTACT in this flush, with no chained session open (earlier results
// live only in that session and cannot follow the object to its new home) —
// and (b) the wave is known NOT to have executed. Four failure classes
// qualify: a wrong-home rejection (the server refused the wave before
// running it — an id it tombstoned, or a name its registry forwards), a name
// bound to an object on another endpoint (*core.ElsewhereError, which
// carries where), a primary whose ring is newer than the epoch the wave's
// ship directive was fenced by (*StaleShipError: it vets the directive before
// it executes anything), and a dial failure (transport.DialError: the request
// never left the client — the shape a crashed primary produces after failover
// re-homed its shards). A name the home does not know
// (*registry.NotBoundError) is final, as it was for a lookup. A mid-call
// connection loss does NOT qualify: the server may have executed the wave
// before the response was lost. Neither does a quorum miss, whatever it
// wraps — a follower's *StaleShipError included: the primary applied the
// wave, a re-send could double-apply. One retry per flush.
func (b *Batch) canRetryStale(ds *destState, err error) bool {
	if b.dir == nil || b.retried || ds.sessionOpen() {
		return false
	}
	var qe *QuorumError
	if errors.As(err, &qe) {
		return false
	}
	var wrong *rmi.WrongHomeError
	var elsewhere *core.ElsewhereError
	var ship *StaleShipError
	var dial *transport.DialError
	return errors.As(err, &wrong) || errors.As(err, &elsewhere) || errors.As(err, &ship) || errors.As(err, &dial)
}

// rehome spends the flush's one stale-route retry on re-planning. It
// refreshes the shard map once (unless every refusal already says where its
// root is), re-routes the roots of ALL rejected destinations — a named root
// to its home on the fresh ring, left for that home to resolve; one its old
// home reported bound elsewhere to that binding; an un-named root nowhere:
// if it was the migrated object there is no key to re-route it by, and the
// retried wave fails wrong-home again, this time finally — and regroups
// their calls per new home: two old homes that merge into one new home cost
// one round trip. The calls that follow their roots are the rejected
// sub-batches' and, in the later stages, every call that was bound for a
// rejected destination. Everything no wave has settled yet — the rejected
// calls and all of later — is then staged again (planStages): a value that
// flowed between two roots sharing a server, inside one wave, and that the
// re-sharding split across homes now goes through the client, its consumer
// waiting for the wave after its producer's. The result replaces the rejected
// stage and later: its first element is the wave to run again, and it may be
// a stage longer than what it replaces. An error means nothing was re-planned
// and the rejections are final.
func (b *Batch) rehome(ctx context.Context, dir resolver, rejected []rejection, later [][]*subBatch) ([][]*subBatch, error) {
	b.mu.Lock()
	b.retried = true
	b.wrongHome.Inc()
	b.mu.Unlock()
	causes := make(map[*group]error, len(rejected))
	bound := make(map[string]*core.ElsewhereError)
	refresh := false
	for _, rj := range rejected {
		causes[rj.sb.group] = rj.cause
		var e *core.ElsewhereError
		if errors.As(rj.cause, &e) {
			bound[e.Name] = e
		} else {
			refresh = true
		}
	}
	if refresh {
		if err := dir.Refresh(ctx); err != nil {
			return nil, fmt.Errorf("stale-route retry: ring refresh failed: %w", err)
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	// Where each root goes and what it is addressed by from there on (the
	// zero ref: by name). Nothing is rewired until every root has a home.
	type move struct {
		root *Proxy
		home string
		ref  wire.Ref
	}
	var moves []move
	for _, rj := range rejected {
		for _, p := range rj.sb.group.roots {
			m := move{root: p, home: p.rootRef.Endpoint, ref: p.rootRef}
			if e := bound[p.key]; e != nil && p.key != "" {
				m.home, m.ref = e.Ref.Endpoint, e.Ref
			} else if p.key != "" {
				var err error
				if m.home, err = dir.Home(p.key); err != nil {
					return nil, fmt.Errorf("stale-route retry: re-route %q: %w", p.key, err)
				}
				m.ref = wire.Ref{}
			}
			moves = append(moves, m)
		}
	}
	// Rewire the roots into one fresh group per new home.
	byEndpoint := make(map[string]*group)
	for _, m := range moves {
		g := byEndpoint[m.home]
		if g == nil {
			g = &group{endpoint: m.home}
			byEndpoint[m.home] = g
		}
		g.roots = append(g.roots, m.root)
		m.root.group, m.root.core, m.root.rootRef = g, nil, m.ref
	}
	stage := rejected[0].sb.calls[0].stage // the one stage every rejection is of
	var open []*recordedCall               // everything no wave has settled yet
	for _, rj := range rejected {
		open = append(open, rj.sb.calls...)
	}
	affected := slices.Clone(open) // the part of it that follows a moved root
	for _, subs := range later {
		for _, sb := range subs {
			open = append(open, sb.calls...)
			if causes[sb.group] != nil {
				affected = append(affected, sb.calls...)
			}
		}
	}
	// A remote result passed between two roots that shared a server — so the
	// consumer was promised the object itself, not a stub — and that the
	// re-sharding split across homes cannot be replayed by this retry. Settle
	// those calls with a clear error carrying their own destination's refusal
	// instead of an internal failure.
	for _, c := range affected {
		if c.out.done {
			continue
		}
		to := rootOf(c.target).group
		for _, a := range c.args {
			if x, ok := a.(*Proxy); ok && x.origin != nil && !x.origin.export && rootOf(x).group != to {
				settle(c, nil, fmt.Errorf(
					"stale-route retry: %s consumes a result the re-sharding moved to %q while the call now targets %q: %w",
					c.method, rootOf(x).group.endpoint, to.endpoint, causes[c.group]))
				break
			}
		}
	}
	// Re-home every affected call (and the proxy it settles) to its root's
	// group, so the planner, partition and translate see a consistent
	// recording again.
	repoint(affected)
	nstages, err := planStages(byIndex(open))
	if err != nil {
		return nil, fmt.Errorf("stale-route retry: %w", err)
	}
	return buildStages(open, nstages)[stage:], nil
}

// byIndex sorts calls into recording order, in place: calls that now share a
// server replay in the order they were recorded.
func byIndex(calls []*recordedCall) []*recordedCall {
	sort.Slice(calls, func(i, j int) bool { return calls[i].index < calls[j].index })
	return calls
}
