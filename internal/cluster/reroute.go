package cluster

import (
	"cmp"
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
// bound for the roots' new homes. It flushes nothing and looks up only a named
// root the re-plan passes to another server without a ref — the executor
// hands rehome's result to the same wave every other sub-batch runs through,
// and the new homes resolve the names that wave carries.

// rejection is a sub-batch whose destination refused the wave without
// executing it, and the refusal.
type rejection struct {
	sb    *subBatch
	cause error
}

// resolver is what rehome needs of the naming layer (*Directory): a fresh
// ring, a name's home on it, and what the home binds the name to.
type resolver interface {
	Refresh(ctx context.Context) error
	Home(name string) (string, error)
	Lookup(ctx context.Context, name string) (wire.Ref, error)
}

// canRetryStale decides whether a failed destination wave may be retried
// against a refreshed shard map. Caller holds b.mu.
//
// The retry re-routes the destination's named roots (Proxy.key, set by
// RootNamed) and replays its calls — this stage's and every later one's —
// against a fresh core batch at the new homes, so it is only sound when (a)
// nothing earlier in the flush is left behind at the old home — the batch
// must be epoch-aware (WithDirectory) and the refusal must be the
// destination's FIRST CONTACT in this flush, no earlier wave having executed
// there (what ran there cannot follow the object to its new home) —
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
	if b.dir == nil || b.retried || ds.ran {
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
// to its home on the fresh ring, left for that home to resolve (and looked
// up, before planning, if some call now passes it to another server without
// a ref); one its old home reported bound elsewhere to that binding; an
// un-named root nowhere:
// if it was the migrated object there is no key to re-route it by, and the
// retried wave fails wrong-home again, this time finally — and regroups
// their calls per new home: two old homes that merge into one new home cost
// one round trip. The calls that follow their roots are the rejected
// sub-batches' and, in the later stages, every call that was bound for a
// rejected destination. Everything no wave has settled yet — the rejected
// calls, the calls of the wave's other requests that waited for a value a
// rejected request was to push (waited: they stay on their destinations), and
// all of later — is then staged again (planStages): a value that flowed
// between two roots sharing a server, inside one request, and that the
// re-sharding split across homes is one more push. A call that takes a
// remote result a wave that ran already produced, which lived only in that
// wave, is refused (outlives). The result replaces the rejected stage and
// later: its first element is the wave to run again. refused lists the calls
// the re-plan settled with an error, for the flush to report. An error means
// nothing was re-planned and the rejections are final.
func (b *Batch) rehome(ctx context.Context, dir resolver, rejected []rejection, waited []*recordedCall, later [][]*subBatch) ([][]*subBatch, []*recordedCall, error) {
	b.mu.Lock()
	b.retried = true
	b.wrongHome.Inc()
	b.mu.Unlock()
	var refused []*recordedCall
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
			return nil, nil, fmt.Errorf("stale-route retry: ring refresh failed: %w", err)
		}
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	// Where each root goes and the ref other servers reach it by from there
	// on: a named root re-routed home keeps the one it had there. Nothing is
	// rewired until every root has a home.
	type move struct {
		root *Proxy
		home string
		ref  wire.Ref
		away bool
	}
	var moves []move
	for _, rj := range rejected {
		for _, p := range rj.sb.group.roots {
			m := move{root: p, home: p.rootRef.Endpoint, ref: p.rootRef}
			if e := bound[p.key]; e != nil && p.key != "" {
				m.home, m.ref, m.away = e.Ref.Endpoint, e.Ref, true
			} else if p.key != "" {
				var err error
				if m.home, err = dir.Home(p.key); err != nil {
					return nil, nil, fmt.Errorf("stale-route retry: re-route %q: %w", p.key, err)
				}
				if m.ref.Endpoint != m.home {
					m.ref = wire.Ref{}
				}
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
		m.root.group, m.root.core, m.root.rootRef, m.root.elsewhere = g, nil, m.ref, m.away
	}
	stage := rejected[0].sb.calls[0].stage // the one stage every rejection is of
	var open []*recordedCall               // everything no wave has settled yet
	for _, rj := range rejected {
		open = append(open, rj.sb.calls...)
	}
	affected := slices.Clone(open) // the part of it that follows a moved root
	open = append(open, waited...)
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
			if x, ok := a.(*Proxy); ok && x.origin != nil && x.group == c.group && rootOf(x).group != to {
				settle(c, nil, fmt.Errorf(
					"stale-route retry: %s consumes a result the re-sharding moved to %q while the call now targets %q: %w",
					c.method, rootOf(x).group.endpoint, to.endpoint, causes[c.group]))
				refused = append(refused, c)
				break
			}
		}
	}
	// What a call refused again below follows: its own destination's
	// refusal, or, for one that waited for a refused value, the first.
	refusal := make(map[*recordedCall]error, len(open))
	for _, c := range open {
		refusal[c] = cmp.Or(causes[c.group], rejected[0].cause)
	}
	// Re-home every affected call (and the proxy it settles) to its root's
	// group, so the planner, partition and translate see a consistent
	// recording again.
	repoint(affected)
	// A named root the re-plan now passes to another server without a ref is
	// looked up first. One not bound where it was re-routed to is refused
	// there too, and fails the calls that pass it with its own.
	if fwd := slices.DeleteFunc(forwardedRoots(open), func(p *Proxy) bool { return p.err != nil }); len(fwd) > 0 {
		b.mu.Unlock()
		refs, errs := lookUp(ctx, dir, fwd)
		b.mu.Lock()
		for i, p := range fwd {
			switch {
			case errs[i] != nil:
				p.err = errs[i]
			case refs[i].Endpoint != p.group.endpoint:
				p.err = fmt.Errorf("stale-route retry: %q is bound on %s, not at %s", p.key, refs[i].Endpoint, p.group.endpoint)
			default:
				p.rootRef = refs[i]
			}
		}
	}
	nstages, err := planStages(byIndex(open))
	if err != nil {
		return nil, nil, fmt.Errorf("stale-route retry: %w", err)
	}
	// A remote result lives only in its wave: a call the re-plan puts in a
	// later wave than its remote input, or whose remote input a wave that ran
	// already produced, is refused.
	for _, c := range open {
		if err := outlives(c); err != nil {
			err.Cause = cmp.Or(err.Cause, refusal[c])
			settle(c, nil, err)
			refused = append(refused, c)
		}
	}
	return buildStages(open, nstages)[stage:], refused, nil
}

// byIndex sorts calls into recording order, in place: calls that now share a
// server replay in the order they were recorded.
func byIndex(calls []*recordedCall) []*recordedCall {
	sort.Slice(calls, func(i, j int) bool { return calls[i].index < calls[j].index })
	return calls
}
