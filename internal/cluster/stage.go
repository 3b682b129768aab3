package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rmi"
)

// stage.go is the "execute" phase of the cluster flush pipeline: a walk over
// the planned stages, each run through ONE wave primitive (run.wave). The
// ship directives of a replicated wave (replicate.go), stale-route
// re-planning (reroute.go), the lease cache (leases.go) and the client half
// of pushed values (push.go) each sit behind a call or two from here. Every
// wave sends each of its destinations a fresh core.Batch, ended with Flush:
// no cluster request opens, keeps or continues a server session. Within one
// wave a call references any earlier call of its own sub-batch by sequence
// number, remote result or value, and takes a result of another destination's
// sub-batch as that destination's server pushes it (core.Batch.PushTo,
// core.Pushed): a value as a copy, a remote result as a stub. Nothing of a
// wave outlives it but the values the client settles.

// run is one flush's execution state.
type run struct {
	b     *Batch
	dests map[*group]*destState
	// stages is the schedule being run: the plan, and after a stale-route
	// retry the re-plan in place of the retried stage and later.
	stages [][]*subBatch
	// servers is how many destinations the plan set out to reach.
	servers int
	// err accumulates the destinations that failed; nil while none has.
	err *FlushError
	// stale is set once a destination failed wrong-home, or behind a
	// primary's or follower's ring epoch, without a retry.
	stale bool
	// flush is the id the wave's requests push values under, minted at the
	// first push (flushID); a stale-route retry's wave mints its own.
	flush uint64
	// waited are, while a wave with refused requests settles, the calls of
	// its other requests that waited for a value a refused request was to
	// push (waitedOn): they failed for want of it, unexecuted, and stay open
	// for the retry to run again.
	waited []*recordedCall
}

// destState is one destination's execution state across stages.
type destState struct {
	group *group
	// cb and sb are the destination's request and sub-batch of the wave being
	// run.
	cb *core.Batch
	sb *subBatch
	// ran is set once a wave executed here: a later refusal is final
	// (canRetryStale).
	ran bool
	// failed poisons the destination: every call of its later stages
	// settles locally with this error.
	failed error
	// riders are the due leases the wave's request re-reads after its calls
	// (addRiders).
	riders []rider
}

// open creates the destination's multi-root core.Batch for the wave and
// rewires the group's root proxies onto it: a named root goes in by name, in
// every wave, for the destination to resolve when the batch reaches it. A
// replicating destination with a root bound away from its home is refused.
// Caller holds b.mu.
func (ds *destState) open(b *Batch) error {
	if b.replicates(ds.group) {
		if i := slices.IndexFunc(ds.group.roots, func(p *Proxy) bool { return p.elsewhere }); i >= 0 {
			p := ds.group.roots[i]
			return &BoundAwayError{Name: p.key, Ref: p.rootRef}
		}
	}
	first, rest := ds.group.roots[0], ds.group.roots[1:]
	if first.byName() {
		ds.cb = core.NewNamed(b.peer, ds.group.endpoint, first.key)
	} else {
		ds.cb = core.New(b.peer, first.rootRef)
	}
	first.core = ds.cb.Root()
	for _, p := range rest {
		var err error
		if p.byName() {
			p.core, err = ds.cb.AddRootNamed(p.key)
		} else {
			p.core, err = ds.cb.AddRoot(p.rootRef)
		}
		if err != nil {
			// Unreachable: every root in a group shares its endpoint.
			return err
		}
	}
	return nil
}

// execute walks the stage schedule, one wave per stage, and then ends and
// renews the leases of the objects the flush's writes reached (renew).
// Wall-clock cost per stage is the slowest destination's round trip; total
// cost is one wave per stage, plus one for a stale retry.
func (b *Batch) execute(ctx context.Context, stages [][]*subBatch) error {
	r := &run{b: b, dests: make(map[*group]*destState), stages: stages}
	for _, subs := range stages {
		for _, sb := range subs {
			r.dest(sb.group)
		}
	}
	r.servers = len(r.dests)
	for s := 0; s < len(r.stages); s++ {
		if rejected := r.wave(ctx, s, r.stages[s]); len(rejected) > 0 {
			r.retry(ctx, s, rejected)
		}
	}
	b.renew()
	return r.finish(ctx)
}

// dest returns g's execution state, adding it to the run when a re-plan
// brought in a destination the run had not met. Caller holds b.mu, or is
// the run's only goroutine.
func (r *run) dest(g *group) *destState {
	ds := r.dests[g]
	if ds == nil {
		ds = &destState{group: g}
		r.dests[g] = ds
	}
	return ds
}

// wave is one round trip per destination, concurrently: every destination of
// the stage gets its request (prepare), and the wave ends when every one has
// answered (flushDest). A replicating destination's request carries a ship
// directive (direct), its primary forwards the wave to its followers before it
// replies, and the reply carries the wave's results and, when the quorum was
// missed, the *QuorumError the flush fails with — each destination settles
// from its own reply. A value that crosses destinations goes from its
// producer's server straight to its consumer's, inside the wave. A
// destination whose failure is a stale route the flush may still retry is
// neither settled nor failed: its sub-batch is returned, untouched, for
// rehome — it executed nothing, so nothing was shipped or pushed — and so are
// left open the calls of other requests that waited for its values.
func (r *run) wave(ctx context.Context, stage int, subs []*subBatch) (rejected []rejection) {
	b := r.b
	live := r.prepare(stage, subs)
	if len(live) == 0 {
		return nil
	}
	// One round trip per destination, concurrently; barrier before the next
	// stage may consume this one's results.
	start := b.reg.Now()
	errs := make([]error, len(live))
	_ = fanOut(live, func(i int, ds *destState) error { // per-destination errors are kept in errs
		errs[i] = r.flushDest(ctx, ds)
		return nil
	})
	b.stageNs.Observe(b.reg.Now().Sub(start).Nanoseconds())

	b.mu.Lock()
	defer b.mu.Unlock()
	b.waves++
	b.flushWaves.Inc()
	for i, ds := range live {
		switch {
		case errs[i] == nil:
			ds.ran = true
		case b.canRetryStale(ds, errs[i]):
			rejected = append(rejected, rejection{sb: ds.sb, cause: errs[i]})
		default:
			r.fail(ds, ds.sb, stage, errs[i])
		}
	}
	r.waited = waitedOn(subs, rejected)
	for i, ds := range live {
		if errs[i] == nil {
			r.settleSub(ds.sb, nil)
		}
		b.fileRiders(ds, errs[i])
	}
	propagate(subs)
	return rejected
}

// prepare is the one place destinations are opened and sub-batches
// translated: it returns the destinations of subs that have a request to
// send, directives and riders attached. Calls are translated in recording
// order across destinations, so a producer has gone on the wire, or settled
// here, before any consumer of it is translated.
func (r *run) prepare(stage int, subs []*subBatch) []*destState {
	b := r.b
	b.mu.Lock() // so concurrent readers of futures and proxies see a consistent rewiring
	defer b.mu.Unlock()
	var open []*destState
	var calls []*recordedCall
	for _, sb := range subs {
		ds := r.dest(sb.group)
		ds.sb = sb
		if ds.failed != nil {
			r.settleSub(sb, ds.failed)
			continue
		}
		if err := ds.open(b); err != nil {
			r.fail(ds, sb, stage, err)
			continue
		}
		open = append(open, ds)
		calls = append(calls, sb.calls...)
	}
	for _, c := range byIndex(calls) {
		r.translate(c)
	}
	var live []*destState
	for _, ds := range open {
		if ds.cb.PendingCalls() > 0 {
			live = append(live, ds)
			r.addRiders(stage, ds)
		}
	}
	b.direct(live)
	return live
}

// flushDest sends ds its request of the wave. A request that failed tells the
// servers waiting for the values it was to push at once (notify): their
// consumers fail then, not at the rendezvous bound, and the wave's barrier
// does not wait for a value that will not come.
func (r *run) flushDest(ctx context.Context, ds *destState) error {
	b := r.b
	err := ds.cb.Flush(ctx)
	if lag := ds.cb.ShipLag(); lag > 0 {
		b.quorumWaits.Inc()
		b.replLag.Observe(lag.Nanoseconds())
	}
	if err != nil {
		b.mu.Lock()
		r.notify(ctx, ds.sb, err)
		b.mu.Unlock()
	}
	return err
}

// retry spends the flush's one stale-route retry on the refusals of stage s:
// a destination refused the wave at first contact because one of its roots is
// not there. It re-plans at the new homes (rehome) — this stage's refused
// calls, the calls that waited for their values, and every later stage, where
// a call bound for a refused destination follows its root — and runs the
// same wave again, before the next stage, which may consume these results.
// The retried wave pushes under a flush id of its own — a notice of the first
// attempt that arrives late cannot fail it — and rejects nothing. A call the
// re-plan refused fails the flush at its new destination. The flush goes on
// with the re-plan in place of stage s and later (r.stages).
func (r *run) retry(ctx context.Context, s int, rejected []rejection) {
	b := r.b
	stages := r.stages
	replanned, refused, err := b.rehome(ctx, b.dir, rejected, r.waited, stages[s+1:])
	b.mu.Lock()
	if err != nil {
		defer b.mu.Unlock()
		for _, rj := range rejected {
			r.fail(r.dests[rj.sb.group], rj.sb, s, fmt.Errorf("%w (%w)", rj.cause, err))
		}
		// The calls that waited for the refused values end as their requests
		// answered: failed for want of them.
		r.waited = nil
		for _, sb := range stages[s] {
			if ds := r.dests[sb.group]; ds.failed == nil && ds.cb != nil {
				r.settleSub(sb, nil)
			}
		}
		return
	}
	for _, c := range refused {
		r.report(c.group.endpoint, c.stage, c.out.err)
	}
	stages = append(stages[:s], replanned...)
	r.stages = stages
	for _, sb := range stages[s] {
		for _, c := range sb.calls {
			if c.proxy != nil {
				c.proxy.core = nil // the first attempt's; translate records the call again
			}
		}
	}
	r.flush, r.waited = 0, nil
	b.mu.Unlock()
	r.wave(ctx, s, stages[s])
}

// fail is the one fail-and-settle: it poisons ds, reports the failure on the
// flush's error and settles sb's open calls with err — also after a quorum
// miss, where the wave DID execute on the primary but its values must not
// surface as if they were durable. Caller holds b.mu.
func (r *run) fail(ds *destState, sb *subBatch, stage int, err error) {
	ds.failed = err
	r.report(ds.group.endpoint, stage, err)
	r.settleSub(sb, err)
}

// report adds a destination's failure to the flush's error. Caller holds
// b.mu.
func (r *run) report(endpoint string, stage int, err error) {
	if r.err == nil {
		r.err = &FlushError{Servers: r.servers}
	}
	var qe *QuorumError
	if errors.As(err, &qe) && r.err.Quorum == nil {
		r.err.Quorum = qe
	}
	var wrong *rmi.WrongHomeError
	var ship *StaleShipError
	if errors.As(err, &wrong) || errors.As(err, &ship) {
		r.stale = true
	}
	r.err.Failures = append(r.err.Failures, ServerError{Endpoint: endpoint, Stage: stage, Err: err})
}

// settleSub gives every call of sb that is still open — not settled locally,
// not waiting for a stale-route retry — its outcome: err when the wave
// failed (or never ran), otherwise what the wave returned, copied out of the
// call's core future / core proxy once, and a cacheable read's value filed
// under its lease (CallRO). The wave's batch is spent after this. A call that
// failed for want of a pushed result fails the flush too. Caller holds b.mu.
func (r *run) settleSub(sb *subBatch, err error) {
	for _, c := range sb.calls {
		if c.out.done || slices.Contains(r.waited, c) {
			continue
		}
		switch {
		case err != nil:
			settle(c, nil, err)
		case c.kind == kindValue:
			v, verr := c.sent.Get()
			settle(c, v, verr)
			if verr == nil && c.lease.Key != "" {
				r.b.cache.Put(c.lease.Key, c.lease.Obj, v, c.lease.Gen, c.lease.Epoch)
			}
		default:
			settle(c, nil, c.proxy.core.Ok())
		}
		if err == nil && lostPush(c.out.err) {
			r.report(sb.group.endpoint, c.stage, c.out.err)
		}
		if c.proxy != nil {
			c.proxy.core = nil
		}
	}
}

// translate records one call into its destination's core.Batch, resolving
// its inputs. A call whose input failed settles locally with that error — the
// failure propagates through the dataflow without aborting independent calls.
// A call some other destination's call of the same wave consumes pushes its
// result there. Caller holds b.mu.
func (r *run) translate(c *recordedCall) {
	if c.out.done {
		return // settled earlier (a failed input)
	}
	cb := r.dests[c.group].cb
	target, args, waits, err := resolveInputs(c)
	if err != nil {
		settle(c, nil, err)
		return
	}
	if waits {
		cb.SetFlush(r.flushID())
	}
	var result any
	if c.kind == kindValue {
		c.sent = target.Call(c.method, args...)
		result = c.sent
	} else {
		c.proxy.core = target.CallBatch(c.method, args...)
		result = c.proxy.core
	}
	if eps := waiting(c); len(eps) > 0 {
		if err := cb.PushTo(result, int64(c.index), eps); err != nil {
			settle(c, nil, err) // unreachable: result is this batch's unflushed call
			return
		}
		cb.SetFlush(r.flushID())
	}
}

// coreOf returns the core proxy standing for p in its destination's batch of
// the wave. A reference to a call of the same request passes to the server as
// is — even one whose call threw: the server resolves it by sequence number
// and aborts the rest of the request (core.AbortPolicy). A producer that
// threw in an earlier wave, or never reached the server, has no core proxy,
// and its consumer settles locally with the producer's error.
func coreOf(p *Proxy) (*core.Proxy, error) {
	switch {
	case p.core != nil:
		return p.core, nil
	case p.err != nil:
		return nil, p.err
	}
	return nil, errors.New("cluster: internal: reference to an untranslated call")
}

// resolveInputs materializes c's target and arguments for its core.Batch:
//
//   - same-server proxies pass through as core proxies: the server resolves
//     one of the same request by sequence number;
//   - cross-server root proxies pass as their refs (given, or resolved by
//     resolveForwarded before the flush was planned);
//   - a cross-server result proxy, or a future whose producer another
//     destination's request of the same wave carries, passes as core.Pushed:
//     the producer's server pushes the result to c's — a remote result as its
//     exported reference — and waits reports it;
//   - other futures pass as their settled values — a cache hit's, or a staged
//     input's — or, while the producer rides this very sub-batch, as its core
//     future: the server splices that one, inside the request.
//
// An error means a dependency failed and c must settle locally with it.
func resolveInputs(c *recordedCall) (target *core.Proxy, args []any, waits bool, err error) {
	if target, err = coreOf(c.target); err != nil {
		return nil, nil, false, err
	}
	args = make([]any, len(c.args))
	for i, a := range c.args {
		switch x := a.(type) {
		case *Proxy:
			switch {
			case x.group == c.group:
				args[i], err = coreOf(x)
			case x.err != nil:
				err = x.err
			case x.origin != nil && x.core != nil && x.origin.stage == c.stage:
				args[i], waits = core.Pushed{Tag: int64(x.origin.index)}, true
			case !x.rootRef.IsZero():
				args[i] = x.rootRef
			case x.lazy():
				// Looked up before planning: resolveForwarded, or rehome.
				err = fmt.Errorf("cluster: internal: %s passes root %q to another server unresolved", c.method, x.key)
			default:
				err = fmt.Errorf("cluster: internal: the result of %s crosses waves", x.origin.method)
			}
		case *Future:
			switch {
			case x.done && x.err != nil:
				err = x.err
			case x.done:
				args[i] = x.val
			case x.origin.group == c.group && x.origin.sent != nil:
				args[i] = x.origin.sent
			case x.origin.sent != nil && x.origin.stage == c.stage:
				args[i], waits = core.Pushed{Tag: int64(x.origin.index)}, true
			default:
				err = fmt.Errorf("cluster: internal: argument %d of %s is an unsettled future", i, c.method)
			}
		default:
			args[i] = a
		}
		if err != nil {
			return nil, nil, false, err
		}
	}
	return target, args, waits, nil
}

// finish ends the pipeline: it brings a ring that a failure showed stale up
// to date, and returns the flush's error.
func (r *run) finish(ctx context.Context) error {
	if r.err == nil {
		return nil
	}
	if r.stale && r.b.dir != nil {
		// A wrong-home or stale-ship failure the flush could not retry — an
		// earlier wave already ran there, the retry was spent, or the wave
		// executed before a follower fenced it — still says this client's
		// ring is behind. Catch up now, best effort: nothing else on the flush
		// path would, and the client's next flush would route to the same
		// dead home.
		_ = r.b.dir.Refresh(ctx)
	}
	if r.b.StaleRetried() {
		r.err.Retries = 1
	}
	return r.err
}
