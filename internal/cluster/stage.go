package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// stage.go is the "execute" phase of the cluster flush pipeline: a walk over
// the planned stages, each run through ONE wave primitive (run.wave). The
// ship directives of a replicated wave (replicate.go), stale-route
// re-planning (reroute.go), read coalescing (flights.go) and the client half
// of pushed values (push.go) each sit behind a call or two from here. A
// destination keeps one core.Batch across all its
// stages, flushed with FlushAndContinue between stages and Flush on its last
// — the chained-batch session (§3.5) is what lets a later stage reference a
// same-server remote result from an earlier one by sequence number, with no
// extra traffic. Within one wave a call references any earlier call of its
// own sub-batch the same way, remote result or value, and takes a value of
// another destination's sub-batch as that destination's server pushes it
// (core.Batch.PushTo, core.Pushed).

// run is one flush's execution state.
type run struct {
	b     *Batch
	dests map[*group]*destState
	// servers is how many destinations the plan set out to reach.
	servers int
	// err accumulates the destinations that failed; nil while none has.
	err *FlushError
	// held are the exported result refs leased until the pipeline ends.
	held []wire.Ref
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
	cb    *core.Batch
	// lastStage is the last stage this destination participates in; its
	// flush there closes the server session.
	lastStage int
	// sb is the destination's sub-batch of the wave being run; keep is set
	// when its request keeps the session open for a later stage.
	sb   *subBatch
	keep bool
	// failed poisons the destination: every call of its later stages
	// settles locally with this error.
	failed error
	// repl is set by open when the batch is epoch-aware (WithDirectory) over
	// a replicated ring (R > 1) and every root of the destination is addressed
	// by cluster-wide name: the names, in payload order, its waves replicate
	// under (direct). An anonymous or system root has no shard identity, so
	// its destination flushes unreplicated.
	repl []string
}

// open creates the destination's multi-root core.Batch and rewires the
// group's root proxies onto it: a root no wave has resolved yet goes in by
// name, for the destination to resolve when the batch first reaches it.
// Caller holds b.mu.
func (ds *destState) open(b *Batch) error {
	var opts []core.Option
	if b.policy != nil {
		opts = append(opts, core.WithPolicy(b.policy))
	}
	first, rest := ds.group.roots[0], ds.group.roots[1:]
	if b.replicates(ds.group) {
		ds.repl = make([]string, 0, len(ds.group.roots))
		for _, p := range ds.group.roots {
			ds.repl = append(ds.repl, p.key)
		}
	}
	if first.lazy() {
		ds.cb = core.NewNamed(b.peer, ds.group.endpoint, first.key, opts...)
	} else {
		ds.cb = core.New(b.peer, first.rootRef, opts...)
	}
	first.core = ds.cb.Root()
	for _, p := range rest {
		var err error
		if p.lazy() {
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

// adoptRoots fills in, after the destination's first successful wave, the
// refs it resolved its named roots to: what later waves and arguments passed
// by reference address them by.
func (b *Batch) adoptRoots(ds *destState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range ds.group.roots {
		if p.lazy() {
			p.rootRef = p.core.RootRef()
		}
	}
}

// sessionOpen reports whether an earlier FlushAndContinue left a chained
// session on the server.
func (ds *destState) sessionOpen() bool { return ds.cb != nil && ds.cb.Session() != 0 }

// close releases the destination's chained session without executing
// anything. It is detached from the flush's own context — which may be what
// just failed, or already canceled — because a session nobody closes lingers
// server-side until its TTL.
func (ds *destState) close(ctx context.Context, peer *rmi.Peer) error {
	cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), core.DefaultSessionTTL/4)
	defer cancel()
	return core.ReleaseSession(cctx, peer, ds.group.endpoint, ds.cb.Session())
}

// execute walks the stage schedule: per stage one wave, then the stage's read
// flights settle. Wall-clock cost per stage is the slowest destination's
// round trip; total cost is one wave per stage, plus one for a stale retry.
func (b *Batch) execute(ctx context.Context, stages [][]*subBatch) error {
	r := &run{b: b, dests: make(map[*group]*destState)}
	r.plan(stages, 0)
	r.servers = len(r.dests)
	for s := 0; s < len(stages); s++ {
		subs := stages[s]
		if rejected := r.wave(ctx, s, subs); len(rejected) > 0 {
			stages = r.retry(ctx, s, rejected, stages)
		}
		// After the retry, so a retried leader publishes its final outcome, not
		// the transient rejection; every stage, since one with no wire work may
		// still hold followers of flights other batches lead.
		b.resolveFlights(ctx, subs)
	}
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

// plan notes, for every destination of stages[from:], the last stage it
// takes part in.
func (r *run) plan(stages [][]*subBatch, from int) {
	for s := from; s < len(stages); s++ {
		for _, sb := range stages[s] {
			r.dest(sb.group).lastStage = s
		}
	}
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
	live := r.prepare(ctx, stage, subs)
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
		case b.canRetryStale(ds, errs[i]):
			rejected = append(rejected, rejection{sb: ds.sb, cause: errs[i]})
		default:
			r.fail(ctx, ds, ds.sb, stage, errs[i])
		}
	}
	r.waited = waitedOn(subs, rejected)
	for i, ds := range live {
		if errs[i] == nil {
			r.settleSub(ds.sb, nil)
		}
	}
	propagate(subs)
	return rejected
}

// prepare is the one place destinations are opened and sub-batches
// translated: it returns the destinations of subs that have a request to
// send, directives attached. Calls are translated in recording order across
// destinations, so a producer has gone on the wire, or settled here, before
// any consumer of it is translated.
func (r *run) prepare(ctx context.Context, stage int, subs []*subBatch) []*destState {
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
		if ds.cb == nil {
			if err := ds.open(b); err != nil {
				r.fail(ctx, ds, sb, stage, err)
				continue
			}
		}
		open = append(open, ds)
		calls = append(calls, sb.calls...)
	}
	for _, c := range byIndex(calls) {
		r.translate(c)
	}
	var live []*destState
	for _, ds := range open {
		// Flush when the stage recorded calls for this destination, or when an
		// earlier wave left a session open and this is the destination's last
		// chance to close it.
		ds.keep = stage < ds.lastStage
		if ds.cb.PendingCalls() > 0 || (!ds.keep && ds.sessionOpen()) {
			live = append(live, ds)
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
	var err error
	switch {
	case ds.cb.PendingCalls() == 0:
		// Every call of the last stage settled locally: a pure session close,
		// attempted even when ctx is already canceled.
		err = ds.close(ctx, b.peer)
	case ds.keep:
		err = ds.cb.FlushAndContinue(ctx)
	default:
		err = ds.cb.Flush(ctx)
	}
	if err == nil {
		b.adoptRoots(ds)
	}
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
// attempt that arrives late cannot fail it — and rejects nothing.
// It returns the schedule the flush goes on with.
func (r *run) retry(ctx context.Context, s int, rejected []rejection, stages [][]*subBatch) [][]*subBatch {
	b := r.b
	replanned, err := b.rehome(ctx, b.dir, rejected, r.waited, stages[s+1:])
	b.mu.Lock()
	if err != nil {
		defer b.mu.Unlock()
		for _, rj := range rejected {
			r.fail(ctx, r.dests[rj.sb.group], rj.sb, s, fmt.Errorf("%w (%w)", rj.cause, err))
		}
		// The calls that waited for the refused values end as their requests
		// answered: failed for want of them.
		r.waited = nil
		for _, sb := range stages[s] {
			if ds := r.dests[sb.group]; ds.failed == nil && ds.cb != nil {
				r.settleSub(sb, nil)
			}
		}
		return stages
	}
	stages = append(stages[:s], replanned...)
	for _, sb := range stages[s] {
		r.reopen(r.dest(sb.group), sb)
		r.dest(sb.group).lastStage = s
	}
	r.plan(stages, s+1)
	r.flush, r.waited = 0, nil
	b.mu.Unlock()
	r.wave(ctx, s, stages[s])
	return stages
}

// reopen readies ds for the calls of sb the retry runs there again. A request
// that kept its session gets them on the same chained batch; one that closed
// its batch gets a new one, where a remote result of the closed request no
// longer resolves — a call that uses one fails. Caller holds b.mu.
func (r *run) reopen(ds *destState, sb *subBatch) {
	for _, c := range sb.calls {
		if c.proxy != nil {
			c.proxy.core = nil // the first attempt's; translate records the call again
		}
	}
	if ds.cb == nil || ds.keep {
		return
	}
	ds.cb = nil
	for _, c := range sb.calls {
		if slices.ContainsFunc(c.inputs(), func(in input) bool {
			p := in.producer
			return p.kind == kindRemote && p.group == c.group && p.out.done
		}) {
			settle(c, nil, fmt.Errorf("stale-route retry: %s uses a remote result of a request that closed its session", c.method))
		}
	}
}

// fail is the one fail-and-settle: it poisons ds, reports the failure on the
// flush's error and settles sb's open calls with err — also after a quorum
// miss, where the wave DID execute on the primary but its values must not
// surface as if they were durable. A failed destination drops out of the
// pipeline, so no later flush will release a chained session it left open;
// that is reaped in the background. Caller holds b.mu.
func (r *run) fail(ctx context.Context, ds *destState, sb *subBatch, stage int, err error) {
	ds.failed = err
	r.report(ds.group.endpoint, stage, err)
	r.settleSub(sb, err)
	if ds.sessionOpen() {
		go func() { _ = ds.close(ctx, r.b.peer) }() // best effort; close detaches from ctx and bounds itself
	}
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
// not waiting on another call's flight, not waiting for a stale-route retry —
// its outcome: err when the wave failed (or never ran), otherwise what the
// wave returned, copied out of the call's core future / core proxy once. A result pinned for forwarding is
// leased on the spot (rmi.Peer.HoldRef) so it outlives the server's marshal
// grace while the pipeline needs it. Caller holds b.mu.
func (r *run) settleSub(sb *subBatch, err error) {
	for _, c := range sb.calls {
		if c.out.done || c.following() || slices.Contains(r.waited, c) {
			continue
		}
		switch {
		case err != nil:
			settle(c, nil, err)
		case c.kind == kindValue:
			v, verr := c.sent.Get()
			settle(c, v, verr)
			if lostPush(verr) {
				r.report(sb.group.endpoint, c.stage, verr)
			}
		default:
			settle(c, nil, c.proxy.core.Ok())
			if !c.export {
				continue
			}
			if ref, rerr := c.proxy.core.ExportedRef(); rerr == nil {
				r.b.peer.HoldRef(ref)
				r.held = append(r.held, ref)
			}
		}
	}
}

// translate records one call into its destination's core.Batch, resolving
// its inputs. A call whose input failed settles locally with that error — the
// failure propagates through the dataflow without aborting independent calls.
// A value call some other destination's call of the same wave consumes pushes
// its value there. Caller holds b.mu.
func (r *run) translate(c *recordedCall) {
	b := r.b
	if c.out.done {
		return // settled earlier (a failed input, a cache fill)
	}
	if c.ckey != "" && !b.joinFlight(c) {
		return
	}
	cb := r.dests[c.group].cb
	target, args, waits, err := b.resolveInputs(c)
	if err != nil {
		settle(c, nil, err)
		return
	}
	if waits {
		cb.SetFlush(r.flushID())
	}
	switch {
	case c.kind == kindValue:
		c.sent = target.Call(c.method, args...)
		if eps := waiting(c); len(eps) > 0 {
			if err := cb.PushTo(c.sent, int64(c.index), eps); err != nil {
				settle(c, nil, err) // unreachable: c.sent is this batch's unflushed value call
				return
			}
			cb.SetFlush(r.flushID())
		}
	case c.export:
		c.proxy.core = target.CallBatchExport(c.method, args...)
	default:
		c.proxy.core = target.CallBatch(c.method, args...)
	}
}

// coreOf returns the core proxy standing for p in its destination's batch. A
// same-server reference passes to the server as is — even one whose call
// threw: the server resolves it by sequence number and applies the batch's
// policy. Only a producer that never reached the server has no core proxy,
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
//   - same-server proxies pass through as core proxies (the server resolves
//     them by sequence number, across stages via the chained session);
//   - cross-server root proxies pass as their refs (given, or resolved by
//     resolveForwarded before the flush was planned);
//   - cross-server result proxies pass as the exported ref pinned by the
//     producer's wave — forwarded by reference, the destination sees a stub;
//   - futures pass as their settled values — a cache hit's, or a staged
//     input's — or, while the producer rides this very sub-batch, as its core
//     future: the server splices that one, inside the request; one another
//     destination's request of the same wave carries passes as core.Pushed —
//     its server pushes the value to c's, and waits reports it.
//
// An error means a dependency failed and c must settle locally with it.
func (b *Batch) resolveInputs(c *recordedCall) (target *core.Proxy, args []any, waits bool, err error) {
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
			case x.origin == nil && x.lazy():
				// Resolved before planning (resolveForwarded) unless its
				// lookup failed or a stale-route retry split it from c.
				if err = x.err; err == nil {
					err = fmt.Errorf("cluster: %s passes root %q by reference to another server before any wave resolved it", c.method, x.key)
				}
			case x.origin == nil:
				args[i] = x.rootRef
			case x.err != nil:
				err = x.err
			default:
				var cp *core.Proxy
				if cp, err = coreOf(x); err == nil {
					args[i], err = cp.ExportedRef()
				}
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

// finish ends the pipeline: it drops the bridging leases in one batched DGC
// wave (one Clean per endpoint, endpoints in parallel), brings a ring that a
// failure showed stale up to date, and returns the flush's error.
// Destinations that received a forwarded ref hold their own lease while they
// retain the stub, and the lease-holder chain unwinds through DGC. Cleanup
// must outlive the flush's own context: a cancellation that aborted the
// waves is exactly when prompt lease release matters most.
func (r *run) finish(ctx context.Context) error {
	if len(r.held) > 0 {
		r.b.peer.ReleaseRefs(context.WithoutCancel(ctx), r.held)
	}
	if r.err == nil {
		return nil
	}
	if r.stale && r.b.dir != nil {
		// A wrong-home or stale-ship failure the flush could not retry — the
		// session was already open, the retry spent, or the wave executed before
		// a follower fenced it — still says this client's ring is behind. Catch
		// up now, best effort: nothing else on the flush path would, and the
		// client's next flush would route to the same dead home.
		_ = r.b.dir.Refresh(ctx)
	}
	if r.b.StaleRetried() {
		r.err.Retries = 1
	}
	return r.err
}
