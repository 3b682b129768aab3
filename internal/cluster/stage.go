package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stage.go is the "execute" phase of the cluster flush pipeline: it runs
// the planned stages in order. Each destination keeps ONE core.Batch across
// all its stages, flushed with FlushAndContinue between stages and Flush on
// its last — the chained-batch session (§3.5) is what lets a later stage
// reference a same-server result from an earlier one by sequence number,
// with no extra traffic. Between stages the executor materializes staged
// inputs: exported refs of remote results are pulled from the response and
// forwarded by reference; future values are spliced in by value.

// shipTimeout bounds one replication ship (the Append call carrying a wave
// to a follower). Ships past the quorum ack keep running after replicate
// returns, so they must have a deadline of their own — the flush's ctx may
// never cancel. Variable so tests can shrink it.
var shipTimeout = 30 * time.Second

// destState is one destination's execution state across stages.
type destState struct {
	group *group
	cb    *core.Batch
	// lastStage is the last stage this destination participates in; its
	// flush there closes the server session.
	lastStage int
	// sessionOpen is true after a FlushAndContinue left a server session
	// behind.
	sessionOpen bool
	// failed poisons the destination: every call of its later stages
	// settles locally with this error.
	failed error
	// repl is the destination's replication pipeline, armed by open when
	// the batch is epoch-aware over a replicated ring and every root is a
	// named movable; nil otherwise.
	repl *replState
}

// replState is one replicated destination's shipping identity: the chain id
// linking its waves through one shadow session on each follower, the root
// names/interfaces in payload order, and the payload of the wave just
// executed (captured by the core batch's OnShip hook, consumed by
// Batch.replicate on the wave goroutine).
type replState struct {
	chain   string
	names   []string
	ifaces  []string
	seq     int
	payload any
}

// chainSeq disambiguates replication chains minted by one client process;
// combined with the peer's DGC client id the chain is globally unique.
var chainSeq atomic.Uint64

// open creates the destination's multi-root core.Batch and rewires the
// group's root proxies onto it. Caller holds b.mu.
func (ds *destState) open(b *Batch) error {
	var opts []core.Option
	if b.policy != nil {
		opts = append(opts, core.WithPolicy(b.policy))
	}
	cb := core.New(b.peer, ds.group.roots[0], opts...)
	ds.group.rootProxies[ds.group.roots[0]].core = cb.Root()
	for _, ref := range ds.group.roots[1:] {
		cp, err := cb.AddRoot(ref)
		if err != nil {
			// Unreachable: every root in a group shares its endpoint.
			return err
		}
		ds.group.rootProxies[ref].core = cp
	}
	ds.cb = cb
	b.armReplication(ds)
	return nil
}

// armReplication decides whether ds's waves replicate and, if so, wires the
// payload capture. Replication applies only when the batch is epoch-aware
// (WithDirectory) over a replicated ring (R > 1) and every root of the
// destination is addressed by cluster-wide name (RootNamed) with a
// registered movable factory — an anonymous or system root has no shard
// identity to replicate under, so its destination flushes unreplicated.
// Caller holds b.mu.
func (b *Batch) armReplication(ds *destState) {
	if b.dir == nil || b.dir.Replication() <= 1 {
		return
	}
	names := make([]string, len(ds.group.roots))
	ifaces := make([]string, len(ds.group.roots))
	for i, ref := range ds.group.roots {
		p := ds.group.rootProxies[ref]
		if p.key == "" {
			return
		}
		if _, ok := movableFactory(ref.Iface); !ok {
			return
		}
		names[i] = p.key
		ifaces[i] = ref.Iface
	}
	rs := &replState{
		chain:  fmt.Sprintf("%s#%d", b.peer.ClientID(), chainSeq.Add(1)),
		names:  names,
		ifaces: ifaces,
	}
	ds.repl = rs
	ds.cb.OnShip(func(req any, _ bool) { rs.payload = req })
}

// replicate ships the wave that just executed on ds's primary to every
// follower of its roots' shards and blocks until the write quorum holds it.
// It runs on the wave goroutine, after the primary flush succeeded and
// before the stage barrier, so the ack a caller observes — Flush returning,
// futures settling — implies the wave survives the primary's death.
//
// The shipped record is fenced by the ring epoch read together with the
// owner lists: a follower whose node adopted a newer ring rejects it
// (StaleShipError), failing the flush rather than letting a stale owner
// list smuggle a write into a re-placed shard. A returned *QuorumError
// fails the destination WITHOUT the stale-route retry: the primary already
// applied the wave, so a re-send could double-apply.
func (b *Batch) replicate(ctx context.Context, ds *destState) error {
	rs := ds.repl
	if rs == nil || rs.payload == nil {
		return nil // unreplicated destination, or a wave with no wire work
	}
	payload := rs.payload
	rs.payload = nil
	primary := ds.group.endpoint

	owners := make([][]string, len(rs.names))
	var epoch uint64
	followers := make(map[string]bool)
	for i, name := range rs.names {
		owners[i], epoch = b.dir.Owners(name)
		for _, ep := range owners[i] {
			if ep != primary {
				followers[ep] = true
			}
		}
	}
	if len(followers) == 0 {
		return nil
	}
	rec := &ReplRecord{
		ID:      fmt.Sprintf("%s/%d", rs.chain, rs.seq),
		Chain:   rs.chain,
		Primary: primary,
		Epoch:   epoch,
		Names:   rs.names,
		Ifaces:  rs.ifaces,
		Payload: payload,
	}
	rs.seq++
	b.quorumWaits.Inc()
	var start time.Time
	if b.reg != nil {
		start = b.reg.Now()
	}
	type shipAck struct {
		ep  string
		err error
	}
	// Buffered to the fan-out so stragglers past the quorum ack never block.
	// Each ship is bounded by shipTimeout: once quorum acks, replicate
	// returns and the stragglers run on detached — a straggler stuck on a
	// wedged destination's connection (killed mid-ship, partitioned with the
	// frames in flight) would otherwise block in Call for as long as the
	// flush's ctx lives, and every quorum-early flush past that follower
	// leaks a goroutine.
	results := make(chan shipAck, len(followers))
	// Read the timeout once at spawn: a detached straggler outlives
	// replicate, and the package var is only synchronized up to the flush's
	// return.
	timeout := shipTimeout
	for ep := range followers {
		go func(ep string) {
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			_, err := b.peer.Call(sctx, ReplicaRef(ep), "Append", rec)
			results <- shipAck{ep: ep, err: err}
		}(ep)
	}
	// Quorum is judged per NAME over that name's own owner list — the wave
	// spans every root of the destination, and each root's shard must hold
	// it. The wait returns as soon as every name is at quorum: under
	// WithQuorum(W<R) the slowest followers keep replicating in the
	// background while the flush acks.
	required := make([]int, len(rs.names))
	acked := make([]int, len(rs.names))
	unsatisfied := 0
	for i := range rs.names {
		required[i] = len(owners[i])
		if b.quorum > 0 && b.quorum < required[i] {
			required[i] = b.quorum
		}
		acked[i] = 1 // the primary holds the wave: its flush succeeded
		if acked[i] < required[i] {
			unsatisfied++
		}
	}
	acks := make(map[string]error, len(followers))
	for n := 0; n < len(followers) && unsatisfied > 0; n++ {
		a := <-results
		acks[a.ep] = a.err
		if a.err != nil {
			continue
		}
		for i := range rs.names {
			if acked[i] >= required[i] {
				continue
			}
			for _, ep := range owners[i] {
				if ep == a.ep {
					acked[i]++
					if acked[i] >= required[i] {
						unsatisfied--
					}
					break
				}
			}
		}
	}
	if b.reg != nil {
		b.replLag.Observe(b.reg.Now().Sub(start).Nanoseconds())
	}
	if unsatisfied == 0 {
		return nil
	}
	// Every follower answered and some name still missed its quorum:
	// report the worst miss.
	var worst *QuorumError
	for i, name := range rs.names {
		if acked[i] >= required[i] {
			continue
		}
		var ferrs []error
		for _, ep := range owners[i] {
			if ep == primary {
				continue
			}
			if err, ok := acks[ep]; ok && err != nil {
				ferrs = append(ferrs, fmt.Errorf("%s: %w", ep, err))
			}
		}
		qe := &QuorumError{Name: name, Acked: acked[i], Required: required[i], Err: errors.Join(ferrs...)}
		if worst == nil || qe.Required-qe.Acked > worst.Required-worst.Acked {
			worst = qe
		}
	}
	return worst
}

// execute runs the stage schedule. Per stage: translate each destination's
// sub-batch into its core.Batch (resolving staged inputs from earlier
// waves), fan the destinations out in parallel, then harvest exported
// result refs for the next wave. Wall-clock cost per stage is the slowest
// destination's round trip; total cost is one wave per stage.
func (b *Batch) execute(ctx context.Context, stages [][]*subBatch) error {
	dests := make(map[*group]*destState)
	for s, subs := range stages {
		for _, sb := range subs {
			ds := dests[sb.group]
			if ds == nil {
				ds = &destState{group: sb.group}
				dests[sb.group] = ds
			}
			ds.lastStage = s
		}
	}

	var flushErr *FlushError
	reportFailure := func(ds *destState, stage int, err error) {
		ds.failed = err
		if flushErr == nil {
			flushErr = &FlushError{Servers: len(dests)}
		}
		var qe *QuorumError
		if errors.As(err, &qe) && flushErr.Quorum == nil {
			flushErr.Quorum = qe
		}
		flushErr.Failures = append(flushErr.Failures, ServerError{
			Endpoint: ds.group.endpoint,
			Stage:    stage,
			Err:      err,
		})
	}

	for s, subs := range stages {
		// Translate this stage under the batch lock, so concurrent readers
		// of futures and proxies observe a consistent rewiring.
		b.mu.Lock()
		var wave []*destState
		keep := make(map[*destState]bool)
		for _, sb := range subs {
			ds := dests[sb.group]
			if ds.failed != nil {
				settleSub(sb, ds.failed)
				continue
			}
			if ds.cb == nil {
				if err := ds.open(b); err != nil {
					reportFailure(ds, s, err)
					settleSub(sb, err)
					continue
				}
			}
			b.translate(ds, sb)
			// Flush when the stage recorded calls for this destination, or
			// when an earlier wave left a session open and this is the
			// destination's last chance to close it.
			if ds.cb.PendingCalls() > 0 || (s == ds.lastStage && ds.sessionOpen) {
				keep[ds] = s < ds.lastStage
				wave = append(wave, ds)
			}
		}
		b.mu.Unlock()
		if len(wave) == 0 {
			// No wire work of our own, but this stage may hold readonly
			// followers joined to flights that other batches lead; they must
			// still settle.
			b.resolveFlights(ctx, subs)
			continue
		}

		// Fan out: one flush per destination, concurrently; barrier before
		// the next stage may consume this one's results.
		var waveStart time.Time
		if b.reg != nil {
			waveStart = b.reg.Now()
		}
		errs := make([]error, len(wave))
		var wg sync.WaitGroup
		for i, ds := range wave {
			wg.Add(1)
			go func(i int, ds *destState) {
				defer wg.Done()
				if keep[ds] {
					if errs[i] = ds.cb.FlushAndContinue(ctx); errs[i] == nil {
						errs[i] = b.replicate(ctx, ds)
					}
					return
				}
				fctx := ctx
				if ds.cb.PendingCalls() == 0 {
					// A pure session close (every call of the last stage
					// settled locally): attempt it even when the pipeline's
					// own context is already canceled, like the lease-release
					// wave below — otherwise the server-side chained session
					// leaks until its TTL.
					fctx = context.WithoutCancel(ctx)
				}
				if errs[i] = ds.cb.Flush(fctx); errs[i] == nil {
					errs[i] = b.replicate(ctx, ds)
				}
			}(i, ds)
		}
		wg.Wait()
		if b.reg != nil {
			b.stageNs.Observe(b.reg.Now().Sub(waveStart).Nanoseconds())
		}

		b.mu.Lock()
		b.waves++
		b.flushWaves.Inc()
		var retries []*staleRetry
		for i, ds := range wave {
			if errs[i] != nil {
				if sb := stageSub(subs, ds); sb != nil && b.canRetryStale(ds, s, errs[i]) {
					retries = append(retries, &staleRetry{ds: ds, sb: sb, cause: errs[i]})
					continue
				}
				reportFailure(ds, s, errs[i])
				// A quorum miss needs explicit local settlement: the wave
				// DID execute on the primary, so this stage's core futures
				// hold values — but the flush must not surface them as if
				// the wave were durable.
				var qe *QuorumError
				if errors.As(errs[i], &qe) {
					if sb := stageSub(subs, ds); sb != nil {
						settleSub(sb, errs[i])
					}
				}
				// A failed destination drops out of the pipeline here, so no
				// later flush will release the chained session an earlier
				// wave may have opened; reap it best-effort in the
				// background (detached from the flush's own context, which
				// may be what just failed).
				if sess := ds.cb.Session(); sess != 0 {
					go func(endpoint string, sess uint64) {
						cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), core.DefaultSessionTTL/4)
						defer cancel()
						_ = core.ReleaseSession(cctx, b.peer, endpoint, sess)
					}(ds.group.endpoint, sess)
				}
				continue
			}
			ds.sessionOpen = keep[ds]
		}
		b.mu.Unlock()
		if len(retries) > 0 {
			// Stale routes: the destination rejected the wave because one of
			// its roots migrated to a new home. Refresh the shard map,
			// re-partition the affected calls, and retry once — before the
			// next stage, whose sub-batches may consume these results.
			b.retryStale(ctx, s, retries, reportFailure)
		}
		// Settle the stage's singleflight traffic: leaders publish their
		// outcome (filling the cache on success), followers adopt it. This
		// runs after the stale retry so a retried leader publishes its final
		// outcome, not the transient wrong-home rejection.
		b.resolveFlights(ctx, subs)
		b.mu.Lock()
		// Harvest the refs of results pinned in this wave and lease them
		// (rmi.Peer.HoldRef) so they outlive the server's marshal grace for
		// as long as the pipeline still needs them.
		for _, sb := range subs {
			if dests[sb.group].failed != nil {
				continue
			}
			for _, c := range sb.calls {
				if !c.export || c.failed != nil || c.proxy == nil || c.proxy.core == nil {
					continue
				}
				ref, err := c.proxy.core.ExportedRef()
				if err != nil {
					continue // the call itself failed; consumers settle with its error
				}
				b.peer.HoldRef(ref)
				b.held = append(b.held, ref)
			}
		}
		b.mu.Unlock()
	}

	// The pipeline is done: drop the bridging leases in one batched DGC
	// wave (one Clean per endpoint, endpoints in parallel). Destinations
	// that received a forwarded ref hold their own lease while they retain
	// the stub, and the lease-holder chain unwinds through DGC. Cleanup
	// must outlive the flush's own context: a cancellation that aborted
	// the waves is exactly when prompt lease release matters most.
	b.mu.Lock()
	held := b.held
	b.held = nil
	b.mu.Unlock()
	if len(held) > 0 {
		b.peer.ReleaseRefs(context.WithoutCancel(ctx), held)
	}

	if flushErr != nil {
		b.mu.Lock()
		if b.retried {
			flushErr.Retries = 1
		}
		b.mu.Unlock()
		return flushErr
	}
	return nil
}

// translate records one sub-batch's calls into the destination's
// core.Batch, resolving staged inputs settled by earlier waves. A call
// whose input failed settles locally with that error — the failure
// propagates through the dataflow without aborting independent calls.
// Caller holds b.mu.
func (b *Batch) translate(ds *destState, sb *subBatch) {
	for _, c := range sb.calls {
		if c.failed != nil {
			continue // settled earlier (e.g. a split dependency in a retry)
		}
		// A cacheable readonly call joins the cache's singleflight table
		// here, at the edge of the wire: a fill that landed since record
		// time settles it outright, the first call per key leads (executes
		// and publishes), and every duplicate — in this batch or any other
		// sharing the cache — becomes a follower that records nothing and
		// settles from the leader's flight in resolveFlights. On a stale
		// retry the call is re-translated; the flight guard keeps its role.
		if c.kind == kindValue && c.ckey != "" {
			if c.flight == nil {
				if v, ok := b.cache.Get(c.ckey); ok {
					settleValue(c, v)
					continue
				}
				c.flight, c.leader = b.cache.Begin(c.ckey)
			}
			if !c.leader {
				continue
			}
		}
		args, err := b.resolveInputs(c)
		if err != nil {
			settleLocal(c, err)
			continue
		}
		switch c.kind {
		case kindRemote:
			if c.export {
				c.proxy.core = c.target.core.CallBatchExport(c.method, args...)
			} else {
				c.proxy.core = c.target.core.CallBatch(c.method, args...)
			}
		default: // kindValue
			c.future.inner = c.target.core.Call(c.method, args...)
		}
	}
}

// resolveInputs materializes c's arguments for its core.Batch:
//
//   - same-server proxies pass through as core proxies (the server resolves
//     them by sequence number, across stages via the chained session);
//   - cross-server root proxies pass as their refs (known statically);
//   - cross-server result proxies pass as the exported ref pinned by the
//     producer's wave — forwarded by reference, the destination sees a stub;
//   - futures pass as their settled values — spliced by value.
//
// An error means a dependency failed and c must settle locally with it.
func (b *Batch) resolveInputs(c *recordedCall) ([]any, error) {
	if o := c.target.origin; o != nil && o.failed != nil {
		return nil, o.failed
	}
	args := make([]any, len(c.args))
	for i, a := range c.args {
		switch x := a.(type) {
		case *Proxy:
			if x.origin != nil && x.origin.failed != nil {
				return nil, x.origin.failed
			}
			if x.group == c.group {
				args[i] = x.core
				continue
			}
			if x.origin == nil {
				args[i] = x.rootRef
				continue
			}
			if x.core == nil {
				return nil, fmt.Errorf("cluster: internal: argument %d of %s references an untranslated call", i, c.method)
			}
			ref, err := x.core.ExportedRef()
			if err != nil {
				return nil, err
			}
			args[i] = ref
		case *Future:
			if x.settled {
				args[i] = x.val // cache hit or coalesced value, known statically
				continue
			}
			if x.origin != nil && x.origin.failed != nil {
				return nil, x.origin.failed
			}
			v, err := x.inner.Get()
			if err != nil {
				return nil, err
			}
			args[i] = v
		default:
			args[i] = a
		}
	}
	return args, nil
}

// staleRetry is one destination whose wave was rejected with a wrong-home
// error and qualifies for the single stale-route retry.
type staleRetry struct {
	ds    *destState
	sb    *subBatch
	cause error
}

// stageSub finds the sub-batch of this stage belonging to ds, if any.
func stageSub(subs []*subBatch, ds *destState) *subBatch {
	for _, sb := range subs {
		if sb.group == ds.group {
			return sb
		}
	}
	return nil
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
	if b.dir == nil || b.retried || ds.sessionOpen || stage != ds.lastStage {
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

// retryStale performs the stale-route retry: refresh the shard map once,
// then re-partition and re-flush each rejected sub-batch at the roots' new
// homes — rejected destinations retry concurrently, like any other wave.
// Failures here are final: the retry is spent.
func (b *Batch) retryStale(ctx context.Context, stage int, retries []*staleRetry, reportFailure func(*destState, int, error)) {
	b.mu.Lock()
	b.retried = true
	b.wrongHome.Inc()
	b.mu.Unlock()

	if err := b.dir.Refresh(ctx); err != nil {
		b.mu.Lock()
		for _, r := range retries {
			reportFailure(r.ds, stage, fmt.Errorf("%w (ring refresh failed: %v)", r.cause, err))
			settleSub(r.sb, r.ds.failed)
		}
		b.mu.Unlock()
		return
	}
	var waveStart time.Time
	if b.reg != nil {
		waveStart = b.reg.Now()
	}
	flushed := make([]bool, len(retries))
	var wg sync.WaitGroup
	for i, r := range retries {
		wg.Add(1)
		go func(i int, r *staleRetry) {
			defer wg.Done()
			flushed[i] = b.retryOne(ctx, stage, r, reportFailure)
		}(i, r)
	}
	wg.Wait()
	b.mu.Lock()
	for _, f := range flushed {
		if f {
			b.waves++
			b.flushWaves.Inc()
			if b.reg != nil {
				b.stageNs.Observe(b.reg.Now().Sub(waveStart).Nanoseconds())
			}
			break
		}
	}
	b.mu.Unlock()
}

// retryOne re-resolves one rejected sub-batch's named roots through the
// refreshed directory, rewires its calls into per-new-home groups, and
// flushes them as a fresh parallel wave. It reports whether anything was
// actually flushed (the caller counts the retry pass as one wave).
func (b *Batch) retryOne(ctx context.Context, stage int, r *staleRetry, reportFailure func(*destState, int, error)) bool {
	// Re-resolve the named roots first, outside the batch lock — lookups
	// are network calls and independent per root, so they fan out in
	// parallel like every other cluster-wide control path. Un-named roots
	// keep their recorded ref: if one of them was the migrated object there
	// is no key to re-resolve it by, and the retried wave will fail
	// wrong-home again, this time finally.
	roots := r.sb.group.roots
	resolved := make([]wire.Ref, len(roots))
	lerrs := make([]error, len(roots))
	var lwg sync.WaitGroup
	for i, ref := range roots {
		p := r.sb.group.rootProxies[ref]
		if p.key == "" {
			resolved[i] = ref
			continue
		}
		lwg.Add(1)
		go func(i int, key string) {
			defer lwg.Done()
			nr, err := b.dir.Lookup(ctx, key)
			if err != nil {
				lerrs[i] = fmt.Errorf("stale-route retry: re-resolve %q: %w", key, err)
				return
			}
			resolved[i] = nr
		}(i, p.key)
	}
	lwg.Wait()
	if lerr := errors.Join(lerrs...); lerr != nil {
		b.mu.Lock()
		reportFailure(r.ds, stage, lerr)
		settleSub(r.sb, r.ds.failed)
		b.mu.Unlock()
		return false
	}
	newRefs := make(map[*Proxy]wire.Ref, len(roots))
	for i, ref := range roots {
		newRefs[r.sb.group.rootProxies[ref]] = resolved[i]
	}

	b.mu.Lock()
	// Rewire the roots into one fresh group per new home, then re-home every
	// call (and the proxies it settles) to its root's group, so partition
	// and translate see a consistent recording again.
	groups := make(map[string]*group)
	for _, ref := range r.sb.group.roots {
		p := r.sb.group.rootProxies[ref]
		nr := newRefs[p]
		g, ok := groups[nr.Endpoint]
		if !ok {
			g = &group{endpoint: nr.Endpoint, rootProxies: make(map[wire.Ref]*Proxy)}
			groups[nr.Endpoint] = g
		}
		g.roots = append(g.roots, nr)
		g.rootProxies[nr] = p
		p.rootRef = nr
		p.group = g
		p.core = nil
	}
	newGroups := make(map[*group]bool, len(groups))
	for _, g := range groups {
		newGroups[g] = true
	}
	for _, c := range r.sb.calls {
		g := rootOf(c.target).group
		c.group = g
		c.target.group = g
		if c.proxy != nil {
			c.proxy.group = g
		}
	}
	// Cross-root dataflow that the re-sharding split across homes cannot be
	// replayed by this retry: the producer's result would now have to cross
	// the network mid-wave. Settle those calls with a clear error carrying
	// the original wrong-home cause instead of an internal failure.
	for _, c := range r.sb.calls {
		if c.failed != nil {
			continue
		}
		for _, a := range c.args {
			x, ok := a.(*Proxy)
			if !ok || x.origin == nil || x.group == c.group || !newGroups[x.group] {
				continue
			}
			settleLocal(c, fmt.Errorf(
				"stale-route retry: %s consumes a result the re-sharding moved to %q while the call now targets %q: %w",
				c.method, x.group.endpoint, c.group.endpoint, r.cause))
			break
		}
	}
	subs := partition(r.sb.calls)
	type retryDest struct {
		ds *destState
		sb *subBatch
	}
	var wave []retryDest
	for _, sb := range subs {
		ds := &destState{group: sb.group, lastStage: stage}
		if sb.group.endpoint == "" {
			err := fmt.Errorf("stale-route retry: %w", ErrNoEndpoint)
			reportFailure(ds, stage, err)
			settleSub(sb, err)
			continue
		}
		if err := ds.open(b); err != nil {
			reportFailure(ds, stage, err)
			settleSub(sb, err)
			continue
		}
		b.translate(ds, sb)
		if ds.cb.PendingCalls() > 0 {
			wave = append(wave, retryDest{ds: ds, sb: sb})
		}
	}
	b.mu.Unlock()
	if len(wave) == 0 {
		return false
	}

	errs := make([]error, len(wave))
	var wg sync.WaitGroup
	for i, rd := range wave {
		wg.Add(1)
		go func(i int, rd retryDest) {
			defer wg.Done()
			// A retried wave replicates like any other: its destinations
			// were re-opened against the refreshed ring, so the record
			// ships to the new homes' followers under the new epoch.
			if errs[i] = rd.ds.cb.Flush(ctx); errs[i] == nil {
				errs[i] = b.replicate(ctx, rd.ds)
			}
		}(i, rd)
	}
	wg.Wait()

	b.mu.Lock()
	for i, rd := range wave {
		if errs[i] != nil {
			reportFailure(rd.ds, stage, errs[i])
			settleSub(rd.sb, errs[i])
		}
	}
	b.mu.Unlock()
	return true
}

// resolveFlights settles the singleflight state of a stage's readonly
// calls once its waves (including any stale retry) ran. Leaders publish
// first — their outcome is already decided, either a local settlement
// (c.failed) or their core future — so same-batch followers can never
// deadlock waiting below; a successful leader also fills the cache,
// generation-guarded against writes that raced the flush. Followers then
// adopt their flight's outcome. Flight hygiene: every flight Begin'd in
// translate is Finished (leaders) or Waited (followers) exactly once here,
// on every path, including waves that failed wholesale.
func (b *Batch) resolveFlights(ctx context.Context, subs []*subBatch) {
	b.mu.Lock()
	var leaders, followers []*recordedCall
	for _, sb := range subs {
		for _, c := range sb.calls {
			if c.flight == nil {
				continue
			}
			if c.leader {
				leaders = append(leaders, c)
			} else {
				followers = append(followers, c)
			}
		}
	}
	for _, c := range leaders {
		var v any
		var err error
		switch {
		case c.failed != nil:
			err = c.failed
		case c.future == nil || c.future.inner == nil:
			err = fmt.Errorf("cluster: internal: readonly call %s left untranslated", c.method)
		default:
			v, err = c.future.inner.Get()
		}
		if err == nil {
			b.cache.Put(c.ckey, c.cobj, v, c.cgen, c.cepoch)
		}
		b.cache.Finish(c.ckey, c.flight, v, err)
		c.flight = nil
	}
	b.mu.Unlock()

	for _, c := range followers {
		v, err := c.flight.Wait(ctx)
		b.mu.Lock()
		if err != nil {
			settleLocal(c, err)
		} else {
			settleValue(c, v)
		}
		c.flight = nil
		b.mu.Unlock()
	}
}

// settleLocal marks one call as settled client-side with err: its future
// or proxy rethrows err, and calls consuming it settle the same way.
// Caller holds b.mu.
func settleLocal(c *recordedCall, err error) {
	c.failed = err
	if c.future != nil {
		c.future.err = err
	}
	if c.proxy != nil {
		c.proxy.failedLocal = err
	}
}

// settleValue settles a readonly call client-side with a cached or
// coalesced value. Caller holds b.mu.
func settleValue(c *recordedCall, v any) {
	if c.future != nil {
		c.future.settled = true
		c.future.val = v
	}
}

// settleSub settles every call of a sub-batch locally (its destination
// failed in an earlier stage). Caller holds b.mu.
func settleSub(sb *subBatch, err error) {
	for _, c := range sb.calls {
		settleLocal(c, err)
	}
}
