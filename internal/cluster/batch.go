package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rcache"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ErrNoEndpoint reports a Root ref that carries no server endpoint.
var ErrNoEndpoint = errors.New("cluster: root ref has no endpoint")

// Batch is a cluster-wide recording session: the multi-server analogue of
// core.Batch, flushed as a record → plan → execute pipeline.
//
// Record: calls against proxies rooted on any number of servers go into one
// global log. A result produced on server A may feed a call bound for
// server B — as a proxy argument (the result stays remote, and B gets a stub
// for it) or as a future argument (the value goes to B).
//
// Plan: Flush schedules the log's dependency DAG into stages — stage 0 holds
// every call with no staged inputs, stage k the calls whose staged inputs
// settle in earlier waves — and partitions each stage per destination. A
// result is handed over by the servers inside the wave: by the producer's own
// server when the consumer lives there too, else pushed by it to the
// consumer's — a remote result as its exported reference. What is staged is a
// value that crosses servers from a replicated producer; a remote result lives
// only in its wave, so a call that would take one in a later wave is refused
// with *CrossWaveError before anything is sent (see DESIGN.md, "Cluster
// staging rules").
//
// Execute: stages run in order; within a stage every destination's
// sub-batch is one core.Batch round trip, fanned out in parallel, so a
// stage costs the slowest server's round trip. A recording none of whose
// values crosses servers from a replicated producer plans to a single stage:
// one wave, one round trip per destination. Each server runs its sub-batch
// under core.AbortPolicy, so a failure aborts the rest of that server's
// sub-batch only; a caller that needs another policy uses core.Batch.
//
// Like core.Batch, a Batch records one batch at a time and is not meant to
// be shared by concurrent client goroutines; the implementation is
// internally synchronized, so misuse corrupts no memory, only recording
// order.
type Batch struct {
	peer  *rmi.Peer
	dir   *Directory
	cache *rcache.Cache

	mu     sync.Mutex
	groups map[string]*group // keyed by server endpoint
	// byRef and byName hold the roots handed out so far, so asking twice
	// for one object returns one proxy.
	byRef  map[wire.Ref]*Proxy
	byName map[string]*Proxy
	calls  []*recordedCall
	closed bool
	// waves counts the parallel fan-out barriers the flush executed.
	waves int
	// recErr is a sticky recording violation, reported by Flush.
	recErr error
	// retried is set once the flush has spent its single stale-route retry.
	retried bool
	// failure poisons every future when recording failed; per-server flush
	// failures stay per-group instead (see Flush).
	failure error
	// renewals are what the writes owe the cache, one per root a write
	// reached, in the order the roots were first reached (leases.go).
	renewals []*renewal

	// quorum is the write quorum W (WithQuorum): how many replicas,
	// counting the primary, must hold a wave before it acks. 0 means all.
	quorum int

	// Metrics, wired from the peer's stats registry (nil and therefore
	// no-ops when the peer is uninstrumented). quorum_waits counts the
	// destination waves whose reply carried a quorum verdict — met, or missed
	// with a *QuorumError: the ones whose round trip included the primary's
	// ship to its followers. replication_lag is that ship leg as the primary
	// measured it (execution end → quorum met, or the last follower's answer)
	// and reported in its reply, one observation per verdict; the primary
	// keeps the same series.
	reg         *stats.Registry
	flushWaves  *stats.Counter   // cluster.flush_waves
	stageNs     *stats.Histogram // cluster.stage_ns
	wrongHome   *stats.Counter   // cluster.wrong_home_retries
	replLag     *stats.Histogram // cluster.replication_lag
	quorumWaits *stats.Counter   // cluster.quorum_waits
}

// Option configures a cluster Batch.
type Option func(*Batch)

// WithDirectory makes the batch epoch-aware: roots may be addressed by
// cluster-wide name (RootNamed), which the flush routes on the directory's
// ring and the home servers resolve inside the first wave, and a flush that
// a destination refuses at first contact — the name migrated to a new home
// after this directory last saw the ring — refreshes the shard map,
// re-routes the affected calls to their new homes, and retries once instead
// of failing. The directory's ring is the only naming state a flush reads:
// it performs no lookups.
func WithDirectory(d *Directory) Option {
	return func(b *Batch) { b.dir = d }
}

// WithCache attaches a lease-backed result cache to the batch. Readonly
// calls recorded with Proxy.CallRO may then settle from the cache (a batch
// whose every call hits completes in zero round trips); a miss is an
// ordinary call of its batch, whose value fills the cache once its wave
// returns it. Every non-readonly call ends the leases of the root object it
// descends from, and of every root it takes as a proxy argument, when its
// flush ran: until then other batches still read them, and its own batch
// reads them no more. A flush re-reads leases on the last request it
// sends their server anyway, after the caller's calls, and learns from a
// re-read only at the answer that carried it. The live leases a write ends
// are re-read so, on the written root, and filed at the flush's end if every
// write of the root had settled by that answer: after its flush, the writer
// reads its own write from the cache, at no round trip. A write through
// another cache is seen when the TTL ends the lease. A lease that served hits
// is re-read so near the end of its TTL (rcache.Cache.Due) and filed again,
// so a hot object costs no miss of its own per TTL. A request to a
// replicating destination carries no due lease. Share one cache per client —
// NewCache builds one wired to the directory's ring epoch.
//
// A lease is filed under the identity its root was addressed by: the ref for
// Root, the name for RootNamed — a named root has no ref when it is
// recorded, and its name survives a migration where its ref does not. One
// object addressed both ways through one cache therefore holds two sets of
// leases, and a write recorded through one address does not end the leases
// filed under the other: their staleness is bounded by the TTL only.
func WithCache(c *rcache.Cache) Option {
	return func(b *Batch) { b.cache = c }
}

// NewCache creates a lease cache for cluster batches: instrumented through
// the peer's stats registry (hit/miss/evict/invalidate counters, nil-safe)
// and stamped with the directory's ring epoch, so every membership change
// or migration the directory learns of drops the older leases. Pass the
// result to WithCache on every batch of this client.
func NewCache(peer *rmi.Peer, dir *Directory, opts ...rcache.Option) *rcache.Cache {
	var base []rcache.Option
	if dir != nil {
		base = append(base, rcache.WithEpoch(dir.Epoch))
	}
	return rcache.New(peer.Stats(), append(base, opts...)...)
}

// WithQuorum sets the write quorum W for replicated flushes: a wave acks
// once W replicas — the primary plus W-1 followers — hold it, instead of
// waiting for every follower (the default, W=0 meaning "all"). W rides each
// wave's ship directive to the primary, which does the counting. W is capped
// per key at that key's replica count, so WithQuorum(2) on a ring with R=3
// is a majority quorum and on R=1 degenerates to primary-only. Lowering W
// trades durability for latency: a wave acked at W<R is only guaranteed to
// survive failover while at least one of its W holders does (see DESIGN.md,
// "Replication & failover").
func WithQuorum(w int) Option {
	return func(b *Batch) { b.quorum = w }
}

// New creates an empty cluster batch. Add destinations with Root.
func New(peer *rmi.Peer, opts ...Option) *Batch {
	b := &Batch{
		peer:   peer,
		groups: make(map[string]*group),
		byRef:  make(map[wire.Ref]*Proxy),
		byName: make(map[string]*Proxy),
	}
	for _, o := range opts {
		o(b)
	}
	if r := peer.Stats(); r != nil {
		b.reg = r
		b.flushWaves = r.Counter("cluster.flush_waves")
		b.stageNs = r.Histogram("cluster.stage_ns")
		b.wrongHome = r.Counter("cluster.wrong_home_retries")
		b.replLag = r.Histogram("cluster.replication_lag")
		b.quorumWaits = r.Counter("cluster.quorum_waits")
	}
	return b
}

// Root returns the recording proxy for the remote object ref, registering
// its server as a destination of this batch. Any number of roots may share
// a server; they all fold into that destination's single sub-batch. Calling
// Root twice with the same ref returns the same proxy.
func (b *Batch) Root(ref wire.Ref) *Proxy {
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.byRef[ref]; ok {
		return p
	}
	if ref.Endpoint == "" {
		b.fail(fmt.Errorf("%w: object %d", ErrNoEndpoint, ref.ObjID))
	}
	p := &Proxy{b: b, rootRef: ref, isRoot: true}
	b.place(p, ref.Endpoint)
	b.byRef[ref] = p
	return p
}

// RootNamed returns the recording proxy for the object bound under a
// cluster-wide name, on a batch built with WithDirectory. It performs no
// I/O: the name is routed on the directory's ring (Directory.Home) and filed
// under that home's destination, and the flush's first wave there carries
// the name for the home to resolve in its own registry — so a flush costs
// its waves and no lookups. A name that is not bound therefore fails the
// flush (the home's *registry.NotBoundError, on that destination's
// ServerError), not this call; a name that migrated since the directory last
// saw the ring costs the flush its one stale-route retry. ctx is unused: the
// call never blocks. Calling RootNamed twice with the same name returns the
// same proxy.
func (b *Batch) RootNamed(_ context.Context, name string) (*Proxy, error) {
	if b.dir == nil {
		return nil, errors.New("cluster: RootNamed requires a batch built with WithDirectory")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if p, ok := b.byName[name]; ok {
		return p, nil
	}
	home, err := b.dir.Home(name)
	if err != nil {
		return nil, err
	}
	p := &Proxy{b: b, key: name, isRoot: true}
	b.place(p, home)
	b.byName[name] = p
	return p, nil
}

// place files root p under endpoint's destination, leaving the one it was
// filed under before. Caller holds b.mu.
func (b *Batch) place(p *Proxy, endpoint string) {
	if old := p.group; old != nil {
		old.roots = slices.DeleteFunc(old.roots, func(q *Proxy) bool { return q == p })
	}
	g, ok := b.groups[endpoint]
	if !ok {
		g = &group{endpoint: endpoint}
		b.groups[endpoint] = g
	}
	g.roots = append(g.roots, p)
	p.group = g
}

// Peer returns the underlying RMI peer.
func (b *Batch) Peer() *rmi.Peer { return b.peer }

// PendingCalls returns the number of recorded, unflushed calls.
func (b *Batch) PendingCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.calls)
}

// Destinations returns the distinct server endpoints with recorded calls,
// sorted.
func (b *Batch) Destinations() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	seen := make(map[string]bool)
	for _, c := range b.calls {
		seen[c.group.endpoint] = true
	}
	out := make([]string, 0, len(seen))
	for ep := range seen {
		out = append(out, ep)
	}
	sort.Strings(out)
	return out
}

// Waves returns the number of round-trip waves (parallel fan-out barriers)
// the flush executed: the stage count of the plan, minus stages that
// settled entirely locally, plus one for a stale-route retry. A recording
// flushes in one wave however its values and remote results flow between
// servers, unless a value crosses servers from a replicated destination.
func (b *Batch) Waves() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waves
}

// StaleRetried reports whether the flush spent its single stale-route
// retry (wrong-home rejection, refreshed shard map, re-flush at the new
// homes). It is also surfaced on FlushError.Retries when the flush failed.
func (b *Batch) StaleRetried() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retried
}

// fail records a sticky recording violation. Caller holds b.mu.
func (b *Batch) fail(err error) {
	if b.recErr == nil {
		b.recErr = err
	}
}

// record validates and appends one invocation. Cross-server proxies and
// futures are legal arguments: the planner schedules the extra waves.
func (b *Batch) record(target *Proxy, kind int, method string, args []any) *recordedCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recordLocked(target, kind, method, args, false)
}

// recordLocked is record with b.mu held; ro marks the call //brmi:readonly
// (any other call is told to the lease cache for the objects it reaches,
// see recordWrite).
func (b *Batch) recordLocked(target *Proxy, kind int, method string, args []any, ro bool) *recordedCall {
	if b.closed {
		b.fail(core.ErrBatchClosed)
		return nil
	}
	if target.b != b {
		b.fail(fmt.Errorf("%w: call %s", core.ErrForeignProxy, method))
		return nil
	}
	if b.recErr != nil {
		return nil
	}
	for i, a := range args {
		switch x := a.(type) {
		case *Proxy:
			if x.b != b {
				b.fail(fmt.Errorf("%w: argument %d of %s", core.ErrForeignProxy, i, method))
				return nil
			}
		case *Future:
			if x.b != b {
				b.fail(fmt.Errorf("%w: argument %d of %s", core.ErrForeignProxy, i, method))
				return nil
			}
			// A cache-hit future is born done and splices in like a literal.
			if !x.done && x.origin == nil {
				b.fail(fmt.Errorf("cluster: argument %d of %s is an unrecorded future", i, method))
				return nil
			}
		}
	}
	c := &recordedCall{
		index:  len(b.calls),
		group:  target.group,
		kind:   kind,
		target: target,
		method: method,
		args:   args,
	}
	for _, a := range args {
		var o *recordedCall
		switch x := a.(type) {
		case *Future:
			o = x.origin
		case *Proxy:
			o = x.origin
		}
		if o != nil {
			o.consumers = append(o.consumers, c)
		}
	}
	if !ro && b.cache != nil {
		b.recordWrite(c)
	}
	b.calls = append(b.calls, c)
	return c
}

// rootOf walks a proxy's producer chain back to its root proxy.
func rootOf(p *Proxy) *Proxy {
	for p.origin != nil {
		p = p.origin.target
	}
	return p
}

// Flush runs the plan/execute pipeline over the recording: plan the stage
// schedule, then execute the stages in order, fanning each stage out to its
// destinations in parallel and handing staged values on between waves. The waves
// are the flush's whole cost — named roots resolve inside them — but for one
// lookup per named root that a call passes, by reference, to another server.
//
// A recording violation fails the whole batch: Flush returns the
// *core.BatchError and every future rethrows it. Server failures stay
// per-destination: Flush returns a *FlushError naming each failed server
// (and the stage it failed in), futures depending — directly or through
// the dataflow — on a failed server rethrow that server's error, and
// independent futures still hold their values.
func (b *Batch) Flush(ctx context.Context) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return core.ErrBatchClosed
	}
	b.closed = true
	if b.recErr != nil {
		return b.failLocked(b.recErr)
	}
	calls := b.calls
	b.calls = nil
	forwarded := forwardedRoots(calls)
	b.mu.Unlock()

	if len(forwarded) > 0 {
		b.resolveForwarded(ctx, forwarded, calls)
	}

	b.mu.Lock()
	nstages, err := planStages(calls)
	if err != nil {
		return b.failLocked(err)
	}
	// Only a replicating directory stages a value: one wave consumes nothing
	// of an earlier one, and a replicated wave no remote result of another
	// root.
	if b.dir != nil && b.dir.Replication() > 1 {
		for _, c := range calls {
			if err := outlives(c); err != nil {
				return b.failLocked(err)
			}
		}
	}
	stages := buildStages(calls, nstages)
	b.mu.Unlock()

	return b.execute(ctx, stages)
}

// failLocked fails the whole batch with a recording violation and releases
// b.mu, which the caller holds.
func (b *Batch) failLocked(err error) error {
	ferr := &core.BatchError{Err: err}
	b.failure = ferr
	b.mu.Unlock()
	return ferr
}

// forwardedRoots returns the named, still unresolved roots that some call
// bound for ANOTHER server passes as an argument. They are the one shape that
// needs a reference before the first wave: the consumer's sub-batch carries
// the root by reference, and a name resolves only at its own home.
func forwardedRoots(calls []*recordedCall) []*Proxy {
	var roots []*Proxy
	for _, c := range calls {
		for _, a := range c.args {
			if x, ok := a.(*Proxy); ok && x.lazy() && x.group != c.group && !slices.Contains(roots, x) {
				roots = append(roots, x)
			}
		}
	}
	return roots
}

// resolveForwarded looks the forwarded roots up before the flush is planned.
// Other servers get a resolved root's ref; its own waves still address it by
// name, at the endpoint the binding names: its ring home — the one a stale
// ring's refused lookup refreshed to, too — or, when the home binds it to an
// object on another server, that server, where only the ref reaches it. A
// failed lookup stays with its root and fails exactly the calls that pass it
// (resolveInputs).
func (b *Batch) resolveForwarded(ctx context.Context, roots []*Proxy, calls []*recordedCall) {
	refs, errs := lookUp(ctx, b.dir, roots)
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range roots {
		if errs[i] != nil {
			p.err = errs[i]
			continue
		}
		home, _ := b.dir.Home(p.key)
		p.rootRef, p.elsewhere = refs[i], refs[i].Endpoint != home
		if refs[i].Endpoint != p.group.endpoint {
			b.place(p, refs[i].Endpoint)
		}
	}
	repoint(calls)
}

// lookUp resolves the roots' names, all in parallel, without b.mu: refs and
// errs are parallel to roots.
func lookUp(ctx context.Context, dir resolver, roots []*Proxy) (refs []wire.Ref, errs []error) {
	refs, errs = make([]wire.Ref, len(roots)), make([]error, len(roots))
	_ = fanOut(roots, func(i int, p *Proxy) error { // per-root errors are kept in errs
		refs[i], errs[i] = dir.Lookup(ctx, p.key)
		return nil
	})
	return refs, errs
}

// FlushError reports the destinations whose sub-batch failed, and in which
// stage. Futures and proxies depending on a failed destination rethrow the
// per-server error; the rest of the batch settled normally.
type FlushError struct {
	// Servers is how many destinations the flush planned to reach.
	Servers int
	// Retries is how many stale-route retries the flush spent before
	// failing (0 or 1: a flush retries a wrong-home rejection at most
	// once). A non-zero value means the reported failures are final — the
	// shard map was refreshed and the affected calls re-flushed at their
	// new homes before the error surfaced.
	Retries int
	// Failures lists each failed destination, in failure order.
	Failures []ServerError
	// Quorum is set when a failure is a replication quorum miss: the wave
	// executed on its primary but too few followers acknowledged the
	// shipped record before the primary gave up. It carries how many replicas
	// acked vs how many the quorum required (the first destination's miss
	// when several missed). nil when no failure was quorum-related.
	Quorum *QuorumError
}

// ServerError is one destination's flush failure.
type ServerError struct {
	Endpoint string
	// Stage is the pipeline stage (round-trip wave) the failure occurred in.
	Stage int
	Err   error
}

func (e *FlushError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = fmt.Sprintf("%s (stage %d): %v", f.Endpoint, f.Stage, f.Err)
	}
	return fmt.Sprintf("cluster: flush failed on %d of %d servers: %s",
		len(e.Failures), e.Servers, strings.Join(parts, "; "))
}

// Unwrap exposes the per-server errors to errors.Is / errors.As.
func (e *FlushError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// QuorumError reports a replicated wave that executed on its primary but
// was acknowledged by too few replicas: Acked replicas (counting the
// primary) hold the record, the quorum required Required. The primary's
// reply carries it beside the wave's results and the flush fails with it:
// the wave's calls fail — the client must not treat the flush as durable —
// but the flush never retries it: the primary already applied the wave, so a
// re-send could double-apply.
type QuorumError struct {
	// Name is the root name whose follower set missed quorum (the worst
	// miss, when the wave spans several named roots).
	Name     string
	Acked    int
	Required int
	// Failed lists Name's followers that refused the record or could not be
	// reached from the primary, each error keeping its type across the wire.
	Failed []*FollowerError
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("cluster: replication quorum not met for %q: %d of %d replicas acked: %v",
		e.Name, e.Acked, e.Required, errors.Join(e.Unwrap()...))
}

// Unwrap exposes the follower failures to errors.Is / errors.As.
func (e *QuorumError) Unwrap() []error {
	out := make([]error, len(e.Failed))
	for i, f := range e.Failed {
		out[i] = f
	}
	return out
}

// FollowerError is one follower's failure to hold a shipped record, as its
// primary saw it.
type FollowerError struct {
	Endpoint string
	Err      error
}

func (e *FollowerError) Error() string { return fmt.Sprintf("%s: %v", e.Endpoint, e.Err) }

func (e *FollowerError) Unwrap() error { return e.Err }

// Proxy is a cluster batch object: the recording stub for one remote object
// on one destination server. It mirrors core.Proxy minus cursors.
type Proxy struct {
	b      *Batch
	group  *group
	isRoot bool
	// rootRef is the exported object this proxy stands for (roots only). A
	// named root's is zero unless a lookup found it (resolveForwarded, or a
	// stale-route retry: a lookup, or a refusal that said where it is bound).
	rootRef wire.Ref
	// elsewhere marks a named root its name's home binds to an object on
	// another server: only its ref reaches it there (byName), and its waves
	// cannot replicate (BoundAwayError). It is what the lookup or refusal
	// that found the binding said, against the ring of that moment.
	elsewhere bool
	// key is the cluster-wide name this root is addressed by (RootNamed): it
	// is what the first wave carries, what lets a stale-route retry re-route
	// the root to its new home, and the root's lease identity in the cache.
	key string
	// origin is the recorded call that produces this proxy's object (nil
	// for roots). The planner reads it to build the dependency DAG.
	origin *recordedCall
	// core is the single-server proxy this cluster proxy was rewired to
	// when its wave was translated, until the wave settles; nil otherwise.
	// Same-server calls of the wave record against it.
	core *core.Proxy
	// renewal is what this root's writes owe the lease cache (roots only;
	// nil while none was recorded).
	renewal *renewal
	// outcome is how the producing call ended (val stays nil).
	outcome
}

// Batch returns the cluster batch this proxy records into.
func (p *Proxy) Batch() *Batch { return p.b }

// lazy reports whether p is a named root whose ref the client does not know.
func (p *Proxy) lazy() bool { return p.key != "" && p.rootRef.IsZero() }

// byName reports whether waves address root p by its name: every named root
// does, except one bound elsewhere.
func (p *Proxy) byName() bool { return p.key != "" && !p.elsewhere }

// leaseRef is root p's identity in the lease cache: its ref or, for a named
// root, its name alone — in the one ref shape no export has (object id 0 is
// the DGC service's), so names and refs never collide.
func (p *Proxy) leaseRef() wire.Ref {
	if p.key != "" {
		return wire.Ref{Endpoint: p.key}
	}
	return p.rootRef
}

// Endpoint returns the destination server this proxy's calls are bound for.
func (p *Proxy) Endpoint() string { return p.group.endpoint }

// Call records a method invocation whose result is a value, returning its
// future. The future may itself be passed as an argument of a later call —
// on any server — and the flush splices the value in, inside the wave: on
// the server that produced it, at no cost, or, when the consumer lives on
// another server, pushed there by the producer's server as soon as it
// exists.
func (p *Proxy) Call(method string, args ...any) *Future {
	f := &Future{b: p.b}
	if c := p.b.record(p, kindValue, method, args); c != nil {
		f.origin, c.out = c, &f.outcome
	}
	return f
}

// CallBatch records a method invocation whose result is a remote object;
// the result stays on its server and the returned proxy records further
// calls on it. A call on its own server gets the object itself; passing the
// proxy as an argument of a call bound for a DIFFERENT server makes the
// producer's server push the result's exported reference there inside the
// wave, and the consumer gets a stub. The result lives only in its wave: a
// call that would take it in a later one — staged behind a replicated value,
// or taking it across servers from a replicated destination — fails the
// flush with *CrossWaveError before anything is sent.
func (p *Proxy) CallBatch(method string, args ...any) *Proxy {
	np := &Proxy{b: p.b, group: p.group}
	if c := p.b.record(p, kindRemote, method, args); c != nil {
		c.proxy, np.origin, c.out = np, c, &np.outcome
	}
	return np
}

// Ok rethrows any exception this batch object depends on. Before flush it
// returns core.ErrPending for non-root proxies.
func (p *Proxy) Ok() error {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	switch {
	case p.b.failure != nil:
		return p.b.failure
	case p.isRoot:
		return nil
	case !p.done:
		return core.ErrPending
	}
	return p.err
}

// Future is the placeholder for a cluster-batched call's result. It is
// created at recording time and settled by the flush.
type Future struct {
	b *Batch
	// origin is the recorded call producing this future's value; nil for a
	// cache hit at record time, which is born done.
	origin *recordedCall
	outcome
}

// outcome is how a recorded call ended: the result its wave returned, a
// cached value, or the error of the dependency or destination that kept it
// from executing. It lives in the future or proxy the caller holds, which
// answers from it alone once it is done.
type outcome struct {
	done bool
	val  any
	err  error
}

// settle gives c its one outcome. Caller holds b.mu.
func settle(c *recordedCall, val any, err error) {
	*c.out = outcome{done: true, val: val, err: err}
}

// Get returns the settled value. Before flush it returns core.ErrPending;
// after a recording violation it returns the batch error; after a
// destination or dependency failure it rethrows the originating error.
func (f *Future) Get() (any, error) {
	f.b.mu.Lock()
	defer f.b.mu.Unlock()
	switch {
	case f.done:
		return f.val, f.err
	case f.b.failure != nil:
		return nil, f.b.failure
	}
	return nil, core.ErrPending
}

// Err returns only the error part of Get, for void methods.
func (f *Future) Err() error {
	_, err := f.Get()
	return err
}

// Typed views f as producing values of type T, converting wire-decoded
// dynamic values like core.TypedFuture does.
func Typed[T any](f *Future) TypedFuture[T] { return TypedFuture[T]{f: f} }

// TypedFuture wraps a cluster Future with a concrete result type.
type TypedFuture[T any] struct {
	f *Future
}

// Get returns the settled, typed value.
func (tf TypedFuture[T]) Get() (T, error) {
	var zero T
	v, err := tf.f.Get()
	if err != nil {
		return zero, err
	}
	return core.Convert[T](v)
}

// Future returns the underlying dynamic future.
func (tf TypedFuture[T]) Future() *Future { return tf.f }
