package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/rcache"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Exported errors of the cluster batch layer.
var (
	// ErrCrossServer reports a staged data dependency rejected by a
	// single-stage batch (WithSingleStage): a proxy recorded on one server
	// used as an argument of a call bound for a different server, or a
	// future's value spliced into a later call. Replaying either needs an
	// extra round-trip wave; single-stage batches keep the strict
	// one-round-trip-per-destination guarantee and reject the recording
	// instead. Default batches accept both and stage the flush
	// (DESIGN.md, "Cluster staging rules").
	ErrCrossServer = errors.New("cluster: cross-server data dependency")

	// ErrNoEndpoint reports a Root ref that carries no server endpoint.
	ErrNoEndpoint = errors.New("cluster: root ref has no endpoint")
)

// Batch is a cluster-wide recording session: the multi-server analogue of
// core.Batch, flushed as a record → plan → execute pipeline.
//
// Record: calls against proxies rooted on any number of servers go into one
// global log. A result produced on server A may feed a call bound for
// server B — as a proxy argument (the result stays remote and is forwarded
// by reference) or as a future argument (the settled value is spliced in).
//
// Plan: Flush builds the dependency DAG over the log and schedules it into
// stages — stage 0 holds every call with no staged inputs, stage k the
// calls whose staged inputs settle in earlier waves — each stage
// partitioned per destination exactly like a single-stage batch.
//
// Execute: stages run in order; within a stage every destination's
// sub-batch is one core.Batch round trip, fanned out in parallel, so a
// stage costs the slowest server's round trip and a depth-D pipeline costs
// D+1 round-trip waves instead of one per call. A dependency-free
// recording plans to a single stage and behaves exactly like the
// single-stage flush (one parallel wave; one round trip per destination).
//
// Like core.Batch, a Batch records one batch at a time and is not meant to
// be shared by concurrent client goroutines; the implementation is
// internally synchronized, so misuse corrupts no memory, only recording
// order.
type Batch struct {
	peer        *rmi.Peer
	policy      *core.Policy
	singleStage bool
	dir         *Directory
	cache       *rcache.Cache

	mu     sync.Mutex
	groups map[string]*group // keyed by server endpoint
	calls  []*recordedCall
	closed bool
	// waves counts the parallel fan-out barriers the flush executed.
	waves int
	// held are the exported result refs this batch leased between stages.
	held []wire.Ref
	// recErr is a sticky recording violation, reported by Flush.
	recErr error
	// retried is set once the flush has spent its single stale-route retry.
	retried bool
	// failure poisons every future when recording failed; per-server flush
	// failures stay per-group instead (see Flush).
	failure error

	// quorum is the write quorum W (WithQuorum): how many replicas,
	// counting the primary, must hold a wave before it acks. 0 means all.
	quorum int

	// Metrics, wired from the peer's stats registry (nil and therefore
	// no-ops when the peer is uninstrumented).
	reg         *stats.Registry
	flushWaves  *stats.Counter   // cluster.flush_waves
	stageNs     *stats.Histogram // cluster.stage_ns
	wrongHome   *stats.Counter   // cluster.wrong_home_retries
	replLag     *stats.Histogram // cluster.replication_lag
	quorumWaits *stats.Counter   // cluster.quorum_waits
}

// Option configures a cluster Batch.
type Option func(*Batch)

// WithPolicy sets the exception policy applied within every per-server
// sub-batch (default core.AbortPolicy, scoped per server: a failure on one
// server never aborts another server's sub-batch).
func WithPolicy(p *core.Policy) Option {
	return func(b *Batch) { b.policy = p }
}

// WithSingleStage restores the strict one-wave flush: any recording that
// would need staged execution — a cross-server RESULT proxy argument, or a
// future's value spliced into a later call — is rejected at record time
// with ErrCrossServer, so a flush is guaranteed to cost exactly one
// parallel round-trip wave (one round trip per destination). Cross-server
// ROOT proxies stay legal as arguments: their refs splice in statically
// without an extra wave.
func WithSingleStage() Option {
	return func(b *Batch) { b.singleStage = true }
}

// WithDirectory makes the batch epoch-aware: roots may be addressed by
// cluster-wide name (RootNamed), and a flush that hits a wrong-home
// rejection — the target migrated to a new home after recording started —
// refreshes the shard map from the directory, re-partitions the affected
// calls to their new homes, and retries once instead of failing.
func WithDirectory(d *Directory) Option {
	return func(b *Batch) { b.dir = d }
}

// WithCache attaches a lease-backed result cache to the batch. Readonly
// calls recorded with Proxy.CallRO may then settle from the cache (a batch
// whose every call hits completes in zero round trips), identical in-flight
// readonly calls across the cache's batches coalesce into one wire call,
// and every non-readonly call invalidates the leases of the root object it
// descends from. Share one cache per client — NewCache builds one wired to
// the directory's ring epoch.
func WithCache(c *rcache.Cache) Option {
	return func(b *Batch) { b.cache = c }
}

// NewCache creates a lease cache for cluster batches: instrumented through
// the peer's stats registry (hit/miss/evict/coalesce counters, nil-safe)
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
// waiting for every follower (the default, W=0 meaning "all"). W is capped
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
	g, ok := b.groups[ref.Endpoint]
	if !ok {
		g = &group{
			endpoint:    ref.Endpoint,
			rootProxies: make(map[wire.Ref]*Proxy),
		}
		if ref.Endpoint == "" {
			b.fail(fmt.Errorf("%w: object %d", ErrNoEndpoint, ref.ObjID))
		}
		b.groups[ref.Endpoint] = g
	}
	if p, ok := g.rootProxies[ref]; ok {
		return p
	}
	p := &Proxy{b: b, group: g, rootRef: ref, isRoot: true}
	g.roots = append(g.roots, ref)
	g.rootProxies[ref] = p
	return p
}

// RootNamed resolves a cluster-wide name through the batch's directory
// (WithDirectory) and returns its recording proxy, remembering the name so
// a stale-route flush failure can re-resolve the root at its new home and
// retry. It is the epoch-aware way to address rebalanceable objects.
func (b *Batch) RootNamed(ctx context.Context, name string) (*Proxy, error) {
	if b.dir == nil {
		return nil, errors.New("cluster: RootNamed requires a batch built with WithDirectory")
	}
	ref, err := b.dir.Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	p := b.Root(ref)
	p.key = name
	return p, nil
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
// settled entirely locally. A dependency-free recording flushes in one
// wave; a depth-D pipeline in D+1.
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

// record validates and appends one invocation. The argument scan classifies
// staged inputs: cross-server proxies and futures are legal by default (the
// planner schedules the extra waves) and rejected under WithSingleStage.
func (b *Batch) record(target *Proxy, kind int, method string, args []any) *recordedCall {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.recordLocked(target, kind, method, args, false)
}

// recordLocked is record with b.mu held; ro marks the call //brmi:readonly
// (any other call invalidates the cache leases of the objects it reaches).
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
			if x.group == target.group {
				continue
			}
			if x.origin == nil {
				// A root on another server needs no staged execution: its
				// ref is known statically and splices into the sub-batch
				// as-is, so even single-stage batches accept it.
				continue
			}
			if b.singleStage {
				b.fail(fmt.Errorf("%w: argument %d of %s was recorded on %q but the call targets %q; "+
					"this batch is single-stage (WithSingleStage) — drop the option to let the "+
					"planner forward the result between waves",
					ErrCrossServer, i, method, x.group.endpoint, target.group.endpoint))
				return nil
			}
		case *Future:
			if x.b != b {
				b.fail(fmt.Errorf("%w: argument %d of %s", core.ErrForeignProxy, i, method))
				return nil
			}
			if x.settled {
				// A cache-hit future already holds its value; it splices in
				// statically like a literal, needs no staged wave, and is
				// legal even under WithSingleStage.
				continue
			}
			if b.singleStage {
				b.fail(fmt.Errorf("%w: argument %d of %s splices a future's value, which settles only "+
					"after its producing wave; this batch is single-stage (WithSingleStage)",
					ErrCrossServer, i, method))
				return nil
			}
			if x.origin == nil {
				b.fail(fmt.Errorf("cluster: argument %d of %s is an unrecorded future", i, method))
				return nil
			}
		}
	}
	// A recorded non-readonly call is a potential write: drop the cached
	// leases of every root object it can reach, at record time, so readonly
	// calls later in program order can never serve the pre-write value.
	if !ro && b.cache != nil {
		if root := rootOf(target); !root.rootRef.IsZero() {
			b.cache.InvalidateObject(rcache.ObjKey(root.rootRef))
		}
		for _, a := range args {
			if x, ok := a.(*Proxy); ok {
				if root := rootOf(x); !root.rootRef.IsZero() {
					b.cache.InvalidateObject(rcache.ObjKey(root.rootRef))
				}
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
		ro:     ro,
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
// destinations in parallel and forwarding results between waves.
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
		err := &core.BatchError{Err: b.recErr}
		b.failure = err
		b.mu.Unlock()
		return err
	}
	nstages, err := planStages(b.calls)
	if err != nil {
		ferr := &core.BatchError{Err: err}
		b.failure = ferr
		b.mu.Unlock()
		return ferr
	}
	stages := buildStages(b.calls, nstages)
	b.calls = nil
	b.mu.Unlock()

	return b.execute(ctx, stages)
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
	// shipped record before the flush gave up. It carries how many replicas
	// acked vs how many the quorum required (worst miss when several
	// destinations missed). nil when no failure was quorum-related.
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
// primary) hold the record, the quorum required Required. The wave's calls
// fail — the client must not treat the flush as durable — but the flush
// never retries it: the primary already applied the wave, so a re-send
// could double-apply. Err joins the individual follower failures.
type QuorumError struct {
	// Name is the root name whose follower set missed quorum (the worst
	// miss, when the wave spans several named roots).
	Name     string
	Acked    int
	Required int
	Err      error
}

func (e *QuorumError) Error() string {
	return fmt.Sprintf("cluster: replication quorum not met for %q: %d of %d replicas acked: %v",
		e.Name, e.Acked, e.Required, e.Err)
}

func (e *QuorumError) Unwrap() error { return e.Err }

// Proxy is a cluster batch object: the recording stub for one remote object
// on one destination server. It mirrors core.Proxy minus cursors.
type Proxy struct {
	b      *Batch
	group  *group
	isRoot bool
	// rootRef is the exported object this proxy stands for (roots only).
	rootRef wire.Ref
	// key is the cluster-wide name this root was resolved from (RootNamed);
	// it is what lets a stale-route retry re-resolve the root's new home.
	key string
	// origin is the recorded call that produces this proxy's object (nil
	// for roots). The planner reads it to build the dependency DAG.
	origin *recordedCall
	// core is the single-server proxy this cluster proxy was rewired to
	// when its stage was translated; nil before that.
	core *core.Proxy
	// failedLocal is set when the call settled client-side without reaching
	// its server: a failed dependency, or a destination that failed in an
	// earlier stage.
	failedLocal error
}

// Batch returns the cluster batch this proxy records into.
func (p *Proxy) Batch() *Batch { return p.b }

// Endpoint returns the destination server this proxy's calls are bound for.
func (p *Proxy) Endpoint() string { return p.group.endpoint }

// Call records a method invocation whose result is a value, returning its
// future. The future may itself be passed as an argument of a later call —
// on any server — and the flush splices the settled value in, costing one
// extra round-trip wave.
func (p *Proxy) Call(method string, args ...any) *Future {
	f := &Future{b: p.b}
	if c := p.b.record(p, kindValue, method, args); c != nil {
		c.future = f
		f.origin = c
	}
	return f
}

// CallRO records a method invocation declared //brmi:readonly. On a batch
// carrying a lease cache (WithCache), a cacheable call — root target, plain
// marshalable arguments — consults the cache at record time: a hit returns
// an already-settled future and the batch records nothing (a batch whose
// every call hits flushes in zero round trips); a miss records normally and
// at flush time joins the cache's singleflight table, so identical
// in-flight readonly calls across this client's batches collapse into one
// wire call. Without a cache (or for uncacheable shapes) it is Call.
func (p *Proxy) CallRO(method string, args ...any) *Future {
	b := p.b
	f := &Future{b: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cache != nil && p.isRoot && p.b == b && !b.closed && b.recErr == nil {
		if key, ok := rcache.Key(p.rootRef, method, args); ok {
			if v, hit := b.cache.Get(key); hit {
				f.settled = true
				f.val = v
				return f
			}
			if c := b.recordLocked(p, kindValue, method, args, true); c != nil {
				c.future = f
				f.origin = c
				c.ckey = key
				c.cobj = rcache.ObjKey(p.rootRef)
				c.cgen = b.cache.Gen(c.cobj)
				c.cepoch = b.cache.Epoch()
			}
			return f
		}
	}
	if c := b.recordLocked(p, kindValue, method, args, true); c != nil {
		c.future = f
		f.origin = c
	}
	return f
}

// CallBatch records a method invocation whose result is a remote object;
// the result stays on its server and the returned proxy records further
// calls on it. Passing the proxy as an argument of a call bound for a
// DIFFERENT server makes the flush pin the result as an exported reference
// and forward it by reference in the next wave.
func (p *Proxy) CallBatch(method string, args ...any) *Proxy {
	np := &Proxy{b: p.b, group: p.group}
	if c := p.b.record(p, kindRemote, method, args); c != nil {
		c.proxy = np
		np.origin = c
	}
	return np
}

// Ok rethrows any exception this batch object depends on. Before flush it
// returns core.ErrPending for non-root proxies.
func (p *Proxy) Ok() error {
	p.b.mu.Lock()
	failure, local, inner := p.b.failure, p.failedLocal, p.core
	p.b.mu.Unlock()
	if failure != nil {
		return failure
	}
	if local != nil {
		return local
	}
	if inner == nil {
		if p.isRoot {
			return nil
		}
		return core.ErrPending
	}
	return inner.Ok()
}

// Future is the placeholder for a cluster-batched call's result. It is
// created at recording time and bound to its destination's core.Future when
// its stage is translated.
type Future struct {
	b *Batch
	// origin is the recorded call producing this future's value.
	origin *recordedCall
	inner  *core.Future
	// err is set when the call settled client-side without reaching its
	// server (failed dependency or failed destination in an earlier stage).
	err error
	// settled/val carry a value that never bound to a core future: a cache
	// hit at record time, or a coalesced readonly call settled from another
	// call's singleflight.
	settled bool
	val     any
}

// Get returns the settled value. Before flush it returns core.ErrPending;
// after a recording violation it returns the batch error; after a
// destination or dependency failure it rethrows the originating error.
func (f *Future) Get() (any, error) {
	f.b.mu.Lock()
	failure, local, inner := f.b.failure, f.err, f.inner
	settled, val := f.settled, f.val
	f.b.mu.Unlock()
	if settled {
		return val, nil
	}
	if failure != nil {
		return nil, failure
	}
	if local != nil {
		return nil, local
	}
	if inner == nil {
		return nil, core.ErrPending
	}
	//brmivet:ignore futurederef inner is only assigned at flush time, so delegating here is the settled path
	return inner.Get()
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
