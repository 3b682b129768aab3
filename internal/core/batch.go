package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Batch records remote method invocations for one batch chain and executes
// them with Flush / FlushAndContinue. It is the Go analogue of the object
// BRMI.create returns (§3.2).
//
// Like the paper's recording stubs (§4.5), a Batch records one batch at a
// time and is not meant to be shared by concurrent client threads; create
// one Batch per goroutine. The implementation is internally synchronized,
// so misuse corrupts no memory, only recording order.
type Batch struct {
	peer *rmi.Peer
	root wire.Ref

	// Flush metrics from the peer's registry, nil when uninstrumented.
	reg     *stats.Registry
	flushNs *stats.Histogram // round-trip duration per flush
	acked   *stats.Counter   // results acknowledged for executed calls

	mu    sync.Mutex
	extra []wire.Ref // additional roots (AddRoot), same endpoint as root
	// names is nil while every root is id-addressed, else parallel to
	// root+extra: a non-empty names[i] marks position i name-addressed, its
	// ref carrying only the endpoint until the first flush's reply fills it.
	names []string
	// lent is nil while no root is lent, else parallel to extra: lent[i]
	// marks extra root i lent (LendRoot).
	lent    []bool
	policy  *Policy
	nextSeq int64
	calls   []invocationData
	// records is parallel to calls (records[i] belongs to calls[i]); the
	// call with sequence number s lives at index s-recBase. A slice beats
	// the old per-call map entry on the recording hot path.
	records  []callRecord
	recBase  int64
	argArena []batchArg // chunked backing for invocationData.Args
	session  uint64
	sentPol  bool
	closed   bool
	// recErr is a sticky recording violation, reported by the next flush.
	recErr error
	// failure is the batch-wide failure every future rethrows.
	failure error
	// lastOwner tracks cursor-run contiguity (§4.1).
	lastOwner *Cursor
	// ship is the directive the next flush carries (see Ship); shipLag is
	// what the last flush's reply said came of it (see ShipLag).
	ship    *ShipDirective
	shipLag time.Duration
	// flushID and peers are the next flush's part in a cluster flush's value
	// pushes (push.go): its id, and the endpoints its calls push to.
	flushID uint64
	peers   []string
}

// callRecord links a recorded call to the client object awaiting its result.
type callRecord struct {
	kind   int64
	future *futureState
	proxy  *Proxy // for kindRemote and kindCursor (cursor embeds Proxy)
	cursor *Cursor
	owner  *Cursor
}

// Option configures a Batch.
type Option func(*Batch)

// WithPolicy sets the exception policy for the chain (default AbortPolicy).
func WithPolicy(p *Policy) Option {
	return func(b *Batch) { b.policy = p }
}

// defaultPolicy is the shared AbortPolicy instance the common case uses;
// policies are immutable after construction, so sharing is safe and saves
// an allocation per batch.
var defaultPolicy = AbortPolicy()

// New creates a batch over the remote object root, the equivalent of
// BRMI.create(iface, remoteRef [, policy]) (§3.2, §3.3).
func New(peer *rmi.Peer, root wire.Ref, opts ...Option) *Batch {
	b := &Batch{
		peer:   peer,
		root:   root,
		policy: defaultPolicy,
	}
	if reg := peer.Stats(); reg != nil {
		b.reg = reg
		b.flushNs = reg.Histogram("core.flush_ns")
		b.acked = reg.Counter("core.calls_acked")
	}
	for _, o := range opts {
		o(b)
	}
	return b
}

// NewNamed creates a batch over the object bound as name in the registry of
// the peer serving endpoint. Nothing is resolved here: the first flush
// carries the name, the serving peer resolves it before it executes
// anything — a miss rejects the flush with the registry's typed error, or
// *ElsewhereError for a binding that points at another endpoint — and the
// reply to a FlushAndContinue fills in the root's reference (Proxy.RootRef).
func NewNamed(peer *rmi.Peer, endpoint, name string, opts ...Option) *Batch {
	b := New(peer, wire.Ref{Endpoint: endpoint}, opts...)
	b.names = []string{name}
	return b
}

// Ship attaches a ship directive to the next flush, and to that flush only:
// the serving peer replicates the wave to the followers its ring gives the
// roots at the directive's epoch and R before it replies, so a flush that
// returns nil is held by the write quorum. One that missed it returns the
// serving peer's typed account of the miss although the wave executed: its
// futures hold what it returned. The serving peer refuses a directive on a
// flush that keeps or continues a session, unexecuted: a replicated wave is
// self-contained. The cluster layer attaches one per wave of a replicating
// destination.
func (b *Batch) Ship(d *ShipDirective) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ship = d
}

// ShipLag reports how long the serving peer spent replicating the last
// flush's wave before it replied — from the end of the wave's execution until
// its write quorum held it — to the microsecond, and at least one
// microsecond. 0 means the wave was not replicated.
func (b *Batch) ShipLag() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shipLag
}

// Root returns the proxy for the batch's root object.
func (b *Batch) Root() *Proxy {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rootProxy(0)
}

// rootProxy returns a recording proxy for root position pos (0 is the
// batch's root, 1+i extra root i), addressed on the wire by sequence number
// RootTarget-pos. Caller holds b.mu.
func (b *Batch) rootProxy(pos int) *Proxy {
	return &Proxy{b: b, seq: RootTarget - int64(pos), settled: true, root: true}
}

// rootAt returns the ref of root position pos. Caller holds b.mu.
func (b *Batch) rootAt(pos int) *wire.Ref {
	if pos == 0 {
		return &b.root
	}
	return &b.extra[pos-1]
}

// AddRoot registers another exported remote object as an additional root of
// this batch and returns its recording proxy. The object must live on the
// same server as the batch's root: a batch is one round trip to one server.
// Adding the same ref twice returns a proxy for the same root. The cluster
// layer uses this to fold every call bound for one server into a single
// sub-batch regardless of how many objects the calls target.
func (b *Batch) AddRoot(ref wire.Ref) (*Proxy, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBatchClosed
	}
	if ref.Endpoint != b.root.Endpoint {
		return nil, fmt.Errorf("%w: root %d lives on %q, batch targets %q",
			ErrForeignRoot, ref.ObjID, ref.Endpoint, b.root.Endpoint)
	}
	if ref == b.root {
		return b.rootProxy(0), nil
	}
	for i, r := range b.extra {
		if r == ref {
			if b.lent != nil {
				b.lent[i] = false
			}
			return b.rootProxy(1 + i), nil
		}
	}
	b.extra = append(b.extra, ref)
	if b.names != nil {
		b.names = append(b.names, "")
	}
	if b.lent != nil {
		b.lent = append(b.lent, false)
	}
	return b.rootProxy(len(b.extra)), nil
}

// AddRootNamed is AddRoot for an object addressed by the name it is bound
// under in the serving peer's registry (see NewNamed). Adding the same name
// twice returns a proxy for the same root.
func (b *Batch) AddRootNamed(name string) (*Proxy, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBatchClosed
	}
	for i, n := range b.names {
		if n == name {
			return b.rootProxy(i), nil
		}
	}
	if b.names == nil {
		b.names = make([]string, 1+len(b.extra))
	}
	b.extra = append(b.extra, wire.Ref{Endpoint: b.root.Endpoint})
	b.names = append(b.names, name)
	if b.lent != nil {
		b.lent = append(b.lent, false)
	}
	return b.rootProxy(len(b.extra)), nil
}

// LendRoot is AddRoot for a root the batch borrows for calls of its own: one
// the serving peer does not hold fails only the calls made on it, with
// *rmi.NoSuchObjectError or, for an object that moved, *rmi.WrongHomeError,
// where any other missing root rejects the whole flush. Lending a ref the
// batch already has as a root returns that root, and AddRoot of a lent ref
// makes it an ordinary root. The cluster layer lends the roots of the leases
// a flush re-reads on its way (rcache.Cache.Due).
func (b *Batch) LendRoot(ref wire.Ref) (*Proxy, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBatchClosed
	}
	if ref.Endpoint != b.root.Endpoint {
		return nil, fmt.Errorf("%w: root %d lives on %q, batch targets %q",
			ErrForeignRoot, ref.ObjID, ref.Endpoint, b.root.Endpoint)
	}
	if ref == b.root {
		return b.rootProxy(0), nil
	}
	for i, r := range b.extra {
		if r == ref {
			return b.rootProxy(1 + i), nil
		}
	}
	if b.lent == nil {
		b.lent = make([]bool, len(b.extra))
	}
	b.extra = append(b.extra, ref)
	if b.names != nil {
		b.names = append(b.names, "")
	}
	b.lent = append(b.lent, true)
	return b.rootProxy(len(b.extra)), nil
}

// Peer returns the underlying RMI peer.
func (b *Batch) Peer() *rmi.Peer { return b.peer }

// Session returns the server session id of the chain (0 when none is open).
func (b *Batch) Session() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.session
}

// PendingCalls returns the number of recorded, unflushed calls.
func (b *Batch) PendingCalls() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.calls)
}

// --- recording ---------------------------------------------------------------

// futureAlloc packs a Future and its state into one allocation; recording a
// value call costs a single heap object.
type futureAlloc struct {
	f  Future
	st futureState
}

func (b *Batch) recordValue(target *Proxy, method string, args []any) *Future {
	b.mu.Lock()
	defer b.mu.Unlock()
	fa := &futureAlloc{}
	fa.f.st = &fa.st
	fa.st.b = b
	seq, owner, ok := b.appendCall(target, method, kindValue, args)
	if ok {
		fa.st.seq = seq
		fa.st.cursor = owner
		b.records = append(b.records, callRecord{kind: kindValue, future: &fa.st, owner: owner})
	}
	return &fa.f
}

func (b *Batch) recordRemote(target *Proxy, method string, args []any) *Proxy {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := &Proxy{b: b}
	seq, owner, ok := b.appendCall(target, method, kindRemote, args)
	if ok {
		p.seq = seq
		p.cursor = owner
		b.records = append(b.records, callRecord{kind: kindRemote, proxy: p, owner: owner})
	}
	return p
}

func (b *Batch) recordCursor(target *Proxy, method string, args []any) *Cursor {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := &Cursor{Proxy: Proxy{b: b}, pos: -1}
	if target.recordingOwner() != nil {
		b.fail(ErrNestedCursor)
		return c
	}
	seq, owner, ok := b.appendCall(target, method, kindCursor, args)
	if ok {
		if owner != nil {
			b.fail(ErrNestedCursor)
			return c
		}
		c.seq = seq
		c.Proxy.cursor = c // operations on the cursor belong to its own run
		b.records = append(b.records, callRecord{kind: kindCursor, proxy: &c.Proxy, cursor: c})
	}
	return c
}

// appendCall validates and stores one invocation. Caller holds b.mu.
// It returns the assigned sequence number, the owning cursor (nil if none),
// and whether recording succeeded (violations are sticky via b.recErr).
func (b *Batch) appendCall(target *Proxy, method string, kind int64, args []any) (int64, *Cursor, bool) {
	if b.closed {
		b.fail(ErrBatchClosed)
		return 0, nil, false
	}
	if b.recErr != nil {
		return 0, nil, false
	}
	if target.b != b {
		b.fail(fmt.Errorf("%w: call %s", ErrForeignProxy, method))
		return 0, nil, false
	}

	// Establish the owning cursor: the target's (if recording) or any
	// argument proxy's ("any operation that uses the cursor as a target or
	// argument is repeated for each array element", §3.4).
	owner := target.recordingOwner()
	for _, a := range args {
		ap := argProxy(a)
		if ap == nil {
			continue
		}
		if ap.b != b {
			b.fail(fmt.Errorf("%w: argument of %s", ErrForeignProxy, method))
			return 0, nil, false
		}
		if ao := ap.recordingOwner(); ao != nil {
			if owner == nil {
				owner = ao
			} else if owner != ao {
				b.fail(fmt.Errorf("%w: arguments of %s span two cursors", ErrCursorInterleaved, method))
				return 0, nil, false
			}
		}
	}

	// Contiguity: once another call interrupts a cursor's run, the run is
	// closed and further operations on that cursor are an error (§4.1).
	if owner != nil && owner.runClosed {
		b.fail(fmt.Errorf("%w: %s recorded after the cursor's run ended", ErrCursorInterleaved, method))
		return 0, nil, false
	}
	if b.lastOwner != nil && b.lastOwner != owner {
		b.lastOwner.runClosed = true
	}
	b.lastOwner = owner

	targetSeq, err := target.currentSeq()
	if err != nil {
		b.fail(fmt.Errorf("brmi: target of %s: %w", method, err))
		return 0, nil, false
	}

	inv := invocationData{
		Seq:    b.nextSeq,
		Target: targetSeq,
		Method: method,
		Kind:   kind,
	}
	if owner != nil {
		inv.setOwner(owner.seq)
	}
	inv.Args = b.argAlloc(len(args))
	for i, a := range args {
		if ap := argProxy(a); ap != nil {
			seq, err := ap.currentSeq()
			if err != nil {
				b.fail(fmt.Errorf("brmi: argument %d of %s: %w", i, method, err))
				return 0, nil, false
			}
			inv.Args[i] = batchArg{IsRef: true, Seq: seq}
			continue
		}
		if x, ok := a.(Pushed); ok {
			inv.Args[i] = batchArg{IsRef: true, Seq: x.Tag, Pushed: true}
			continue
		}
		if f, ok := a.(*Future); ok {
			arg, err := b.futureArg(f)
			if err != nil {
				b.fail(fmt.Errorf("brmi: argument %d of %s: %w", i, method, err))
				return 0, nil, false
			}
			inv.Args[i] = arg
			continue
		}
		w, err := b.peer.ToWire(a)
		if err != nil {
			b.fail(fmt.Errorf("brmi: argument %d of %s: %w", i, method, err))
			return 0, nil, false
		}
		inv.Args[i] = batchArg{Val: w}
	}

	b.calls = append(b.calls, inv)
	seq := b.nextSeq
	b.nextSeq++
	return seq, owner, true
}

// argAlloc carves an n-element Args slice out of the batch's arena chunk,
// so recording a call does not allocate per-call argument slices. Chunks
// fill up and are replaced (never grown in place), keeping every
// previously handed-out slice valid. Full-capacity slicing prevents append
// bleed between calls. Caller holds b.mu.
func (b *Batch) argAlloc(n int) []batchArg {
	if n == 0 {
		return nil
	}
	if len(b.argArena)+n > cap(b.argArena) {
		size := 64
		if n > size {
			size = n
		}
		b.argArena = make([]batchArg, 0, size)
	}
	base := len(b.argArena)
	b.argArena = b.argArena[:base+n]
	return b.argArena[base : base+n : base+n]
}

// futureArg encodes a value future passed as an argument. One whose call is
// still unflushed travels as a reference to that call, exactly like a remote
// result: the server hands the consumer the producer's value inside the same
// request, and a producer that failed fails the consumer with its own error.
// One an earlier flush of the chain settled is a literal the client already
// holds. A cursor run's future has one value per element and no single one to
// pass. Caller holds b.mu.
func (b *Batch) futureArg(f *Future) (batchArg, error) {
	if f == nil || f.st == nil {
		return batchArg{}, errors.New("nil future")
	}
	st := f.st
	switch {
	case st.b != b:
		return batchArg{}, ErrForeignProxy
	case st.cursor != nil:
		return batchArg{}, errors.New("a cursor run's future holds one value per element")
	case st.settled && st.err != nil:
		return batchArg{}, st.err
	case st.settled:
		w, err := b.peer.ToWire(st.val)
		return batchArg{Val: w}, err
	case st.seq < b.recBase:
		// Flushed and not settled: the flush is still in flight, or failed.
		return batchArg{}, ErrPending
	}
	return batchArg{IsRef: true, Seq: st.seq}, nil
}

// argProxy extracts the *Proxy behind an argument, unwrapping cursors and
// generated typed stubs (which implement ProxyHolder).
func argProxy(a any) *Proxy {
	switch x := a.(type) {
	case *Proxy:
		return x
	case *Cursor:
		return &x.Proxy
	case ProxyHolder:
		return x.BatchProxy()
	default:
		return nil
	}
}

// ProxyHolder is implemented by generated typed batch stubs so they can be
// passed as arguments to recorded calls.
type ProxyHolder interface {
	BatchProxy() *Proxy
}

// fail records a sticky recording violation. Caller holds b.mu.
func (b *Batch) fail(err error) {
	if b.recErr == nil {
		b.recErr = err
	}
}

// --- flushing ----------------------------------------------------------------

// Flush sends the recorded batch to the server for execution and closes the
// chain: the server session (if any) is released (§3.2).
func (b *Batch) Flush(ctx context.Context) error {
	return b.flush(ctx, false)
}

// FlushAndContinue sends the recorded batch and keeps the server context so
// a chained batch can use earlier results (§3.5).
func (b *Batch) FlushAndContinue(ctx context.Context) error {
	return b.flush(ctx, true)
}

func (b *Batch) flush(ctx context.Context, keep bool) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatchClosed
	}
	if b.recErr != nil {
		err := &BatchError{Err: b.recErr}
		b.failure = err
		b.closed = true
		b.mu.Unlock()
		return err
	}
	// An empty terminal flush has nothing to tell the server: no recorded
	// calls, no session to release, no session to open. Skip the wire.
	if len(b.calls) == 0 && b.session == 0 && !keep {
		b.closed = true
		b.mu.Unlock()
		return nil
	}
	req := &batchRequest{
		Session:     b.session,
		Root:        b.root.ObjID,
		KeepSession: keep,
		Calls:       b.calls,
		Names:       b.names,
		Ship:        b.ship,
		Flush:       b.flushID,
		Peers:       b.peers,
		Lends:       slices.Clone(b.lent),
	}
	b.names = nil // a chain's reply resolves them all; otherwise the batch closes
	b.ship, b.shipLag = nil, 0
	b.flushID, b.peers = 0, nil
	if len(b.extra) > 0 {
		req.Roots = make([]uint64, len(b.extra))
		for i, r := range b.extra {
			req.Roots[i] = r.ObjID
		}
	}
	if !b.sentPol && b.policy != defaultPolicy {
		// The server assumes AbortPolicy when no policy travels; the shared
		// default never needs encoding.
		req.Policy = b.policy
	}
	records := b.records
	b.calls = nil
	b.records = nil
	b.argArena = nil // chunks stay alive through req until encoded
	b.recBase = b.nextSeq
	b.lastOwner = nil
	b.mu.Unlock()

	var flushStart time.Time
	if b.reg != nil {
		flushStart = b.reg.Now()
	}
	res, err := b.peer.Send(ctx, b.root.Endpoint, req)
	if b.reg != nil {
		b.flushNs.Observe(b.reg.Now().Sub(flushStart).Nanoseconds())
	}
	return b.settle(b.root.Endpoint, req, records, keep, res, err)
}

// settle takes the outcome of req's round trip to endpoint — the reply in
// res, or err — for records, the calls req carried: it adopts the root
// references the server resolved for a chain (keep) and settles the records
// from the results, positionally. A reply that does not answer req — another
// type, another count of results or of roots — settles nothing and fails the
// batch, as a failed round trip does.
func (b *Batch) settle(endpoint string, req *batchRequest, records []callRecord, keep bool, res any, err error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	resp, _ := res.(*batchResponse)
	var nh *rmi.NoHandlerError
	switch {
	case errors.As(err, &nh):
		err = ErrNoBatchService
	case err != nil: // the round trip failed
	case resp == nil:
		err = fmt.Errorf("unexpected response %v", res)
	case len(resp.Results) != len(records):
		err = fmt.Errorf("reply answers %d of %d calls", len(resp.Results), len(records))
	case keep && len(req.Names) != 0 && len(resp.Roots) != len(req.Names):
		err = fmt.Errorf("reply resolved %d of %d root names", len(resp.Roots), len(req.Names))
	}
	if err != nil {
		ferr := &BatchError{Err: err}
		b.failure = ferr
		b.closed = true
		return ferr
	}
	// The server resolved every name before executing, and tells a chain
	// what to: adopt the refs, so its later flushes go out id-addressed.
	for i, name := range req.Names {
		if name != "" && keep {
			ref := resp.Roots[i]
			ref.Endpoint = endpoint
			*b.rootAt(i) = ref
		}
	}
	b.sentPol = true
	b.session = resp.Session
	b.shipLag = time.Duration(resp.ShipUs) * time.Microsecond
	b.distribute(records, resp.Results)
	if !keep {
		b.closed = true
	}
	return resp.ShipErr
}

// distribute assigns results to futures, proxies, and cursors (§4.3):
// results[i] answers the call records[i] was recorded for. Caller holds b.mu.
func (b *Batch) distribute(records []callRecord, results []callResult) {
	var executed uint64
	for i := range results {
		r := &results[i]
		if !r.Skipped {
			// The server executed this call (skipped results never reached
			// method execution); the count mirrors the server-side
			// core.calls_executed counter for the chaos cross-check.
			executed++
		}
		rec := &records[i]
		switch rec.kind {
		case kindValue:
			st := rec.future
			st.settled = true
			if rec.owner != nil {
				st.block = r.Block
				st.blockErrs = r.BlockErrs
			} else {
				st.err = r.Err
				if st.err == nil {
					st.val = b.peer.FromWire(r.Value)
				}
			}
		case kindRemote:
			p := rec.proxy
			p.settled = true
			p.failed = r.Err
			if rec.owner != nil {
				p.base = r.Base
			}
		case kindCursor:
			c := rec.cursor
			c.settled = true
			c.flushed = true
			c.failed = r.Err
			c.count = r.Count
			c.base = r.Base
			c.pos = -1
		}
	}
	b.acked.Add(executed)
}
