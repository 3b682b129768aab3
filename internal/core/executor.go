package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// serverSeqBase is where server-assigned ids (cursor elements, per-element
// results) start, far above any client sequence number.
const serverSeqBase int64 = 1 << 40

// DefaultSessionTTL bounds how long a chained-batch session survives
// between flushes.
const DefaultSessionTTL = time.Minute

// Executor is the server side of BRMI: the system service that replays
// recorded batches against local objects (paper Fig. 2, invokeBatch). It is
// installed once per serving peer, which makes every exported object
// batch-callable — the analogue of adding invokeBatch to
// UnicastRemoteObject (§4.2).
type Executor struct {
	rmi.RemoteBase

	peer *rmi.Peer
	ttl  time.Duration

	// Replay metrics, nil (no-op) when the peer is uninstrumented.
	reg        *stats.Registry
	batchCalls *stats.Histogram // calls per received batch
	waveNs     *stats.Histogram // replay duration per InvokeBatch
	replays    *stats.Counter   // replays, a restart counting again; brmibench reads its name
	executed   *stats.Counter   // calls that reached method execution
	splices    *stats.Counter   // arguments answered from the wave's value table

	// Streaming bulk reads (GetBatch). Separate from executed: replica
	// accounting cross-checks calls_executed against client acks.
	getbatchBatches *stats.Counter // GetBatch requests served
	getbatchEntries *stats.Counter // entries streamed across all GetBatches

	mu       sync.Mutex
	sessions map[uint64]*session
	nextID   uint64
	stopped  bool
	shipHook ShipHook
	done     chan struct{}
	wg       sync.WaitGroup
}

// session is the retained server context of a batch chain (§3.5): the
// objects created by earlier flushes, addressable by sequence number, plus
// the failure of each failed call for dependency propagation. The maps are
// allocated lazily: value-only batches (the common hot path) never touch
// either.
type session struct {
	root     any
	extras   []any // additional roots, addressed at RootTarget-1-i
	policy   *Policy
	objects  map[int64]any
	failures map[int64]error
	nextBase int64
	expires  time.Time
	// shadow marks a replica replay session: execution is identical, but the
	// calls are excluded from core.calls_executed so the cluster-wide count
	// keeps matching client acks (replayed calls were already counted at the
	// primary).
	shadow bool
	// chain is the ship hook's state for this chain (Wave.Chain): kept, and
	// dropped, with the session.
	chain any
}

func (s *session) bindObject(seq int64, v any) {
	if s.objects == nil {
		s.objects = make(map[int64]any, 8)
	}
	s.objects[seq] = v
}

func (s *session) bindFailure(seq int64, err error) {
	if s.failures == nil {
		s.failures = make(map[int64]error, 8)
	}
	s.failures[seq] = err
}

// ExecOption configures the Executor.
type ExecOption func(*Executor)

// WithSessionTTL sets how long sessions survive between chained flushes.
func WithSessionTTL(d time.Duration) ExecOption {
	return func(e *Executor) { e.ttl = d }
}

// Install exports the batch executor on p at the reserved BRMI object id
// and starts the session expiry sweeper. Call Stop (or close the peer and
// Stop) on shutdown.
func Install(p *rmi.Peer, opts ...ExecOption) (*Executor, error) {
	e := &Executor{
		peer:     p,
		ttl:      DefaultSessionTTL,
		sessions: make(map[uint64]*session),
		done:     make(chan struct{}),
	}
	for _, o := range opts {
		o(e)
	}
	if reg := p.Stats(); reg != nil {
		e.reg = reg
		e.batchCalls = reg.Histogram("core.batch_calls")
		e.waveNs = reg.Histogram("core.wave_ns")
		e.replays = reg.Counter("core.replay_sequential")
		e.executed = reg.Counter("core.calls_executed")
		e.splices = reg.Counter("core.value_splices")
		e.getbatchBatches = reg.Counter("core.getbatch_batches")
		e.getbatchEntries = reg.Counter("core.getbatch_entries")
	}
	if _, err := p.ExportSystem(rmi.BatchObjID, e, rmi.BatchIface); err != nil {
		return nil, fmt.Errorf("brmi: install executor: %w", err)
	}
	p.HandleStream(GetBatchService, e.serveGetBatch)
	e.wg.Add(1)
	go e.sweepLoop()
	return e, nil
}

// Stop terminates the session sweeper. Idempotent.
func (e *Executor) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.stopped = true
	e.mu.Unlock()
	close(e.done)
	e.wg.Wait()
}

// NumSessions reports the live chained-batch sessions (for tests).
func (e *Executor) NumSessions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

func (e *Executor) sweepLoop() {
	defer e.wg.Done()
	interval := e.ttl / 4
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			now := time.Now()
			e.mu.Lock()
			for id, s := range e.sessions {
				if now.After(s.expires) {
					delete(e.sessions, id)
				}
			}
			e.mu.Unlock()
		case <-e.done:
			return
		}
	}
}

// Wave describes one flush that carries a ship directive to the executor's
// ship hook, after its roots resolved and before anything executes.
type Wave struct {
	// Directive is the request's ship directive as decoded: nothing about it
	// has been checked.
	Directive *ShipDirective
	// Names are the request's own root names: empty, or parallel to Roots
	// with "" at the id-addressed positions.
	Names []string
	// Roots are the export ids the request's roots resolved to on this peer.
	Roots []uint64
	// Session identifies the wave's chain on this executor for as long as the
	// executor lives; First marks the chain's first wave.
	Session uint64
	First   bool
	// Chain is the hook's own per-chain state: what it left here on the
	// chain's previous wave, nil on the first. The executor keeps it with the
	// session and drops it with it.
	Chain any
}

// ShipHook vets a directive-carrying wave before it executes: an error
// rejects the request with nothing executed. A nil ShipFunc lets the wave run
// unreplicated; otherwise the executor calls it once the wave executed,
// holding no lock, with the request minus its directive as payload, and
// answers the client only when it returns — with how long the wave's quorum
// took and, if it was missed, the error beside the wave's results: the wave
// stays executed.
type ShipHook func(w *Wave) (ShipFunc, error)

// ShipFunc replicates one executed wave (see ShipHook).
type ShipFunc func(ctx context.Context, payload any) (lag time.Duration, err error)

// SetShipHook installs the replication seam (cluster.StartReplica does). A
// flush that carries a ship directive to an executor without one is refused.
func (e *Executor) SetShipHook(h ShipHook) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.shipHook = h
}

// InvokeBatch is the remote method every flush calls: it decodes nothing
// (the dispatch layer already did), replays the invocations in recording
// order, applies the exception policy, and returns per-call results
// (paper Fig. 2).
func (e *Executor) InvokeBatch(ctx context.Context, req *batchRequest) (*batchResponse, error) {
	return e.invokeBatch(ctx, req, false)
}

// ReplayShadow replays a shipped flush payload (the primary's decoded
// request, handed to the ship hook and forwarded over the wire) against
// substitute root objects: root and extras are local export ids standing in
// for the payload's original roots, and session chains consecutive waves of
// the same batch exactly like the primary's KeepSession chain. The replay
// runs through the normal batch machinery — per-call order, dependency
// propagation, and exception policy are identical to the primary execution,
// which is what makes a deterministic batch command applicable to replica
// shadow state. It returns the (possibly retained) session id and the
// number of calls replayed.
func (e *Executor) ReplayShadow(ctx context.Context, shipped any, root uint64, extras []uint64, session uint64) (uint64, int, error) {
	orig, ok := shipped.(*batchRequest)
	if !ok {
		return 0, 0, fmt.Errorf("brmi: shadow replay payload is %T, not a batch request", shipped)
	}
	if len(extras) != len(orig.Roots) {
		return 0, 0, fmt.Errorf("brmi: shadow replay: payload has %d roots, %d substitutes given", 1+len(orig.Roots), 1+len(extras))
	}
	req := *orig
	req.Root = root
	req.Roots = extras
	// The substitutes are ids: a name the primary resolved in its registry
	// must not be resolved again in this peer's. Nor does a follower re-ship:
	// whatever directive the payload still carries is dropped.
	req.Names = nil
	req.Ship = nil
	req.Session = session
	resp, err := e.invokeBatch(ctx, &req, true)
	if err != nil {
		return 0, 0, err
	}
	return resp.Session, len(req.Calls), nil
}

func (e *Executor) invokeBatch(ctx context.Context, req *batchRequest, shadow bool) (*batchResponse, error) {
	sess, sessID, named, err := e.resolveSession(req)
	if err != nil {
		return nil, err
	}
	if shadow {
		// Only a replica replay writes: a primary session can be reached by
		// its client's release (ReleaseSession) while a wave that client
		// abandoned is still executing, and that wave reads the flag.
		sess.shadow = true
	}
	var ship ShipFunc
	if req.Ship != nil {
		if ship, err = e.admitShip(req, sess, sessID, named); err != nil {
			return nil, err
		}
	}

	e.batchCalls.Observe(int64(len(req.Calls)))
	var waveStart time.Time
	if e.reg != nil {
		waveStart = e.reg.Now()
	}
	resp := &batchResponse{Roots: named}
	for restart := 0; ; restart++ {
		results, again := e.runBatch(ctx, sess, req.Calls)
		e.replays.Inc()
		if !again || restart >= sess.policy.maxRestarts() {
			resp.Results = results
			resp.Restarts = int64(restart)
			break
		}
	}
	if e.reg != nil {
		e.waveNs.Observe(e.reg.Now().Sub(waveStart).Nanoseconds())
	}
	if ship != nil {
		payload := *req
		payload.Ship = nil
		var lag time.Duration
		lag, resp.ShipErr = ship(ctx, &payload)
		// A clock too coarse to see the ship must not read as "unreplicated".
		resp.ShipNs = max(int64(lag), 1)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if req.KeepSession && !e.stopped {
		sess.expires = time.Now().Add(e.ttl)
		e.sessions[sessID] = sess
		resp.Session = sessID
	} else {
		delete(e.sessions, sessID)
		resp.Session = 0
	}
	return resp, nil
}

// admitShip hands a directive-carrying request to the ship hook, after its
// roots resolved and before anything executes.
func (e *Executor) admitShip(req *batchRequest, sess *session, sessID uint64, named []wire.Ref) (ShipFunc, error) {
	e.mu.Lock()
	hook, chain := e.shipHook, sess.chain
	e.mu.Unlock()
	if hook == nil {
		return nil, fmt.Errorf("brmi: flush carries a ship directive, but this peer runs no replication service")
	}
	roots := append([]uint64{req.Root}, req.Roots...)
	for i, ref := range named {
		if req.Names[i] != "" {
			roots[i] = ref.ObjID
		}
	}
	w := &Wave{Directive: req.Ship, Names: req.Names, Roots: roots, Session: sessID, First: req.Session == 0, Chain: chain}
	ship, err := hook(w)
	e.mu.Lock()
	sess.chain = w.Chain
	e.mu.Unlock()
	return ship, err
}

// resolveSession turns a request's roots into live objects and finds or
// creates its session, before anything executes: a root that is not here —
// an id that migrated away, a name this peer's registry does not hold —
// rejects the whole request. named is the reply's Roots: what each
// name-addressed position resolved to, nil for an id-addressed request.
func (e *Executor) resolveSession(req *batchRequest) (sess *session, id uint64, named []wire.Ref, err error) {
	root, ids := req.Root, req.Roots
	if len(req.Names) != 0 {
		// Names resolve through this peer's own registry, as in serveGetBatch,
		// outside e.mu: the registry has its own lock. The decoder made Names
		// parallel to Root+Roots (checkRootNames).
		obj, _ := e.peer.LocalObject(rmi.RegistryObjID)
		reg, _ := obj.(resolver)
		named = make([]wire.Ref, len(req.Names))
		all := append([]uint64{req.Root}, req.Roots...)
		for i, name := range req.Names {
			if name == "" {
				continue
			}
			if named[i], err = e.resolveLocal(reg, name); err != nil {
				return nil, 0, nil, err
			}
			all[i] = named[i].ObjID
			// The reply leaves the endpoint out: it is the one the client
			// dialed, and the client puts it back.
			named[i].Endpoint = ""
		}
		root, ids = all[0], all[1:]
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Extra roots are re-resolved on every flush: a chained batch may add
	// roots between flushes, and ids are stable while exported.
	extras := make([]any, len(ids))
	for i, id := range ids {
		obj, ok := e.peer.LocalObject(id)
		if !ok {
			return nil, 0, nil, e.missingRoot(id)
		}
		extras[i] = obj
	}
	if req.Session != 0 {
		sess, ok := e.sessions[req.Session]
		if !ok {
			return nil, 0, nil, &SessionExpiredError{Session: req.Session}
		}
		sess.extras = extras
		return sess, req.Session, named, nil
	}
	rootObj, ok := e.peer.LocalObject(root)
	if !ok {
		return nil, 0, nil, e.missingRoot(root)
	}
	policy := req.Policy
	if policy == nil {
		policy = AbortPolicy()
	}
	e.nextID++
	sess = &session{
		root:     rootObj,
		extras:   extras,
		policy:   policy,
		nextBase: serverSeqBase,
		expires:  time.Now().Add(e.ttl),
	}
	return sess, e.nextID, named, nil
}

// missingRoot classifies a batch root absent from the export table: an
// object migrated to a new home by the cluster rebalancer fails with the
// typed wrong-home error (so an epoch-aware client re-routes and retries),
// anything else with NoSuchObjectError.
func (e *Executor) missingRoot(id uint64) error {
	if wh, ok := e.peer.ForwardedObject(id); ok {
		return wh
	}
	return &rmi.NoSuchObjectError{ObjID: id}
}

// execState threads the abort/restart condition through one run.
type execState struct {
	aborted  error // non-nil: skip everything after the break point
	restart  bool
	trackOcc bool           // policy has rules; occurrence indices matter
	occIndex map[string]int // per-method occurrence counter for policy rules
	argBuf   []any          // scratch argument slice, reused across calls
	outBuf   []any          // scratch result slice, reused across calls

	// vals is the wave's value table, parallel to calls: what each value call
	// returned, kept where a later call of the same request takes it as an
	// argument. It lives and dies with this run — a Restart re-run starts
	// empty, a chained session never sees it — and is nil when no call of the
	// request references a value, which costs the request one scan.
	calls     []invocationData
	vals      []valueSlot
	spliceBuf []byte // scratch encoding of the value being spliced
}

// valueSlot is one call's entry in the wave's value table.
type valueSlot struct {
	want bool // some call of the request takes this call's value
	set  bool // the call executed and returned val
	val  any  // the result in wire form, as the reply carries it
}

// callIndex finds the call numbered seq among a request's calls. A recorded
// request numbers its calls consecutively; in one that does not, a value
// reference simply resolves to nothing.
func callIndex(calls []invocationData, seq int64) (int, bool) {
	if len(calls) == 0 {
		return 0, false
	}
	i := seq - calls[0].Seq
	if i < 0 || i >= int64(len(calls)) || calls[i].Seq != seq {
		return 0, false
	}
	return int(i), true
}

// valueTable marks the value calls of a request that another of its calls
// takes as an argument: one slot per call, allocated only when there is one
// to mark. A cursor run's calls return a value per element and are never
// marked.
func valueTable(calls []invocationData) []valueSlot {
	var vals []valueSlot
	for i := range calls {
		for _, a := range calls[i].Args {
			if !a.IsRef {
				continue
			}
			j, ok := callIndex(calls, a.Seq)
			if !ok || calls[j].Kind != kindValue || calls[j].owner() != NoCursor {
				continue
			}
			if vals == nil {
				vals = make([]valueSlot, len(calls))
			}
			vals[j].want = true
		}
	}
	return vals
}

// keepValue files a value call's result in the wave's table if a call of the
// request wants it.
func (st *execState) keepValue(seq int64, w any) {
	if st.vals == nil {
		return
	}
	if i, ok := callIndex(st.calls, seq); ok && st.vals[i].want {
		st.vals[i].set, st.vals[i].val = true, w
	}
}

// splice returns what a consumer receives for a value the wave produced: the
// value as it would have arrived had it gone to the client and come back as a
// literal — one codec round trip, so every consumer gets a copy of its own,
// in decoded wire form, whichever path carried it.
func (st *execState) splice(w any) (any, error) {
	buf, err := wire.MarshalAppend(st.spliceBuf[:0], w)
	if err != nil {
		return nil, err
	}
	st.spliceBuf = buf
	return wire.Unmarshal(buf)
}

// argSlice returns a scratch slice of length n. The callee must not retain
// it (InvokeLocal converts the elements and drops the slice).
func (st *execState) argSlice(n int) []any {
	if cap(st.argBuf) < n {
		st.argBuf = make([]any, n)
	}
	return st.argBuf[:n]
}

// runBatch replays calls once. It returns the per-call results and whether
// an ActionRestart demands re-execution.
func (e *Executor) runBatch(ctx context.Context, sess *session, calls []invocationData) ([]callResult, bool) {
	st := &execState{trackOcc: len(sess.policy.Rules) > 0, calls: calls, vals: valueTable(calls)}
	results := make([]callResult, len(calls))

	for i := 0; i < len(calls); i++ {
		call := &calls[i]
		if call.Kind == kindCursor {
			// Consume the cursor call and its contiguous owned sub-batch.
			j := i + 1
			for j < len(calls) && calls[j].owner() == call.Seq {
				j++
			}
			e.runCursor(ctx, sess, st, call, calls[i+1:j], results[i:j])
			if st.restart {
				return results, true
			}
			i = j - 1
			continue
		}
		if call.owner() != NoCursor {
			// Owned call without its cursor preceding it: recording bug.
			results[i] = callResult{Seq: call.Seq, Err: fmt.Errorf("brmi: orphan cursor call %s", call.Method)}
			continue
		}
		results[i] = e.runCall(ctx, sess, st, call, nil, st.nextOcc(call.Method))
		if st.restart {
			return results, true
		}
	}
	return results, false
}

// nextOcc returns the occurrence index of method (0-based count of its
// appearances so far), used by custom policy rules. Policies without rules
// never consult the index, so counting is skipped entirely for them.
func (st *execState) nextOcc(method string) int {
	if !st.trackOcc {
		return 0
	}
	if st.occIndex == nil {
		st.occIndex = make(map[string]int, 8)
	}
	occ := st.occIndex[method]
	st.occIndex[method] = occ + 1
	return occ
}

// runCall executes one non-cursor invocation. overlay, when non-nil, holds
// the per-element bindings of an in-progress cursor iteration. occ is the
// call's recording-order occurrence index for policy rule matching.
func (e *Executor) runCall(ctx context.Context, sess *session, st *execState, call *invocationData, overlay map[int64]any, occ int) callResult {
	res := callResult{Seq: call.Seq}

	if st.aborted != nil {
		res.Skipped = true
		res.Err = st.aborted
		e.markFailure(sess, overlay, call.Seq, st.aborted)
		return res
	}

	target, depErr := e.resolve(sess, overlay, call.Target)
	if depErr != nil {
		res.Skipped = true
		res.Err = depErr
		e.markFailure(sess, overlay, call.Seq, depErr)
		return res
	}

	args := st.argSlice(len(call.Args))
	for i, a := range call.Args {
		if !a.IsRef {
			args[i] = a.Val
			continue
		}
		v, depErr := e.resolveArg(sess, st, overlay, a.Seq)
		if depErr != nil {
			res.Skipped = true
			res.Err = depErr
			e.markFailure(sess, overlay, call.Seq, depErr)
			return res
		}
		args[i] = v
	}

	// Executed means "reached method execution": dependency-skipped and
	// abort-skipped calls are excluded, matching the client-side acked
	// count (the chaos harness cross-checks the two). Shadow replays are
	// excluded too — their calls were counted at the primary.
	if !sess.shadow {
		e.executed.Inc()
	}
	out, err := e.execWithPolicy(ctx, sess, st, target, call.Method, args, occ, &res)
	if err != nil {
		res.Err = err
		e.markFailure(sess, overlay, call.Seq, err)
		return res
	}
	if st.restart {
		return res
	}

	switch call.Kind {
	case kindRemote:
		v := single(out)
		if v == nil {
			err := fmt.Errorf("brmi: %s returned nil remote object", call.Method)
			res.Err = err
			e.markFailure(sess, overlay, call.Seq, err)
			return res
		}
		if _, ok := v.(rmi.Remote); !ok {
			err := &KindMismatchError{Method: call.Method, Want: "Call (result is not a remote object)"}
			res.Err = err
			e.markFailure(sess, overlay, call.Seq, err)
			return res
		}
		if call.Export && overlay == nil {
			// Pin the result as an exported reference: marshalling a remote
			// object yields its Ref, auto-exporting it under a marshal-grace
			// DGC lease if it was not exported already. Runs BEFORE bind so
			// a failed export leaves the call failed, not resolvable — a
			// dependent call must never execute against a producer the
			// client sees as failed.
			w, werr := e.peer.ToWire(v)
			if werr != nil {
				res.Err = fmt.Errorf("brmi: export result of %s: %w", call.Method, werr)
				e.markFailure(sess, overlay, call.Seq, res.Err)
				return res
			}
			ref, ok := w.(wire.Ref)
			if !ok {
				res.Err = fmt.Errorf("brmi: result of %s did not marshal to a reference", call.Method)
				e.markFailure(sess, overlay, call.Seq, res.Err)
				return res
			}
			res.Ref = ref
		}
		e.bind(sess, overlay, call.Seq, v)
	default: // kindValue
		v := single(out)
		if _, ok := v.(rmi.Remote); ok {
			err := &KindMismatchError{Method: call.Method, Want: "CallBatch"}
			res.Err = err
			e.markFailure(sess, overlay, call.Seq, err)
			return res
		}
		w, werr := e.peer.ToWire(v)
		if werr != nil {
			res.Err = fmt.Errorf("brmi: marshal result of %s: %w", call.Method, werr)
			e.markFailure(sess, overlay, call.Seq, res.Err)
			return res
		}
		res.Value = w
		if overlay == nil {
			st.keepValue(call.Seq, w)
		}
	}
	return res
}

// execWithPolicy runs the method, applying the session's exception policy:
// Repeat retries in place, Break aborts the batch, Restart re-runs it,
// Continue records the error (paper §3.3).
func (e *Executor) execWithPolicy(ctx context.Context, sess *session, st *execState, target any, method string, args []any, occ int, res *callResult) ([]any, error) {
	var lastErr error
	maxAttempts := sess.policy.maxAttempts()
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			res.Attempts = int64(attempt)
		}
		// The scratch result buffer lives until the caller finishes with
		// this call's results; the next call's execution reuses it.
		out, err := e.peer.InvokeLocalAppend(ctx, target, method, args, st.outBuf)
		if err == nil {
			st.outBuf = out
			return out, nil
		}
		lastErr = err
		switch sess.policy.actionFor(err, method, occ) {
		case ActionRepeat:
			if attempt < maxAttempts {
				continue
			}
			return nil, lastErr // retries exhausted; record and move on
		case ActionRestart:
			st.restart = true
			return nil, lastErr
		case ActionContinue:
			return nil, lastErr
		default: // ActionBreak
			st.aborted = lastErr
			return nil, lastErr
		}
	}
}

// runCursor executes a cursor-creating call and its owned sub-batch once
// per element of the returned slice (§3.4, §4.2: "cursors are implemented
// by executing a sub-batch of methods for each item in the array").
func (e *Executor) runCursor(ctx context.Context, sess *session, st *execState, call *invocationData, owned []invocationData, results []callResult) {
	res := &results[0]
	res.Seq = call.Seq
	for k := range owned {
		results[1+k].Seq = owned[k].Seq
	}
	occ := st.nextOcc(call.Method)
	ownedOcc := make([]int, len(owned))
	for k := range owned {
		ownedOcc[k] = st.nextOcc(owned[k].Method)
	}

	fail := func(err error, skipped bool) {
		res.Err = err
		res.Skipped = skipped
		sess.bindFailure(call.Seq, err)
		for k := range owned {
			results[1+k].Err = err
			results[1+k].Skipped = true
			sess.bindFailure(owned[k].Seq, err)
		}
	}

	if st.aborted != nil {
		fail(st.aborted, true)
		return
	}
	target, depErr := e.resolve(sess, nil, call.Target)
	if depErr != nil {
		fail(depErr, true)
		return
	}
	args := make([]any, len(call.Args))
	for i, a := range call.Args {
		if !a.IsRef {
			args[i] = a.Val
			continue
		}
		v, depErr := e.resolveArg(sess, st, nil, a.Seq)
		if depErr != nil {
			fail(depErr, true)
			return
		}
		args[i] = v
	}

	if !sess.shadow {
		e.executed.Inc()
	}
	out, err := e.execWithPolicy(ctx, sess, st, target, call.Method, args, occ, res)
	if st.restart {
		return
	}
	if err != nil {
		fail(err, false)
		return
	}

	elems, err := sliceElements(single(out))
	if err != nil {
		err = &KindMismatchError{Method: call.Method, Want: "Call (result is not a slice)"}
		fail(err, false)
		return
	}

	n := len(elems)
	res.Count = int64(n)
	res.Base = sess.alloc(n)
	for i, el := range elems {
		sess.bindObject(res.Base+int64(i), el)
	}

	// Allocate per-element blocks for owned calls.
	for k := range owned {
		r := &results[1+k]
		r.Count = int64(n)
		switch owned[k].Kind {
		case kindValue:
			r.Block = make([]any, n)
			r.BlockErrs = make([]any, n)
		case kindRemote:
			r.Base = sess.alloc(n)
			r.BlockErrs = make([]any, n)
		case kindCursor:
			r.Err = ErrNestedCursor
		}
	}

	// Execute the sub-batch once per element ("all of the cursor operations
	// are performed at the point when the cursor value is created", §4.2).
	for i := 0; i < n; i++ {
		overlay := map[int64]any{call.Seq: elems[i]}
		for k := range owned {
			oc := &owned[k]
			r := &results[1+k]
			if oc.Kind == kindCursor {
				continue
			}
			elemRes := e.runCall(ctx, sess, st, oc, overlay, ownedOcc[k])
			if st.restart {
				return
			}
			switch oc.Kind {
			case kindValue:
				r.Block[i] = elemRes.Value
				if elemRes.Err != nil {
					r.BlockErrs[i] = elemRes.Err
				}
			case kindRemote:
				if elemRes.Err != nil {
					r.BlockErrs[i] = elemRes.Err
					// Chained batches address per-element results at
					// Base+i; record the failure there for propagation.
					sess.bindFailure(r.Base+int64(i), elemRes.Err)
				} else if v, ok := overlay[oc.Seq]; ok {
					sess.bindObject(r.Base+int64(i), v)
				}
			}
		}
		if st.aborted != nil {
			// Mark the untouched tail of every block with the abort error.
			for k := range owned {
				r := &results[1+k]
				if r.BlockErrs == nil {
					continue
				}
				for j := i + 1; j < n; j++ {
					r.BlockErrs[j] = st.aborted
				}
			}
			return
		}
	}
}

// resolve maps a sequence number to its live object, consulting the
// per-element overlay first, then the session. A sequence whose creating
// call failed yields that call's error, implementing dependency-aware
// exception propagation ("the get method of a future rethrows any exception
// on which the future's value depends", §3.3).
func (e *Executor) resolve(sess *session, overlay map[int64]any, seq int64) (any, error) {
	if seq == RootTarget {
		return sess.root, nil
	}
	if seq < RootTarget {
		// Bounds-check in int64: a far-out-of-range Target must not
		// truncate into a valid index on 32-bit platforms.
		if i := RootTarget - seq - 1; i < int64(len(sess.extras)) {
			return sess.extras[i], nil
		}
		return nil, &UnresolvedRefError{Seq: seq}
	}
	if overlay != nil {
		if v, ok := overlay[seq]; ok {
			return v, nil
		}
		if err, ok := overlay[^seq].(error); ok { // per-element failure marker
			return nil, err
		}
	}
	if v, ok := sess.objects[seq]; ok {
		return v, nil
	}
	if err, ok := sess.failures[seq]; ok {
		return nil, err
	}
	return nil, &UnresolvedRefError{Seq: seq}
}

// resolveArg is resolve for an argument, which may also name a value call of
// the same request: the wave's table answers for one that has executed, with
// a copy of what it returned. One that failed or was skipped left its error
// where resolve finds it, like a failed remote result; anything else — a call
// later in the request, the call itself, a value of an earlier flush of the
// chain, a cursor run's call — is unresolved.
func (e *Executor) resolveArg(sess *session, st *execState, overlay map[int64]any, seq int64) (any, error) {
	if st.vals != nil {
		if i, ok := callIndex(st.calls, seq); ok && st.vals[i].set {
			e.splices.Inc()
			return st.splice(st.vals[i].val)
		}
	}
	return e.resolve(sess, overlay, seq)
}

// bind stores a call's remote result under its sequence number: in the
// overlay during a cursor iteration, else in the session.
func (e *Executor) bind(sess *session, overlay map[int64]any, seq int64, v any) {
	if overlay != nil {
		overlay[seq] = v
		return
	}
	sess.bindObject(seq, v)
}

// markFailure records a call's failure for dependency propagation.
func (e *Executor) markFailure(sess *session, overlay map[int64]any, seq int64, err error) {
	if overlay != nil {
		overlay[^seq] = err
		return
	}
	sess.bindFailure(seq, err)
}

// alloc reserves n consecutive server-assigned ids.
func (s *session) alloc(n int) int64 {
	base := s.nextBase
	s.nextBase += int64(n)
	if n == 0 {
		s.nextBase++
	}
	return base
}

// single collapses a method's results to one value, as remote methods have
// at most one non-error result in the paper's model; multi-result Go
// methods yield a slice. The multi-result slice is copied: the input may be
// the executor's reusable scratch buffer.
func single(out []any) any {
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		cp := make([]any, len(out))
		copy(cp, out)
		return cp
	}
}

// sliceElements returns the elements of any slice value.
func sliceElements(v any) ([]any, error) {
	if v == nil {
		return nil, fmt.Errorf("nil slice")
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Slice && rv.Kind() != reflect.Array {
		return nil, fmt.Errorf("%T is not a slice", v)
	}
	out := make([]any, rv.Len())
	for i := range out {
		out[i] = rv.Index(i).Interface()
	}
	return out, nil
}
