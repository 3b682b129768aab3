package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rcache"
)

// --- program -----------------------------------------------------------------

// callSpec is one recorded call of a flush op: Apply(Token, dep) on the
// counter bound to Name. Dep < 0 records a dependency-free call; otherwise
// the call passes the future of the flush's Dep-th call as its dataflow
// edge (a value splice — cross-server when the names' homes differ, which
// is what makes the flush a staged pipeline).
type callSpec struct {
	Name  string
	Token int64
	Dep   int
}

type opKind int

const (
	opFlush opKind = iota
	// opStaleFlush records its calls, runs a synchronous membership change,
	// THEN flushes — the recorded roots are stale by construction, forcing
	// the wrong-home retry path (the scenario PR 3 covered with bespoke
	// setup; here it is one draw of the op vocabulary).
	opStaleFlush
	opAddServer
	opRemoveServer
	opLookup
	// opCachedRead flushes one CallRO("Get") on a name through the shared
	// lease cache: sometimes a wire fetch that mints a lease, sometimes a
	// zero-round-trip cache hit. The cached-read invariant checks that no
	// hit ever serves a value older than its lease epoch allows.
	opCachedRead
	// opGetBatch issues one streaming cluster.GetBatch over a seeded name
	// subset, racing the chunked streams against whatever kills, partitions,
	// and rebalances the schedule lands on the destinations. The
	// stream-prefix invariant checks the delivery: a strictly-ordered prefix
	// of the request, no gaps, no duplicates — per-name failures count as
	// delivered entries, a dead destination may only truncate, never reorder.
	opGetBatch
)

// op is one workload step.
type op struct {
	Kind     opKind
	Calls    []callSpec // opFlush / opStaleFlush
	Endpoint string     // opAddServer / opRemoveServer, and opStaleFlush's change
	Add      bool       // opStaleFlush: direction of the change
	Async    bool       // rebalances: run concurrently with subsequent steps
	Name     string     // opLookup / opCachedRead
	Names    []string   // opGetBatch: the request, in order (repeats legal)
}

func (o op) trace() string {
	switch o.Kind {
	case opFlush, opStaleFlush:
		kind := "flush"
		if o.Kind == opStaleFlush {
			dir := "remove"
			if o.Add {
				dir = "add"
			}
			kind = fmt.Sprintf("staleflush(%s %s)", dir, o.Endpoint)
		}
		calls := ""
		for i, c := range o.Calls {
			if i > 0 {
				calls += " "
			}
			calls += fmt.Sprintf("%s@%d", c.Name, c.Token)
			if c.Dep >= 0 {
				calls += fmt.Sprintf("<-%d", c.Dep)
			}
		}
		return fmt.Sprintf("%s [%s]", kind, calls)
	case opAddServer:
		return fmt.Sprintf("add %s async=%v", o.Endpoint, o.Async)
	case opRemoveServer:
		return fmt.Sprintf("remove %s async=%v", o.Endpoint, o.Async)
	case opLookup:
		return fmt.Sprintf("lookup %s", o.Name)
	case opCachedRead:
		return fmt.Sprintf("cachedread %s", o.Name)
	case opGetBatch:
		return fmt.Sprintf("getbatch [%s]", strings.Join(o.Names, " "))
	}
	return "unknown"
}

// program is the seeded workload: bound names plus the op sequence.
type program struct {
	names []string
	ops   []op
}

func (p *program) trace() []string {
	out := make([]string, 0, len(p.ops)+1)
	out = append(out, fmt.Sprintf("names=%d ops=%d", len(p.names), len(p.ops)))
	for i, o := range p.ops {
		out = append(out, fmt.Sprintf("op=%d %s", i+1, o.trace()))
	}
	return out
}

// genProgram derives the workload from the seed. Within one flush, calls on
// the same name always chain (each deps on the name's previous call). A chain
// on one name costs no wave — the home splices the value inside the wave —
// but it is what keeps a name's record order equal to its stage order when a
// cross-name edge defers one of its calls to a later wave: the calls behind
// it wait too, so per-root program order is a checkable invariant even for
// staged flushes. Cross-name deps are free and create the multi-wave
// pipelines, when the two names live on different servers.
func genProgram(cfg Config) *program {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x60a7f10c2))
	p := &program{}
	for i := 0; i < cfg.Names; i++ {
		p.names = append(p.names, fmt.Sprintf("obj-%d", i))
	}
	members := map[string]bool{}
	for _, ep := range cfg.endpoints() {
		members[ep] = true
	}
	nonMembers := append([]string(nil), cfg.spareEndpoints()...)
	nextToken := int64(1_000_000)

	genCalls := func() []callSpec {
		k := 1 + rng.Intn(6)
		calls := make([]callSpec, 0, k)
		lastByName := map[string]int{}
		for i := 0; i < k; i++ {
			name := p.names[rng.Intn(len(p.names))]
			dep := -1
			if prev, ok := lastByName[name]; ok {
				dep = prev // same-name calls always chain
			} else if len(calls) > 0 && rng.Float64() < 0.45 {
				dep = rng.Intn(len(calls)) // cross-name pipeline edge
			}
			calls = append(calls, callSpec{Name: name, Token: nextToken, Dep: dep})
			lastByName[name] = i
			nextToken++
		}
		return calls
	}
	// membershipChange mutates the generator's model and returns the op
	// fields; returns ok=false when no legal change exists.
	membershipChange := func() (endpoint string, add, ok bool) {
		if len(nonMembers) > 0 && (len(members) <= 2 || rng.Float64() < 0.55) {
			i := rng.Intn(len(nonMembers))
			ep := nonMembers[i]
			nonMembers = append(nonMembers[:i], nonMembers[i+1:]...)
			members[ep] = true
			return ep, true, true
		}
		if len(members) > 2 {
			eps := make([]string, 0, len(members))
			for ep := range members {
				eps = append(eps, ep)
			}
			// Deterministic order before drawing: map iteration is not.
			sort.Strings(eps)
			ep := eps[rng.Intn(len(eps))]
			delete(members, ep)
			nonMembers = append(nonMembers, ep)
			return ep, false, true
		}
		return "", false, false
	}

	// genBatchNames draws one getbatch request: a few names in seeded
	// order, repeats legal (reading the same object twice in one batch is
	// a valid request the assembler must still deliver positionally).
	genBatchNames := func() []string {
		k := 2 + rng.Intn(len(p.names))
		out := make([]string, k)
		for i := range out {
			out[i] = p.names[rng.Intn(len(p.names))]
		}
		return out
	}

	for step := 0; step < cfg.Steps; step++ {
		switch q := rng.Float64(); {
		case q < 0.48:
			p.ops = append(p.ops, op{Kind: opFlush, Calls: genCalls()})
		case q < 0.58:
			if ep, add, ok := membershipChange(); ok {
				p.ops = append(p.ops, op{Kind: opStaleFlush, Calls: genCalls(), Endpoint: ep, Add: add})
			} else {
				p.ops = append(p.ops, op{Kind: opFlush, Calls: genCalls()})
			}
		case q < 0.74:
			if ep, add, ok := membershipChange(); ok {
				kind := opRemoveServer
				if add {
					kind = opAddServer
				}
				p.ops = append(p.ops, op{Kind: kind, Endpoint: ep, Async: rng.Float64() < 0.5})
			} else {
				p.ops = append(p.ops, op{Kind: opFlush, Calls: genCalls()})
			}
		case q < 0.84:
			p.ops = append(p.ops, op{Kind: opLookup, Name: p.names[rng.Intn(len(p.names))]})
		case q < 0.92:
			p.ops = append(p.ops, op{Kind: opCachedRead, Name: p.names[rng.Intn(len(p.names))]})
		default:
			p.ops = append(p.ops, op{Kind: opGetBatch, Names: genBatchNames()})
		}
	}
	return p
}

// --- runner ------------------------------------------------------------------

// flushRecord is the ledger entry of one executed flush op.
type flushRecord struct {
	op       int
	calls    []callSpec
	outcomes []error // per call, from its future
	// endpoints is, per call, the destination the call was bound for once the
	// flush ended — after any stale-route retry re-homed its root.
	endpoints []string
	flushErr  error // includes every name the homes could not resolve
	waves     int
	// staleRetried records Batch.StaleRetried(): the flush spent its single
	// wrong-home retry. The counter-consistency invariant tallies these
	// against the client's cluster.wrong_home_retries counter.
	staleRetried bool
	// migrationConcurrent marks flushes that overlapped a membership
	// change. DESIGN.md's in-flight window allows a stale-ring write
	// applied to the old copy to be superseded by the move, so the
	// "success implies effect present" check is waived for them; order and
	// at-most-once are not.
	migrationConcurrent bool
}

// readRecord is the ledger entry of one cached-read op: a CallRO("Get")
// flushed through the run's shared lease cache.
type readRecord struct {
	op   int
	name string
	val  int64
	err  error
	// exempt marks reads that overlapped a rebalance or an open migration
	// window: the counter state itself may regress across a superseded
	// write there, so freshness and monotonicity are waived (the cache is
	// not the thing being imprecise).
	exempt bool
	// required is the sum of tokens durably applied to name before the read
	// was issued. Every durable write ended the name's leases at its ack,
	// before its flush returned, so whatever lease serves this read was
	// minted after them — the value must include them all.
	required int64
}

// streamRecord is the ledger entry of one getbatch op: the request and the
// e.Index sequence exactly as the stream delivered it. The stream-prefix
// invariant re-reads this sequence; per-name failures are entries too, so a
// faulted run's record still carries every delivered position.
type streamRecord struct {
	op      int
	names   []string
	indices []int
	err     error // terminal Next error other than io.EOF (or a setup failure)
}

// runner executes one program under one schedule.
type runner struct {
	tb    testing.TB
	cfg   Config
	prog  *program
	sched *Schedule

	tc    *clustertest.Cluster
	dir   *cluster.Directory
	reb   *cluster.Rebalancer
	cache *rcache.Cache

	flushes []*flushRecord
	reads   []*readRecord
	streams []*streamRecord
	issued  map[string][]int64 // per name, tokens in issue order
	// durable is, per name, the running sum of tokens applied by flushes
	// whose success is unconditional (clean flush, clean outcome, no
	// concurrent migration) — the floor every later cached read must see.
	durable map[string]int64
	// modelStaleRetries counts every cluster batch that spent its
	// wrong-home retry — workload flushes and the invariant checker's own
	// final flush alike. All cluster batches run on the main goroutine, so
	// a plain int suffices.
	modelStaleRetries int

	rebMu      sync.Mutex
	rebPending chan error // one async rebalance at a time
	rebCount   int
	rebFailed  int
	midWG      sync.WaitGroup // mid-step fault injections in flight

	// State-loss kill tracking (EvKill). killed holds every endpoint killed
	// and not yet restarted; needFailover the killed members whose
	// FailoverServer has not yet succeeded (attempted at each boundary,
	// required to succeed by quiesce). lostExecuted accumulates the
	// core.calls_executed tally of killed servers at kill time: their
	// registries leave tc.Servers with them, and the counter-consistency
	// ledger must still account for the work they did.
	killMu       sync.Mutex
	killed       map[string]bool
	needFailover map[string]bool
	killCount    int
	failovers    int
	lostExecuted int64

	// The in-flight migration window (DESIGN.md): open while a partially
	// failed rebalance may have left names live at two homes. A failed
	// AddServer opens it cluster-wide (its leftovers sit mis-homed on any
	// member); a failed RemoveServer opens it for the victim endpoint (its
	// leftovers sit on the possibly-out-of-ring victim). A successful
	// AddServer rescans every member and migrates everything mis-homed, so
	// it closes the cluster-wide window and the window of the endpoint it
	// (re)joined; a successful RemoveServer drains exactly its victim.
	windowAll       bool
	windowEndpoints map[string]bool

	epochs []uint64 // dir epoch samples, one per op

	violations []string
}

// violate records an invariant violation.
func (r *runner) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// runSim executes the full simulation for (cfg, prog, sched) on a fresh
// deployment and returns its result.
func runSim(tb testing.TB, cfg Config, prog *program, sched *Schedule) *Result {
	net, clk := newNetwork(cfg)
	defer clk.Stop()
	defer net.Close()
	tc := clustertest.New(tb, 0, clustertest.WithNetwork(net))
	defer tc.Close()
	for _, ep := range cfg.allEndpoints() {
		tc.StartServer(ep)
	}
	dir := cluster.NewDirectory(tc.Client, cfg.endpoints(), cluster.WithReplication(cfg.Replication))
	r := &runner{
		tb: tb, cfg: cfg, prog: prog, sched: sched,
		tc: tc, dir: dir, reb: cluster.NewRebalancer(dir),
		cache:        cluster.NewCache(tc.Client, dir, rcache.WithTTL(5*time.Minute)),
		issued:       make(map[string][]int64),
		durable:      make(map[string]int64),
		killed:       make(map[string]bool),
		needFailover: make(map[string]bool),
	}
	ctx := context.Background()
	for _, name := range prog.names {
		tc.BindCounter(dir, name, 0)
	}
	if cfg.Replication > 1 {
		// Seed every bound name's followers before the first op (replica
		// placement piggybacks on the idempotent rebalance flow): acked
		// flushes must be recoverable from the very first kill. The network
		// is still fault-free here, so a failure is a harness defect.
		if _, err := r.reb.AddServer(ctx, cfg.endpoints()[0]); err != nil {
			r.violate("bootstrap replica placement failed on a healthy network: %v", err)
		}
	}

	for i, o := range prog.ops {
		step := i + 1
		r.scheduleBoundary(step)
		r.mid(step) // arm mid-step injections before starting the op
		r.exec(ctx, o, i)
		r.epochs = append(r.epochs, dir.Epoch())
	}
	r.quiesce(ctx)
	r.checkInvariants(ctx)

	res := &Result{
		Seed:             cfg.Seed,
		ScheduleTrace:    sched.trace(),
		Violations:       r.violations,
		Rebalances:       r.rebCount,
		FailedRebalances: r.rebFailed,
		FaultEvents:      len(sched.Events),
		CachedReads:      len(r.reads),
		CacheHits:        int(tc.ClientStats.Snapshot().Counter("cache.hits")),
		Kills:            r.killCount,
		Failovers:        r.failovers,
		Streams:          len(r.streams),
	}
	for _, sr := range r.streams {
		res.StreamEntries += len(sr.indices)
	}
	for _, f := range r.flushes {
		res.Flushes++
		if f.flushErr != nil {
			res.FailedFlushes++
		}
		if f.flushErr == nil && f.staleRetried {
			res.StaleRetries++
		}
	}
	return res
}

// scheduleBoundary installs the fault state due at a step boundary: the
// set of durable events active at this step is computed from scratch and
// swapped in atomically (netsim.SetFaultSet), then this step's one-shot
// kills fire. Recomputing makes expiry correct when events overlap on one
// link — an incremental expire of the earlier event would heal the later
// one early — and the atomic swap means a window spanning several steps
// never transiently lifts at a boundary while an async rebalance is still
// sending; overlapping EvLink events on one pair resolve to the later one
// (schedule order), deterministically. The previous step's mid-op
// injections are joined first: ops can finish faster than their seeded
// injection delay, and a boundary racing its own step's fault would break
// the generator's one-crash-at-a-time guarantee. Mid events join the
// installed set at the NEXT boundary (their onset mid-op is applied
// incrementally by mid()).
func (r *runner) scheduleBoundary(step int) {
	r.midWG.Wait()
	// A killed member is failed over at the first boundary after its death:
	// the runner plays the operator (or failure detector) that production
	// would have. Attempts under active faults may fail and are retried at
	// every later boundary; quiesce requires the final attempt to succeed.
	r.attemptFailovers()
	var fs netsim.FaultSet
	for _, e := range r.sched.Events {
		if e.Kind == EvKillConns || e.Kind == EvKill || !(e.Step < step || (e.Step == step && !e.Mid)) || step >= e.Until {
			continue
		}
		switch e.Kind {
		case EvPartition:
			fs.Partitions = append(fs.Partitions, [2]string{e.A, e.B})
		case EvCrash:
			fs.Down = append(fs.Down, e.A)
		case EvLink:
			if fs.Links == nil {
				fs.Links = make(map[[2]string]netsim.LinkFaults)
			}
			fs.Links[[2]string{e.A, e.B}] = netsim.LinkFaults{ExtraLatency: e.Extra, Jitter: e.Jitter, DropPerWrite: e.Drop}
		}
	}
	r.tc.Network.SetFaultSet(fs)
	for _, e := range r.sched.Events {
		if (e.Kind == EvKillConns || e.Kind == EvKill) && e.Step == step && !e.Mid {
			r.fire(e)
		}
	}
}

// fire executes one event's onset now, on whichever goroutine calls it:
// kills go through the runner (they tear down a server), everything else
// through the network.
func (r *runner) fire(e Event) {
	if e.Kind == EvKill {
		r.kill(e.A)
		return
	}
	e.apply(r.tc.Network)
}

// kill executes a state-loss kill: the server's process is torn down with
// no handoff (clustertest.CrashServer), its executed-calls tally is saved
// for the counter ledger, and a failover is owed — even when the endpoint
// is no longer (or not yet again) a ring member: a RemoveServer that failed
// mid-migration can strand state on an already-broadcast-out endpoint, and
// FailoverServer's non-member path recovers it from the survivors' replicas
// (and converges trivially when there is nothing to recover). Idempotent
// for an endpoint already dead.
func (r *runner) kill(endpoint string) {
	r.killMu.Lock()
	defer r.killMu.Unlock()
	s := r.tc.Server(endpoint)
	if s == nil {
		return // already dead (or never restarted); nothing left to kill
	}
	if ring := r.dir.Ring(); ring.Contains(endpoint) && ring.Size() == 1 {
		// The workload shrank the membership to this one server: there are
		// no replicas left to fail over to, so a state-loss kill here is
		// outside the durability model (invariant 8 presumes R>1 survivors).
		return
	}
	r.tc.CrashServer(endpoint)
	// Snapshot AFTER the teardown: connections are dead, so nothing acked
	// from here on can have executed there uncounted (a post-close execute
	// that sneaks into the tally only overstates executed, which the
	// acked ≤ executed check tolerates by design).
	r.lostExecuted += s.Stats.Snapshot().Counter("core.calls_executed")
	r.killed[endpoint] = true
	r.needFailover[endpoint] = true
	r.killCount++
}

// attemptFailovers runs FailoverServer for every killed member still owed
// one. Main goroutine only (boundaries and quiesce, after midWG joined), so
// no failover ever races a mid-op kill.
func (r *runner) attemptFailovers() {
	r.killMu.Lock()
	pending := make([]string, 0, len(r.needFailover))
	for ep := range r.needFailover {
		pending = append(pending, ep)
	}
	r.killMu.Unlock()
	sort.Strings(pending)
	for _, ep := range pending {
		fctx, cancel := context.WithTimeout(context.Background(), r.cfg.FlushTimeout)
		_, err := r.reb.FailoverServer(fctx, ep)
		cancel()
		if err == nil {
			r.killMu.Lock()
			delete(r.needFailover, ep)
			r.failovers++
			r.killMu.Unlock()
		}
	}
}

// mid arms this step's mid-op injections: each fires from its own goroutine
// after its seeded delay, racing the fault against in-flight work. Both
// quiesce and the next boundary wait for them, so no injection outlives
// its scheduled window.
func (r *runner) mid(step int) {
	for _, e := range r.sched.Events {
		if e.Step == step && e.Mid {
			ev := e
			r.midWG.Add(1)
			go func() {
				defer r.midWG.Done()
				time.Sleep(ev.MidDelay)
				r.fire(ev)
			}()
		}
	}
}

// exec runs one workload op.
func (r *runner) exec(ctx context.Context, o op, idx int) {
	switch o.Kind {
	case opFlush:
		r.flush(ctx, o, idx, nil)
	case opStaleFlush:
		r.flush(ctx, o, idx, func() {
			r.joinRebalance()
			r.rebalance(ctx, o.Endpoint, o.Add)
		})
	case opAddServer, opRemoveServer:
		r.joinRebalance()
		if o.Async {
			ch := make(chan error, 1)
			r.rebMu.Lock()
			r.rebPending = ch
			r.rebMu.Unlock()
			go func() { ch <- r.rebalanceErr(ctx, o.Endpoint, o.Kind == opAddServer) }()
		} else {
			r.rebalance(ctx, o.Endpoint, o.Kind == opAddServer)
		}
	case opLookup:
		lctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
		_, _ = r.dir.Lookup(lctx, o.Name) // failures under faults are legal; epoch samples catch regressions
		cancel()
	case opCachedRead:
		r.cachedRead(ctx, o, idx)
	case opGetBatch:
		r.getBatch(ctx, o, idx)
	}
}

// getBatch issues one streaming bulk read over o.Names and ledgers the
// delivery sequence for the stream-prefix invariant. Under faults anything
// may fail — a dead destination surfaces as per-entry errors or a truncated
// stream, both legal — but whatever IS delivered must be the ordered prefix
// the record captures.
func (r *runner) getBatch(ctx context.Context, o op, idx int) {
	sr := &streamRecord{op: idx, names: o.Names}
	r.streams = append(r.streams, sr)
	gctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	s, err := cluster.GetBatch(gctx, r.tc.Client, r.dir, o.Names, cluster.WithGetMethod("Get"))
	if err != nil {
		sr.err = err
		return
	}
	defer s.Close()
	for {
		e, err := s.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			sr.err = err
			return
		}
		sr.indices = append(sr.indices, e.Index)
	}
}

// cachedRead flushes one CallRO("Get") on o.Name through the run's shared
// lease cache and ledgers the observed value for the cached-read invariant.
func (r *runner) cachedRead(ctx context.Context, o op, idx int) {
	rr := &readRecord{op: idx, name: o.Name, required: r.durable[o.Name]}
	rr.exempt = r.rebalanceInFlight() || r.migrationWindowOpen()
	r.reads = append(r.reads, rr)

	rctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	//brmivet:ignore unflushed abandoned only when the ring is empty, recorded in the read ledger
	b := cluster.New(r.tc.Client, cluster.WithDirectory(r.dir), cluster.WithCache(r.cache))
	p, err := b.RootNamed(rctx, o.Name)
	if err != nil {
		rr.err = err
		return
	}
	f := p.CallRO("Get")
	ferr := b.Flush(rctx)
	if b.StaleRetried() {
		r.modelStaleRetries++
	}
	if ferr != nil {
		rr.err = ferr
		return
	}
	rr.val, rr.err = cluster.Typed[int64](f).Get()
	// An async rebalance may have started mid-read; re-check the window.
	if r.rebalanceInFlight() || r.migrationWindowOpen() {
		rr.exempt = true
	}
}

// flush records o.Calls, optionally runs between() (the stale-flush
// membership change), then flushes and ledgers every outcome.
func (r *runner) flush(ctx context.Context, o op, idx int, between func()) {
	fr := &flushRecord{op: idx, calls: o.Calls, outcomes: make([]error, len(o.Calls)), endpoints: make([]string, len(o.Calls))}
	r.flushes = append(r.flushes, fr)
	// A failed rebalance leaves DESIGN.md's in-flight window open until a
	// later successful pass covers its leftovers: a name can be live at
	// both homes, and a write applied to the old copy is superseded by the
	// retried move. Every flush inside that window is exempt from the
	// "success implies effect present" check — order and at-most-once are
	// never exempt.
	fr.migrationConcurrent = r.rebalanceInFlight() || between != nil || r.migrationWindowOpen()

	fctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	//brmivet:ignore unflushed abandoned only when the ring is empty, recorded in the flush ledger
	b := cluster.New(r.tc.Client, cluster.WithDirectory(r.dir), cluster.WithCache(r.cache))
	futures := make([]*cluster.Future, len(o.Calls))
	roots := make([]*cluster.Proxy, len(o.Calls))
	for i, c := range o.Calls {
		// No I/O, no resolution: the only failure is a ring without members,
		// and then nothing was issued. A name its home cannot resolve fails
		// the flush below instead.
		p, err := b.RootNamed(fctx, c.Name)
		if err != nil {
			fr.flushErr = err
			return
		}
		var dep any
		if c.Dep >= 0 {
			dep = futures[c.Dep]
		}
		roots[i] = p
		futures[i] = p.Call("Apply", c.Token, dep)
		r.issued[c.Name] = append(r.issued[c.Name], c.Token)
	}
	if between != nil {
		between()
		fr.migrationConcurrent = true
	}
	fr.flushErr = b.Flush(fctx)
	fr.waves = b.Waves()
	fr.staleRetried = b.StaleRetried()
	if fr.staleRetried {
		r.modelStaleRetries++
	}
	for i, f := range futures {
		fr.outcomes[i] = f.Err()
		fr.endpoints[i] = roots[i].Endpoint()
	}
	// An async rebalance may have started/finished mid-flush; re-check.
	if r.rebalanceInFlight() || r.migrationWindowOpen() {
		fr.migrationConcurrent = true
	}
	// Tokens whose success is unconditional raise the freshness floor for
	// later cached reads of their name.
	if fr.flushErr == nil && !fr.migrationConcurrent {
		for i, c := range fr.calls {
			if fr.outcomes[i] == nil {
				r.durable[c.Name] += c.Token
			}
		}
	}
}

// rebalance runs a membership change synchronously, recording the outcome.
func (r *runner) rebalance(ctx context.Context, endpoint string, add bool) {
	_ = r.rebalanceErr(ctx, endpoint, add)
}

func (r *runner) rebalanceErr(ctx context.Context, endpoint string, add bool) error {
	r.rebMu.Lock()
	r.rebCount++
	r.rebMu.Unlock()
	rctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	var err error
	if add {
		_, err = r.reb.AddServer(rctx, endpoint)
	} else {
		_, err = r.reb.RemoveServer(rctx, endpoint)
	}
	r.noteRebalance(endpoint, add, err)
	return err
}

// noteRebalance updates the failure tally and the in-flight migration
// window tracking (see the field comment).
func (r *runner) noteRebalance(endpoint string, add bool, err error) {
	r.rebMu.Lock()
	defer r.rebMu.Unlock()
	if r.windowEndpoints == nil {
		r.windowEndpoints = make(map[string]bool)
	}
	switch {
	case err != nil && add:
		r.rebFailed++
		r.windowAll = true
	case err != nil:
		r.rebFailed++
		r.windowEndpoints[endpoint] = true
	case add:
		r.windowAll = false
		delete(r.windowEndpoints, endpoint)
	default:
		delete(r.windowEndpoints, endpoint)
	}
}

// joinRebalance waits for the in-flight async rebalance, if any (its
// outcome was already noted by the goroutine running it).
func (r *runner) joinRebalance() {
	r.rebMu.Lock()
	ch := r.rebPending
	r.rebPending = nil
	r.rebMu.Unlock()
	if ch != nil {
		<-ch
	}
}

func (r *runner) rebalanceInFlight() bool {
	r.rebMu.Lock()
	defer r.rebMu.Unlock()
	return r.rebPending != nil
}

// migrationWindowOpen reports whether some partially failed rebalance may
// still have a name live at two homes.
func (r *runner) migrationWindowOpen() bool {
	r.rebMu.Lock()
	defer r.rebMu.Unlock()
	return r.windowAll || len(r.windowEndpoints) > 0
}

// quiesce heals every fault, joins outstanding work, and reconciles the
// membership: AddServer for every intended member (idempotent — completes
// partial migrations and re-broadcasts the ring) and RemoveServer for every
// endpoint that should be out (drains leftovers). Bounded retries: under a
// healed network this must converge, and failing to is itself a violation.
func (r *runner) quiesce(ctx context.Context) {
	r.midWG.Wait()
	r.tc.Network.HealAll()
	r.joinRebalance()

	intended := r.intendedMembers()
	var lastErr error
	for attempt := 0; attempt < 6; attempt++ {
		lastErr = nil
		// Settle the kills first, in order: any killed member still owed a
		// failover gets it (on the healed network this must succeed), THEN
		// every killed endpoint restarts as a fresh empty process — restart
		// before failover would race an empty impostor against the
		// election, and a dead, unrestarted endpoint would leave the
		// reconcile below unable to read its (empty) manifest.
		r.attemptFailovers()
		r.killMu.Lock()
		if len(r.needFailover) == 0 {
			for ep := range r.killed {
				if r.tc.Server(ep) == nil {
					r.tc.StartServer(ep)
				}
				delete(r.killed, ep)
			}
		} else {
			lastErr = fmt.Errorf("failover still pending for %d killed members", len(r.needFailover))
		}
		r.killMu.Unlock()
		qctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
		if err := r.dir.Refresh(qctx); err != nil {
			lastErr = err
		}
		for _, ep := range r.cfg.allEndpoints() {
			var err error
			if intended[ep] {
				_, err = r.reb.AddServer(qctx, ep)
			} else {
				_, err = r.reb.RemoveServer(qctx, ep)
			}
			if err != nil {
				lastErr = fmt.Errorf("%s: %w", ep, err)
			}
		}
		cancel()
		if lastErr == nil {
			return
		}
	}
	r.violate("quiesce did not converge on a healed network: %v", lastErr)
}

// intendedMembers replays the program's membership changes to the final
// intended member set.
func (r *runner) intendedMembers() map[string]bool {
	m := map[string]bool{}
	for _, ep := range r.cfg.endpoints() {
		m[ep] = true
	}
	for _, o := range r.prog.ops {
		switch o.Kind {
		case opAddServer:
			m[o.Endpoint] = true
		case opRemoveServer:
			delete(m, o.Endpoint)
		case opStaleFlush:
			if o.Add {
				m[o.Endpoint] = true
			} else {
				delete(m, o.Endpoint)
			}
		}
	}
	return m
}
