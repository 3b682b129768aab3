package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// numClients is the closed-loop client count: one goroutine per CPU of the
// 2-core box the benchmark is specified for, never more.
const numClients = 2

const (
	dataflowKVs = 256
	scanKVs     = 1024
	cachedKVs   = 8192 // 2x rcache.DefaultMaxEntries: eviction is live
	rootsPerOp  = 4
	bodyBytes   = 64
)

// opSpec is one generated client op: plain data, a pure function of
// (seed, client, sequence). The program under test only ever sees what
// an op's do function builds from it.
type opSpec struct {
	server int             // echo_flush: which server's echo object
	size   int             // echo_flush: calls in the flush; getbatch_scan: names read
	first  int             // getbatch_scan: first name index
	objs   [rootsPerOp]int // KV workloads: root objects
	write  bool            // cached_reads: a Put batch instead of a Get batch
}

// workload is one closed-loop traffic mix.
type workload struct {
	name   string
	deploy deployConfig
	// next generates the client's next op from its seeded stream.
	next func(c *client) opSpec
	// do executes and verifies one op, returning the verified remote calls
	// it completed. A wrong result is an error like any other.
	do func(ctx context.Context, d *deployment, c *client, o opSpec) (calls int, err error)
	// check runs once after the last round (nil: nothing to check).
	check func(d *deployment, clients []*client) error
	// probeCall is the one un-batched call the rmi probe issues.
	probeCall func() (obj any, iface, method string, args []any)
	usesNames bool
	// sizes is the set a client's seeded size cycle shuffles.
	sizes []int
}

// client is one closed-loop client goroutine's state.
type client struct {
	id      int
	rng     *rand.Rand
	zipf    *rand.Zipf
	seq     uint64
	cycle   []int // this client's seeded shuffle of the size set
	scratch clientScratch
	spans   *opSpans // nil unless traced
	lat     latHist  // this round's op latencies

	in, out []Payload
	body    []byte
	kb      kvBatch
	res     []int64
	entries []scanEntry

	// What the end-of-run and per-read checks compare against.
	adds    []int64 // acked increments per KV
	version int64
	// cached_reads, for the objects this client alone writes: the last acked
	// Put version (0: none yet), the version no lease can still undercut, and
	// the acked Puts not yet old enough to raise that floor, in ack order.
	lastPut []int64
	floor   []int64
	recent  []ackedPut
}

// ackedPut is one acknowledged Put of cached_reads.
type ackedPut struct {
	at      time.Time
	obj     int
	version int64
}

func newClient(w *workload, seed int64, id int) *client {
	c := &client{id: id, rng: rand.New(rand.NewSource(seed*1000003 + int64(id)))}
	c.cycle = append(c.cycle, w.sizes...)
	c.rng.Shuffle(len(c.cycle), func(i, j int) { c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i] })
	c.zipf = rand.NewZipf(c.rng, 1.1, 1, cachedKVs-1)
	c.body = make([]byte, bodyBytes)
	c.rng.Read(c.body)
	n := w.deploy.kvNamed + w.deploy.kvAnon
	c.adds = make([]int64, n)
	c.lastPut = make([]int64, n)
	c.floor = make([]int64, n)
	c.res = make([]int64, 16)
	return c
}

func (c *client) opID() uint64 { return opID(c.id, c.seq) }

// distinct draws rootsPerOp different indexes below n.
func (c *client) distinct(n int) (objs [rootsPerOp]int) {
	for i := range objs {
	draw:
		for {
			objs[i] = c.rng.Intn(n)
			for _, prev := range objs[:i] {
				if prev == objs[i] {
					continue draw
				}
			}
			break
		}
	}
	return objs
}

// streamHash fingerprints the first n ops of each client's stream.
func streamHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	for id := 0; id < numClients; id++ {
		c := newClient(w, seed, id)
		for i := 0; i < n; i++ {
			c.seq++
			fmt.Fprintf(h, "%+v;", w.next(c))
		}
	}
	return h.Sum64()
}

// mix is what KV.Apply returns for (dep, token).
func mix(dep int64, token uint64) int64 {
	return int64((uint64(dep)*0x9E3779B97F4A7C15 ^ token) >> 1)
}

// initialVersion is KV i's version at set-up.
func initialVersion(i int) int64 { return int64(1000 + i) }

// --- verifiers ------------------------------------------------------------------
//
// Pure functions of an op's inputs and results, so verify_test.go can feed
// each one a deliberately wrong result.

func verifyEcho(in, out []Payload) error {
	for i := range in {
		a, b := in[i], out[i]
		if a.Op != b.Op || a.Seq != b.Seq || a.Name != b.Name || !bytes.Equal(a.Body, b.Body) {
			return fmt.Errorf("echo %d: sent %+v, got %+v", i, a, b)
		}
	}
	return nil
}

// verifyDataflow checks res = [a0..a3, b0..b3, c] of one cluster_dataflow
// op: every Apply saw the settled value of the call it depends on.
func verifyDataflow(token uint64, res []int64) error {
	a, b, c := res[:rootsPerOp], res[rootsPerOp:2*rootsPerOp], res[2*rootsPerOp]
	for i := range a {
		if a[i] < 1 {
			return fmt.Errorf("Add %d returned total %d", i, a[i])
		}
		if want := mix(a[i], token); b[i] != want {
			return fmt.Errorf("Apply %d = %d, want mix(%d) = %d", i, b[i], a[i], want)
		}
	}
	if want := mix(b[rootsPerOp-1], token); c != want {
		return fmt.Errorf("final Apply = %d, want %d", c, want)
	}
	return nil
}

// verifyWrites checks the two Adds per root of one replicated_write op:
// both applied, in program order.
func verifyWrites(res []int64) error {
	for i := 0; i+1 < len(res); i += 2 {
		if res[i] < 1 || res[i+1] <= res[i] {
			return fmt.Errorf("root %d: Add totals %d then %d", i/2, res[i], res[i+1])
		}
	}
	return nil
}

// verifyTotals checks that no acked increment was lost or duplicated.
func verifyTotals(got, want []int64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("kv-%d total %d, acked increments %d", i, got[i], want[i])
		}
	}
	return nil
}

// readBounds returns the versions a read of obj that began at start may
// return. The client is the only writer of the objects of its own parity
// and its versions rise, so such a read is never newer than its last acked
// Put. It may be older: a lease is dropped when a write is recorded, not when
// it is acked, so the other client's fetch, begun while this client's Put is
// still in flight, re-fills the shared cache with the version before it, and
// that lease lives for leaseTTL. What holds is the cache's documented bound:
// no read is older than a Put acked more than leaseTTL (plus staleSlack for a
// fill that lands late) before it began. The other client's objects are only
// known never to read below their initial version.
func (c *client) readBounds(obj int, start time.Time) (lo, hi int64) {
	lo = initialVersion(obj)
	if obj%numClients != c.id {
		return lo, math.MaxInt64
	}
	cutoff := start.Add(-leaseTTL - staleSlack)
	for len(c.recent) > 0 && !c.recent[0].at.After(cutoff) {
		c.floor[c.recent[0].obj] = c.recent[0].version
		c.recent = c.recent[1:]
	}
	return max(lo, c.floor[obj]), max(lo, c.lastPut[obj])
}

const staleSlack = time.Second

// verifyReads checks a cached_reads Get batch against each read's bounds.
func verifyReads(objs []int, res, lo, hi []int64) error {
	for i, obj := range objs {
		if res[i] < lo[i] || res[i] > hi[i] {
			return fmt.Errorf("kv %d read version %d, outside %d..%d", obj, res[i], lo[i], hi[i])
		}
	}
	return nil
}

// verifyScan checks a drained get-batch: n entries, in request order, each
// naming and valuing the object asked for.
func verifyScan(first, n int, entries []scanEntry) error {
	if len(entries) != n {
		return fmt.Errorf("%d entries delivered, want %d", len(entries), n)
	}
	for i, e := range entries {
		if e.Index != i || e.Name != fmt.Sprintf("kv-%d", first+i) || e.Value != initialVersion(first+i) {
			return fmt.Errorf("entry %d = %+v, want kv-%d = %d", i, e, first+i, initialVersion(first+i))
		}
	}
	return nil
}

// --- the five workloads ---------------------------------------------------------

func checkTotals(d *deployment, clients []*client) error {
	want := make([]int64, len(d.kvs))
	for _, c := range clients {
		for i, n := range c.adds {
			want[i] += n
		}
	}
	return verifyTotals(d.kvTotals(), want)
}

func kvProbeCall(method string) func() (any, string, string, []any) {
	return func() (any, string, string, []any) {
		return &KV{}, kvIface, method, []any{uint64(1), int64(1)}
	}
}

var workloads = []*workload{
	{
		name:  "echo_flush",
		sizes: []int{1, 4, 16, 64},
		// Instant links, so all time is wire+transport+rmi dispatch+core
		// executor; cluster, rcache, registry and replication do nothing.
		// Per-call middleware cost once round trips are amortised.
		next: func(c *client) opSpec {
			return opSpec{server: c.rng.Intn(numServers), size: c.cycle[c.seq%uint64(len(c.cycle))]}
		},
		do: func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
			c.in, c.out = c.in[:0], c.out[:0]
			for i := 0; i < o.size; i++ {
				c.in = append(c.in, Payload{Op: c.opID(), Seq: int64(i), Name: "brmibench-echo-payload", Body: c.body})
			}
			c.out = append(c.out, make([]Payload, o.size)...)
			if err := d.echoFlush(ctx, c.spans, &c.scratch, o.server, c.in, c.out); err != nil {
				return 0, err
			}
			return o.size, verifyEcho(c.in, c.out)
		},
		probeCall: func() (any, string, string, []any) {
			return &EchoObject{}, echoIface, "Echo", []any{Payload{Op: 1, Name: "brmibench-echo-payload", Body: make([]byte, bodyBytes)}}
		},
	},
	{
		name: "cluster_dataflow",
		// LAN; 4 named roots, 9 calls, dependency depth 3: time is name
		// resolution + planner + staged waves x RTT. cluster and registry do
		// most of the work; a change there must not move echo_flush.
		deploy:    deployConfig{lan: true, kvNamed: dataflowKVs},
		usesNames: true,
		next:      func(c *client) opSpec { return opSpec{objs: c.distinct(dataflowKVs)} },
		do: func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
			kb := &c.kb
			*kb = kvBatch{op: c.opID(), named: true, objs: o.objs[:], calls: kb.calls[:0]}
			for i := 0; i < rootsPerOp; i++ { // a_i = root_i.Add(1)
				kb.calls = append(kb.calls, kvCall{root: i, method: "Add", arg: 1, dep: -1})
			}
			for i := 0; i < rootsPerOp; i++ { // b_i = root_(i+1).Apply(a_i)
				kb.calls = append(kb.calls, kvCall{root: (i + 1) % rootsPerOp, method: "Apply", dep: i})
			}
			kb.calls = append(kb.calls, kvCall{root: 0, method: "Apply", dep: 2*rootsPerOp - 1}) // c = root_0.Apply(b_3)
			if err := d.kvFlush(ctx, c.spans, &c.scratch, kb, c.res); err != nil {
				return 0, err
			}
			for _, call := range kb.calls { // every call acked one increment on its root
				c.adds[o.objs[call.root]]++
			}
			return len(kb.calls), verifyDataflow(kb.op, c.res[:len(kb.calls)])
		},
		check:     checkTotals,
		probeCall: kvProbeCall("Apply"),
	},
	{
		name: "replicated_write",
		// LAN, R=3, quorum 2, one follower link 4 ms slower each way: durable
		// writes through log shipping, Replica.Append, quorum ack. The fixed
		// straggler gives majority-ack something to beat.
		deploy:    deployConfig{lan: true, kvNamed: dataflowKVs, replicas: 3, straggler: true},
		usesNames: true,
		next:      func(c *client) opSpec { return opSpec{objs: c.distinct(dataflowKVs)} },
		do: func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
			kb := &c.kb
			*kb = kvBatch{op: c.opID(), named: true, quorum: 2, objs: o.objs[:], calls: kb.calls[:0]}
			for i := 0; i < rootsPerOp; i++ {
				kb.calls = append(kb.calls, kvCall{root: i, method: "Add", arg: 1, dep: -1}, kvCall{root: i, method: "Add", arg: 1, dep: -1})
			}
			if err := d.kvFlush(ctx, c.spans, &c.scratch, kb, c.res); err != nil {
				return 0, err
			}
			for _, obj := range o.objs {
				c.adds[obj] += 2
			}
			return len(kb.calls), verifyWrites(c.res[:len(kb.calls)])
		},
		check:     checkTotals,
		probeCall: kvProbeCall("Add"),
	},
	{
		name: "cached_reads",
		// LAN; 8192 objects against a 4096-entry lease cache, Zipf(1.1) reads, 1
		// op in 10 writes: rcache does most of the work, an all-hit flush sends
		// nothing, eviction and invalidation are live.
		deploy: deployConfig{lan: true, kvAnon: cachedKVs, cache: true, kvInit: initialVersion},
		next: func(c *client) opSpec {
			// Both clients draw from all the objects, through one shared cache,
			// so a hot object's lease, fetch and invalidation are shared. A
			// write goes to the drawn object's neighbour of the client's own
			// parity: one writer per object is what lets readBounds say
			// anything about a read.
			o := opSpec{write: c.seq%10 == 0}
			for i := range o.objs {
				o.objs[i] = int(c.zipf.Uint64())
				if o.write {
					o.objs[i] = o.objs[i]/numClients*numClients + c.id
				}
			}
			return o
		},
		do: func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
			kb := &c.kb
			*kb = kvBatch{op: c.opID(), cached: true, objs: o.objs[:], calls: kb.calls[:0]}
			for i := range o.objs {
				if o.write {
					c.version++
					kb.calls = append(kb.calls, kvCall{root: i, method: "Put", arg: initialVersion(cachedKVs) + c.version, dep: -1})
				} else {
					kb.calls = append(kb.calls, kvCall{root: i, method: "Get", dep: -1})
				}
			}
			start := time.Now()
			if err := d.kvFlush(ctx, c.spans, &c.scratch, kb, c.res); err != nil {
				return 0, err
			}
			if !o.write {
				var lo, hi [rootsPerOp]int64
				for i, obj := range o.objs {
					lo[i], hi[i] = c.readBounds(obj, start)
				}
				return len(kb.calls), verifyReads(o.objs[:], c.res[:len(kb.calls)], lo[:], hi[:])
			}
			acked := time.Now()
			for i, call := range kb.calls {
				if c.res[i] != call.arg {
					return 0, fmt.Errorf("Put(%d) returned %d", call.arg, c.res[i])
				}
				c.lastPut[o.objs[i]] = call.arg
				c.recent = append(c.recent, ackedPut{at: acked, obj: o.objs[i], version: call.arg})
			}
			return len(kb.calls), nil
		},
		probeCall: kvProbeCall("Put"),
	},
	{
		name: "getbatch_scan",
		// LAN; N in {1,8,64} consecutive names streamed back in order: parallel
		// name resolution, one stream per destination, chunk/credit transport,
		// ordered assembler. Bypasses the batch planner, rcache and replication.
		deploy:    deployConfig{lan: true, kvNamed: scanKVs, kvInit: initialVersion},
		usesNames: true,
		sizes:     []int{1, 8, 64},
		next: func(c *client) opSpec {
			n := c.cycle[c.seq%uint64(len(c.cycle))]
			return opSpec{size: n, first: c.rng.Intn(scanKVs - n + 1)}
		},
		do: func(ctx context.Context, d *deployment, c *client, o opSpec) (int, error) {
			var err error
			c.entries, err = d.getBatch(ctx, c.spans, o.first, o.size, c.entries)
			if err != nil {
				return 0, err
			}
			return o.size, verifyScan(o.first, o.size, c.entries)
		},
		probeCall: func() (any, string, string, []any) { return &KV{}, kvIface, "Get", nil },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
