package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

const (
	numRounds    = 5 // plain run: every timing is the median of 5 rounds
	tracedRounds = 2
	numSetups    = 7 // setup_s is the median of at least 7 complete set-ups,
	// and of as many more (up to maxSetups) as fit in setupBudget: four of
	// the five set-ups take under 2 ms, and a median of 7 such times spreads
	// 20-40 % between runs.
	maxSetups   = 301
	setupBudget = 1500 * time.Millisecond
)

// runConfig is one run's schedule. newRunConfig derives the real one from
// -seconds; the package's tests shrink it.
type runConfig struct {
	seed   int64
	round  time.Duration // length of one round
	warmup time.Duration // untimed: fills connection pools, codec plans, the lease cache
	rounds int           // plain rounds
	traced int           // traced rounds
	setups int           // at least this many timed set-ups
	// setupBudget keeps repeating the set-up until this much time has gone.
	setupBudget time.Duration
	probe       time.Duration // length of one isolated probe
	// traceOut, when set, receives the traced run's spans.
	traceOut string
}

// newRunConfig splits seconds of measurement over numRounds rounds.
func newRunConfig(seed int64, seconds float64) runConfig {
	round := time.Duration(seconds / numRounds * float64(time.Second))
	return runConfig{seed: seed, round: round, warmup: min(2*time.Second, round), rounds: numRounds,
		traced: tracedRounds, setups: numSetups, setupBudget: setupBudget, probe: min(time.Second, max(200*time.Millisecond, round/4))}
}

// roundStats is what one round measured.
type roundStats struct {
	wall               time.Duration
	ops, failed, calls int64
	lat                *latHist // per-op latency, ns
	cpu                time.Duration
	mallocs, bytes     uint64
	roundTrips         uint64
	conn               connCounts
	firstErr           error
}

// counts are the four count metrics over everything rs covers.
func (rs *roundStats) counts() map[string]float64 {
	calls, ops := float64(max(rs.calls, 1)), float64(max(rs.ops, 1))
	return map[string]float64{
		"allocs_per_call":      float64(rs.mallocs) / calls,
		"alloc_bytes_per_call": float64(rs.bytes) / calls,
		"round_trips_per_op":   float64(rs.roundTrips) / ops,
		"wire_bytes_per_call":  float64(rs.conn.bytesOut+rs.conn.bytesIn) / calls,
	}
}

// add folds another round into a (latency samples excepted).
func (a *roundStats) add(b roundStats) {
	a.wall += b.wall
	a.ops += b.ops
	a.failed += b.failed
	a.calls += b.calls
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.roundTrips += b.roundTrips
	a.conn = a.conn.add(b.conn)
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

// cpuTime is the process's user+system CPU time. Client and servers share
// the process, so this is the whole deployment's CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound drives the closed loop for dur: every client issues its next op
// only once the previous one has settled and been verified.
func runRound(d *deployment, w *workload, clients []*client, dur time.Duration) roundStats {
	type clientRound struct {
		ops, failed, calls int64
		err                error
	}
	// Latencies go into each client's fixed histogram, emptied here, so the
	// harness's heap does not grow while the round is measured.
	for _, c := range clients {
		c.lat.reset()
	}
	lat := &latHist{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, rt0, conn0 := cpuTime(), d.roundTrips(), d.conns.read()
	start := time.Now()
	deadline := start.Add(dur)
	// An op that hangs fails at this deadline instead of hanging the run.
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(20*time.Second))
	defer cancel()

	per := make([]clientRound, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, r *clientRound) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.seq++
				o := w.next(c)
				if c.spans != nil {
					c.spans.op = c.opID()
				}
				t0 := time.Now()
				ts := c.spans.begin()
				calls, err := w.do(ctx, d, c, o)
				c.spans.end(spanOp, ts)
				r.ops++
				if err != nil {
					// A failed op contributes no latency sample and no goodput.
					r.failed++
					if r.err == nil {
						r.err = fmt.Errorf("client %d op %d: %w", c.id, c.seq, err)
					}
					continue
				}
				c.lat.record(int64(time.Since(t0)))
				r.calls += int64(calls)
			}
		}(c, &per[i])
	}
	wg.Wait()

	rs := roundStats{wall: time.Since(start), cpu: cpuTime() - cpu0, lat: lat,
		roundTrips: d.roundTrips() - rt0, conn: d.conns.read().sub(conn0)}
	runtime.ReadMemStats(&m1)
	rs.mallocs, rs.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	for _, r := range per {
		rs.ops += r.ops
		rs.failed += r.failed
		rs.calls += r.calls
		if rs.firstErr == nil {
			rs.firstErr = r.err
		}
	}
	for _, c := range clients {
		lat.merge(&c.lat)
	}
	return rs
}

func newClients(w *workload, seed int64) []*client {
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(w, seed, i)
	}
	return clients
}

// runPlain is the untraced run: timed set-ups (the last one kept), warm-up,
// then the rounds, with a GC before each.
func runPlain(w *workload, cfg runConfig) (*workloadResult, error) {
	var d *deployment
	var setups []float64
	for begun := time.Now(); len(setups) < cfg.setups ||
		(time.Since(begun) < cfg.setupBudget && len(setups) < maxSetups); {
		if d != nil {
			d.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = newDeployment(w.deploy); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.Close()

	clients := newClients(w, cfg.seed)
	res := &workloadResult{EndToEnd: map[string]metricValue{}}
	note := func(rs roundStats) {
		res.Ops += rs.ops
		res.Failed += rs.failed
		if res.FirstError == "" && rs.firstErr != nil {
			res.FirstError = rs.firstErr.Error()
		}
	}
	note(runRound(d, w, clients, cfg.warmup))

	per := map[string][]float64{}
	pooled := &latHist{}
	var total roundStats
	for i := 0; i < cfg.rounds; i++ {
		rs := runRound(d, w, clients, cfg.round)
		note(rs)
		pooled.merge(rs.lat)
		total.add(rs)
		timings := map[string]float64{
			"goodput_calls_per_s": float64(rs.calls) / rs.wall.Seconds(),
			"op_p50_us":           rs.lat.percentile(0.50) / 1e3,
			"op_p95_us":           rs.lat.percentile(0.95) / 1e3,
			"cpu_us_per_call":     float64(rs.cpu.Microseconds()) / float64(max(rs.calls, 1)),
		}
		for _, set := range []map[string]float64{timings, rs.counts()} {
			for name, v := range set {
				per[name] = append(per[name], v)
			}
		}
	}
	if w.check != nil {
		if err := w.check(d, clients); err != nil {
			res.Failed++
			if res.FirstError == "" {
				res.FirstError = "end-of-run check: " + err.Error()
			}
		}
	}
	per["setup_s"] = setups
	for name, rounds := range per {
		res.EndToEnd[name] = summarizeRounds(rounds)
	}
	// A timing is the median of its rounds, so that a round a noisy neighbour
	// slowed does not set it. A count has no such round and its noise is the
	// op mix a round happened to draw, so its value is the total over the
	// rounds: that spreads a third less between runs than the median of the
	// round ratios. Its quartiles are still the rounds'.
	for name, v := range total.counts() {
		m := res.EndToEnd[name]
		m.Value = v
		res.EndToEnd[name] = m
	}
	res.EndToEnd[failedOpsRatio] = metricValue{Value: res.failedRatio()}
	res.Samples = int(pooled.n)
	res.P99PooledUs = pooled.percentile(0.99) / 1e3
	return res, nil
}

// runTraced yields the per-layer numbers: one untraced round on a plain
// deployment (the base of trace.overhead_ratio), then the traced rounds
// on a deployment whose every peer carries a stats registry, with spans
// on, then the isolated probes.
func runTraced(w *workload, cfg runConfig) (*workloadResult, error) {
	d, err := newDeployment(w.deploy)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	clients := newClients(w, cfg.seed)
	warm := runRound(d, w, clients, cfg.warmup)
	plain := runRound(d, w, clients, cfg.round)
	d.Close()

	traced := w.deploy
	traced.stats = true
	if d, err = newDeployment(traced); err != nil {
		return nil, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	defer d.Close()
	clients = newClients(w, cfg.seed)
	all := warm
	all.add(plain)
	all.add(runRound(d, w, clients, cfg.warmup))

	app := &appSpans{}
	for _, c := range clients {
		c.spans = &opSpans{}
	}
	appTrace.Store(app)
	cs0, ss0 := d.clientSeries(), d.serverSeries()
	var total roundStats
	for i := 0; i < cfg.traced; i++ {
		total.add(runRound(d, w, clients, cfg.round))
	}
	cs, ss := d.clientSeries().sub(cs0), d.serverSeries().sub(ss0)
	appTrace.Store(nil)
	all.add(total)
	res := &workloadResult{Ops: all.ops, Failed: all.failed}
	if all.firstErr != nil {
		res.FirstError = all.firstErr.Error()
	}

	// Server goroutines still replaying a detached straggler ship may be
	// inside appEnd; they hold app.mu there, so take it to read.
	app.mu.Lock()
	spans := app.buf
	app.buf = nil
	app.mu.Unlock()
	for _, c := range clients {
		spans = append(spans, c.spans.buf...)
		c.spans = nil
	}
	sortSpans(spans)
	ts := summarize(spans)
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return nil, err
		}
	}

	lm := &layerInputs{w: w, total: total, cs: cs, ss: ss, ts: ts, dials: d.conns.read().dials,
		plainGoodput: float64(plain.calls) / plain.wall.Seconds()}
	res.Layers, err = lm.compute(cfg)
	return res, err
}

func (a series) sub(b series) series {
	out := make(series, len(a))
	for k, v := range a {
		out[k] = v - b[k]
	}
	return out
}

// timeLoop calls fn repeatedly for about dur and returns the mean cost of
// one call. Nothing else runs in the process during a probe, so the malloc
// delta is fn's.
func timeLoop(dur time.Duration, fn func()) probeResult {
	// Warm pools and plans, and learn whether fn is slow enough (a call over
	// a delayed link) that the clock may be read around every call.
	warm := time.Now()
	n := 0
	for ; n < 100 && time.Since(warm) < dur/10; n++ {
		fn()
	}
	batch := 64
	if n == 0 || time.Since(warm)/time.Duration(n+1) > 10*time.Microsecond {
		batch = 1
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n = 0
	for time.Since(start) < dur {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return probeResult{
		nsPerCall:     float64(elapsed.Nanoseconds()) / float64(n),
		allocsPerCall: float64(m1.Mallocs-m0.Mallocs) / float64(n),
	}
}
