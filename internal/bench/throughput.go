package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// throughput.go measures the hot-path CPU cost of the stack: C concurrent
// client goroutines hammering a sharded cluster with mixed-size flushes of a
// marshal-heavy Echo call. Unlike the latency figures, this workload runs on
// the instant network profile, so every millisecond measured is middleware
// work — codec, framing, dispatch, replay — not simulated wire time. It is
// the figure that makes per-call marshal/alloc overhead visible, the regime
// where batched-object systems win or lose once round trips are amortized.

// ThroughputServers is the cluster size of the throughput workload.
const ThroughputServers = 4

// FlushSizes is the cycle of batch sizes each client goroutine works
// through, mixing single-call flushes with large ones so both per-flush and
// per-call overheads are represented.
var FlushSizes = [...]int{1, 4, 16, 64}

// throughputPayloadBytes sizes Payload.Data.
const throughputPayloadBytes = 64

// ThroughputResult is one measured concurrency level.
type ThroughputResult struct {
	Concurrency int
	// CallsPerSec is recorded Echo calls completed per wall-clock second,
	// summed over all client goroutines.
	CallsPerSec float64
	// FlushStats summarizes per-flush latency (the unit a client observes).
	FlushStats Stats
	// AllocsPerCall is heap allocations per recorded call, client and
	// server processes combined (they share the Go heap in the simulated
	// deployment; the paper's stack splits identically on both sides).
	AllocsPerCall float64
}

// MeasureThroughput runs the workload at one concurrency level: conc
// goroutines, each bound round-robin to one of the environment's servers,
// executing flushes until the shared budget is exhausted.
func MeasureThroughput(env *ClusterEnv, conc, flushes int) (ThroughputResult, error) {
	if len(env.EchoRefs) == 0 {
		return ThroughputResult{}, fmt.Errorf("bench: environment has no echo services")
	}
	// Warm up: fill connection pools, type registries, and codec caches.
	if _, _, _, err := runThroughput(env, conc, flushes/4+conc); err != nil {
		return ThroughputResult{}, fmt.Errorf("warmup: %w", err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	latencies, calls, _, err := runThroughput(env, conc, flushes)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return ThroughputResult{}, err
	}
	return ThroughputResult{
		Concurrency:   conc,
		CallsPerSec:   float64(calls) / wall.Seconds(),
		FlushStats:    summarize(latencies),
		AllocsPerCall: float64(after.Mallocs-before.Mallocs) / float64(calls),
	}, nil
}

// runThroughput executes `flushes` batch flushes spread over conc workers
// and returns the merged per-flush latencies and the total calls recorded.
func runThroughput(env *ClusterEnv, conc, flushes int) ([]time.Duration, int64, int64, error) {
	ctx := context.Background()
	var next atomic.Int64
	var totalCalls atomic.Int64
	perWorker := make([][]time.Duration, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := env.EchoRefs[g%len(env.EchoRefs)]
			payload := Payload{
				ID:      int64(g),
				Name:    "throughput-object-with-a-realistic-name",
				Seq:     1,
				Data:    make([]byte, throughputPayloadBytes),
				Elapsed: time.Millisecond,
			}
			lat := perWorker[g][:0]
			for {
				n := next.Add(1)
				if n > int64(flushes) {
					break
				}
				size := FlushSizes[int(n)%len(FlushSizes)]
				startFlush := time.Now()
				b := core.New(env.Client, ref)
				root := b.Root()
				futures := make([]*core.Future, size)
				for i := 0; i < size; i++ {
					payload.Seq = uint64(i)
					futures[i] = root.Call("Echo", payload)
				}
				if err := b.Flush(ctx); err != nil {
					errs[g] = err
					return
				}
				if err := futures[size-1].Err(); err != nil {
					errs[g] = err
					return
				}
				lat = append(lat, time.Since(startFlush))
				totalCalls.Add(int64(size))
			}
			perWorker[g] = lat
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	var merged []time.Duration
	for _, lat := range perWorker {
		merged = append(merged, lat...)
	}
	return merged, totalCalls.Load(), int64(flushes), nil
}

// baselineThroughput is the frozen pre-optimization series: the same
// workload measured at the previous commit (PR 3 head, 9525846), before the
// compiled wire codecs, pooled buffers, coalesced framing, and parallel
// batch executor landed. Committing the numbers keeps the before/after
// comparison in BENCH_throughput.json honest and reproducible: the "PR3"
// column is this recording, the "HEAD" column is measured live by benchfig.
// Absolute numbers belong to the CI-class container the trajectory is
// generated on; the before/after *ratio* is the tracked quantity.
var baselineThroughput = map[int]ThroughputResult{
	1: {Concurrency: 1, CallsPerSec: 193327, AllocsPerCall: 29.46,
		FlushStats: Stats{N: 1200, Mean: 109787, Std: 129399, Min: 22374, P50: 69361, P95: 308965, Max: 2844737}},
	4: {Concurrency: 4, CallsPerSec: 207170, AllocsPerCall: 29.46,
		FlushStats: Stats{N: 1200, Mean: 398148, Std: 5907161, Min: 22448, P50: 67405, P95: 295638, Max: 118462093}},
	16: {Concurrency: 16, CallsPerSec: 194915, AllocsPerCall: 29.46,
		FlushStats: Stats{N: 1200, Mean: 307768, Std: 4889099, Min: 24428, P50: 70783, P95: 294480, Max: 126804690}},
}

// RunThroughput produces the throughput figure over concurrency levels:
// column "PR3 (frozen)" is the committed pre-optimization recording (zeros
// when no recording exists for a concurrency level), column "HEAD" is
// measured live.
func RunThroughput(cfg Config, concs []int, flushes int) (*Table, error) {
	table := &Table{
		Fig:     "Fig. T1",
		Title:   fmt.Sprintf("Hot-path throughput (%d servers, mixed flush sizes %v, %d flushes)", ThroughputServers, FlushSizes, flushes),
		XLabel:  "client goroutines",
		Profile: cfg.Profile.Name,
		Columns: []string{"PR3 (frozen)", "HEAD"},
	}
	for _, conc := range concs {
		env, err := NewClusterEnv(cfg.Profile, ThroughputServers)
		if err != nil {
			return nil, err
		}
		res, err := MeasureThroughput(env, conc, flushes)
		env.Close()
		if err != nil {
			return nil, fmt.Errorf("throughput conc=%d: %w", conc, err)
		}
		base := baselineThroughput[conc]
		table.Rows = append(table.Rows, Row{
			X: conc,
			Cells: []Cell{
				{S: base.FlushStats, Calls: 1, OpsPerSec: base.CallsPerSec, AllocsPerOp: base.AllocsPerCall},
				{S: res.FlushStats, Calls: 1, OpsPerSec: res.CallsPerSec, AllocsPerOp: res.AllocsPerCall},
			},
		})
	}
	return table, nil
}
