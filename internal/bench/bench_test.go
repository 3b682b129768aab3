package bench

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// fastProfile keeps shape tests quick while still separating the curves:
// 4 ms RTT dominates the sub-millisecond processing cost.
var fastProfile = netsim.Profile{Name: "lan-test", RTT: 4 * time.Millisecond, BitsPerSecond: 1e9}

func fastCfg() Config {
	return Config{Profile: fastProfile, Warmup: 1, Reps: 3}
}

// assertRoundTrips checks the round-trip counts of one row.
func assertRoundTrips(t *testing.T, table *Table, x int, want []uint64) {
	t.Helper()
	for _, row := range table.Rows {
		if row.X != x {
			continue
		}
		for i, w := range want {
			if got := row.Cells[i].Calls; got != w {
				t.Errorf("%s x=%d %s: %d round trips, want %d",
					table.Fig, x, table.Columns[i], got, w)
			}
		}
		return
	}
	t.Fatalf("no row x=%d", x)
}

func TestNoopShape(t *testing.T) {
	table, err := RunNoop(fastCfg(), []int{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	// Round trips: RMI n, BRMI 1 — the mechanism behind Figures 5-6.
	assertRoundTrips(t, table, 1, []uint64{1, 1})
	assertRoundTrips(t, table, 5, []uint64{5, 1})
	// Shape: at n=5 RMI must be well above BRMI (paper: ~n× vs flat).
	speedup, err := table.SpeedupAt(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 2 {
		t.Errorf("RMI/BRMI at n=5 = %.2fx, want >= 2x", speedup)
	}
	// BRMI stays near-flat from n=1 to n=5.
	brmi1 := table.Rows[0].Cells[1].S.Millis()
	brmi5 := table.Rows[1].Cells[1].S.Millis()
	if brmi5 > brmi1*2.5 {
		t.Errorf("BRMI grew %.2fx from n=1 to n=5, want near-flat", brmi5/brmi1)
	}
}

func TestListShape(t *testing.T) {
	table, err := RunList(fastCfg(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// RMI: n Next calls + 1 GetValue; BRMI: one batch.
	assertRoundTrips(t, table, 4, []uint64{5, 1})
	speedup, err := table.SpeedupAt(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 2 {
		t.Errorf("RMI/BRMI at n=4 = %.2fx, want >= 2x", speedup)
	}
}

func TestListNoBatchShape(t *testing.T) {
	table, err := RunListNoBatch(fastCfg(), []int{3})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9: same number of round trips on both sides...
	assertRoundTrips(t, table, 3, []uint64{4, 4})
	// ...and the paper's surprise was only that BRMI is not slower despite
	// the batching machinery: it avoids remote-object marshalling per step.
	rmi := tableCell(t, table, 3, 0).S.Millis()
	brmi := tableCell(t, table, 3, 1).S.Millis()
	if brmi > rmi*1.6 {
		t.Errorf("batch-of-1 BRMI %.2fms much slower than RMI %.2fms", brmi, rmi)
	}
}

func TestSimulationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	table, err := RunSimulation(fastCfg(), []int{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Same round trips both sides (flush per step): 1 create + n steps + 1
	// result fetch (+1 initial flush for BRMI's create batch).
	row := tableCell(t, table, 6, 0)
	if row.Calls != 8 {
		t.Errorf("RMI round trips = %d, want 8", row.Calls)
	}
	// RMI pays 2 extra loopback calls per step; BRMI must be faster.
	speedup, err := table.SpeedupAt(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 1.5 {
		t.Errorf("RMI/BRMI at 6 steps = %.2fx, want >= 1.5x (loopback penalty)", speedup)
	}
}

func TestFileServerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	table, err := RunFileServer(fastCfg(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// RMI: 1 list + 5 calls per file; BRMI: one batch.
	assertRoundTrips(t, table, 4, []uint64{21, 1})
	speedup, err := table.SpeedupAt(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 3 {
		t.Errorf("RMI/BRMI at 4 files = %.2fx, want >= 3x", speedup)
	}
}

func TestAblationIdentityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	table, err := RunAblationIdentity(fastCfg(), []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Columns) != 3 {
		t.Fatalf("columns = %v", table.Columns)
	}
	rmi := tableCell(t, table, 4, 0).S.Millis()
	shortcut := tableCell(t, table, 4, 1).S.Millis()
	brmi := tableCell(t, table, 4, 2).S.Millis()
	// The shortcut removes the loopback penalty, landing near BRMI and
	// well under faithful RMI.
	if shortcut >= rmi {
		t.Errorf("shortcut %.2fms not faster than faithful RMI %.2fms", shortcut, rmi)
	}
	if brmi >= rmi {
		t.Errorf("BRMI %.2fms not faster than RMI %.2fms", brmi, rmi)
	}
}

func TestAblationStubsShape(t *testing.T) {
	table, err := RunAblationStubs(Config{Profile: netsim.Instant, Warmup: 2, Reps: 15}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the fastest repetition, not the mean: the op takes ~0.1 ms on
	// the instant profile, so one scheduler stall in one rep would swamp a
	// mean and says nothing about wrapper overhead.
	dyn := tableCell(t, table, 64, 0).S.Min
	gen := tableCell(t, table, 64, 1).S.Min
	// Generated stubs are thin wrappers; they must not multiply cost.
	if gen > dyn*3 {
		t.Errorf("generated stubs %v vs dynamic %v: wrapper overhead too large", gen, dyn)
	}
}

func TestAblationBatchSize(t *testing.T) {
	table, err := RunAblationBatchSize(fastCfg(), 8, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Batch size 1 → 8 round trips; size 8 → 1 round trip, and much faster.
	assertRoundTrips(t, table, 1, []uint64{8})
	assertRoundTrips(t, table, 8, []uint64{1})
	k1 := tableCell(t, table, 1, 0).S.Millis()
	k8 := tableCell(t, table, 8, 0).S.Millis()
	if k8 >= k1 {
		t.Errorf("full batch %.2fms not faster than per-call flush %.2fms", k8, k1)
	}
}

// TestFanoutShape is the acceptance check of the cluster subsystem: on the
// WAN profile with K=4 servers and 64 calls per batch, the parallel cluster
// flush must complete in roughly max-of-servers rather than sum-of-servers
// time — at least 2x faster than flushing the 4 per-server batches
// sequentially, and far ahead of unbatched RMI.
func TestFanoutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	cfg := Config{Profile: netsim.WAN.Scaled(10), Warmup: 1, Reps: 3}
	table, err := RunFanout(cfg, 64, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Round trips: RMI one per call; both batched variants one per server.
	assertRoundTrips(t, table, 4, []uint64{64, 4, 4})
	rmiMs := tableCell(t, table, 4, 0).S.Millis()
	seqMs := tableCell(t, table, 4, 1).S.Millis()
	cluMs := tableCell(t, table, 4, 2).S.Millis()
	if cluMs <= 0 {
		t.Fatal("cluster variant measured zero time")
	}
	if seqMs/cluMs < 2 {
		t.Errorf("cluster flush %.2fms vs sequential %.2fms: %.2fx, want >= 2x",
			cluMs, seqMs, seqMs/cluMs)
	}
	if rmiMs/cluMs < 4 {
		t.Errorf("cluster flush %.2fms vs RMI %.2fms: %.2fx, want >= 4x",
			cluMs, rmiMs, rmiMs/cluMs)
	}
}

func TestFanoutSingleServer(t *testing.T) {
	// K=1 degenerate case: all three variants still work; both batched
	// variants take exactly one round trip.
	cfg := Config{Profile: netsim.Instant, Warmup: 0, Reps: 1}
	table, err := RunFanout(cfg, 8, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrips(t, table, 1, []uint64{8, 1, 1})
}

func tableCell(t *testing.T, table *Table, x, col int) Cell {
	t.Helper()
	for _, row := range table.Rows {
		if row.X == x {
			return row.Cells[col]
		}
	}
	t.Fatalf("no row x=%d", x)
	return Cell{}
}

func TestMeasureStats(t *testing.T) {
	n := 0
	stats, err := Measure(2, 10, func() error {
		n++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Errorf("op ran %d times, want 12 (2 warmup + 10 reps)", n)
	}
	if stats.N != 10 {
		t.Errorf("stats.N = %d", stats.N)
	}
	if stats.Mean < time.Millisecond {
		t.Errorf("mean %v < sleep duration", stats.Mean)
	}
	if stats.Min > stats.P50 || stats.P50 > stats.P95 || stats.P95 > stats.Max {
		t.Errorf("percentile ordering broken: %+v", stats)
	}
}

func TestPrintAndCSV(t *testing.T) {
	table := &Table{
		Fig: "Fig. X", Title: "T", XLabel: "calls", Profile: "lan",
		Columns: []string{"RMI", "BRMI"},
		Rows: []Row{
			{X: 1, Cells: []Cell{{S: Stats{Mean: 2 * time.Millisecond}, Calls: 1}, {S: Stats{Mean: 2 * time.Millisecond}, Calls: 1}}},
			{X: 5, Cells: []Cell{{S: Stats{Mean: 10 * time.Millisecond}, Calls: 5}, {S: Stats{Mean: 2 * time.Millisecond}, Calls: 1}}},
		},
	}
	var buf bytes.Buffer
	table.Print(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. X", "RMI ms", "BRMI ms", "10.000", "grows 5.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Print output missing %q in:\n%s", want, out)
		}
	}
	buf.Reset()
	table.CSV(&buf)
	if !strings.Contains(buf.String(), "calls,RMI_ms,RMI_std_ms,RMI_roundtrips,BRMI_ms") {
		t.Errorf("CSV header wrong:\n%s", buf.String())
	}
	if _, err := table.SpeedupAt(99, 1); err == nil {
		t.Error("SpeedupAt on missing row succeeded")
	}
}

func TestBuildList(t *testing.T) {
	head := BuildList(3)
	vals := []int{}
	for n := head; n != nil; n = n.Next() {
		vals = append(vals, n.GetValue())
	}
	if len(vals) != 3 || vals[0] != 0 || vals[2] != 2 {
		t.Fatalf("list values %v", vals)
	}
	if BuildList(0) != nil {
		t.Fatal("empty list not nil")
	}
}

func TestNewFileServer(t *testing.T) {
	fs := NewFileServer(4, 1000)
	if len(fs.ListFiles()) != 4 {
		t.Fatalf("files = %d", len(fs.ListFiles()))
	}
	var total int64
	for _, f := range fs.ListFiles() {
		total += f.Length()
		if f.GetName() == "" || f.IsDirectory() {
			t.Errorf("bad file %+v", f)
		}
		if f.LastModified() == 0 {
			t.Error("zero mtime")
		}
		if len(f.Contents()) != int(f.Length()) {
			t.Error("length mismatch")
		}
	}
	if total != 1000 {
		t.Errorf("total bytes = %d, want 1000", total)
	}
	if got := NewFileServer(0, 100); len(got.ListFiles()) != 0 {
		t.Error("zero files not empty")
	}
}

// TestPipelineShape is the acceptance check of staged cross-server
// dataflow: at depth 2 over 4 servers, the staged cluster flush costs 3
// parallel round-trip waves (the variant itself asserts Waves == depth+1),
// so it must be well ahead of the manual two-phase approach's sequential
// per-server flushes and of per-call RMI.
func TestPipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	cfg := Config{Profile: netsim.WAN.Scaled(10), Warmup: 1, Reps: 3}
	table, err := RunPipeline(cfg, 4, 8, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Round trips: RMI one per hop per chain (8*3); both batched variants
	// one per server per level (4*3).
	assertRoundTrips(t, table, 2, []uint64{24, 12, 12})
	rmiMs := tableCell(t, table, 2, 0).S.Millis()
	twoMs := tableCell(t, table, 2, 1).S.Millis()
	stagedMs := tableCell(t, table, 2, 2).S.Millis()
	if stagedMs <= 0 {
		t.Fatal("staged variant measured zero time")
	}
	if twoMs/stagedMs < 2 {
		t.Errorf("staged flush %.2fms vs two-phase %.2fms: %.2fx, want >= 2x",
			stagedMs, twoMs, twoMs/stagedMs)
	}
	if rmiMs/stagedMs < 4 {
		t.Errorf("staged flush %.2fms vs RMI %.2fms: %.2fx, want >= 4x",
			stagedMs, rmiMs, rmiMs/stagedMs)
	}
}

// TestPipelineDegenerate: depth 0 (no cross-server dataflow) is the plain
// fan-out case — the staged variant must plan a single wave and all
// variants must agree on results.
func TestPipelineDegenerate(t *testing.T) {
	cfg := Config{Profile: netsim.Instant, Warmup: 0, Reps: 1}
	table, err := RunPipeline(cfg, 2, 4, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrips(t, table, 0, []uint64{4, 2, 2})
}

// TestRebalanceShape pins the live re-sharding acceptance criterion: at 64
// objects moved during a scale-out, BRMI-batched migration must beat
// per-object migration by at least 2x (the committed BENCH_rebalance.json
// series shows ~12x on the WAN profile).
func TestRebalanceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow shape test; skipped in -short")
	}
	cfg := Config{Profile: netsim.WAN.Scaled(10), Warmup: 0, Reps: 3}
	table, err := RunRebalance(cfg, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	perObj := tableCell(t, table, 64, 0)
	batched := tableCell(t, table, 64, 1)
	if batched.S.Millis() <= 0 {
		t.Fatal("batched migration measured zero time")
	}
	if ratio := perObj.S.Millis() / batched.S.Millis(); ratio < 2 {
		t.Errorf("batched migration %.2fms vs per-object %.2fms: %.2fx, want >= 2x",
			batched.S.Millis(), perObj.S.Millis(), ratio)
	}
	// Round trips: per-object pays ~3 per moved object; batched pays a
	// small constant (plan + one batch per direction per pair + broadcast).
	if perObj.Calls <= batched.Calls*4 {
		t.Errorf("round trips: per-object %d vs batched %d, want per-object >> batched",
			perObj.Calls, batched.Calls)
	}
}

// TestRebalanceTiny: the smallest scale-out moves its objects correctly in
// both migration modes (correctness is asserted inside RunRebalance's
// verification run).
func TestRebalanceTiny(t *testing.T) {
	cfg := Config{Profile: netsim.Instant, Warmup: 0, Reps: 1}
	table, err := RunRebalance(cfg, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 1 || len(table.Rows[0].Cells) != 2 {
		t.Fatalf("unexpected table shape: %+v", table)
	}
}

// TestRebalanceRoundTrips pins the figure's deterministic half to the
// committed BENCH_rebalance.json: a batched scale-out costs 11 control round
// trips (ring refresh and broadcast, manifests) plus 3 per migration flow —
// two flows at 4 objects, three from 16 on — whatever K is, and the
// per-object baseline costs the same 11 plus 3 per object.
func TestRebalanceRoundTrips(t *testing.T) {
	cfg := Config{Profile: netsim.Instant, Warmup: 0, Reps: 1}
	table, err := RunRebalance(cfg, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrips(t, table, 4, []uint64{23, 17})
	assertRoundTrips(t, table, 16, []uint64{59, 20})
	assertRoundTrips(t, table, 64, []uint64{203, 20})
}

// TestHotPathAllocBudget pins the allocation cost of the flush hot path:
// mixed-size flushes (1, 4, 16, 64 calls) of a marshal-heavy Echo over four
// servers on the instant network, client and server sharing the heap. The
// stack before compiled codecs, pooled buffers and skeleton dispatch cost
// ~29.5 allocations per call, today's ~14; the budget leaves headroom for
// environment noise. brmibench's echo_flush reports the precise figure.
func TestHotPathAllocBudget(t *testing.T) {
	env, err := NewClusterEnv(netsim.Instant, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	payload := Payload{ID: 1, Name: "hot-path-object-with-a-realistic-name", Data: make([]byte, 64), Elapsed: time.Millisecond}
	sizes := [...]int{1, 4, 16, 64}
	run := func(flushes int) (calls int) {
		for n := 0; n < flushes; n++ {
			size := sizes[n%len(sizes)]
			b := core.New(env.Client, env.EchoRefs[n%len(env.EchoRefs)])
			root := b.Root()
			var last *core.Future
			for i := 0; i < size; i++ {
				payload.Seq = uint64(i)
				last = root.Call("Echo", payload)
			}
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := last.Err(); err != nil {
				t.Fatal(err)
			}
			calls += size
		}
		return calls
	}
	run(100) // warm up: connection pools, type registries, codec caches
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := run(400)
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / float64(calls)
	t.Logf("%.1f allocs per call", perCall)
	if perCall > 22 {
		t.Fatalf("allocs per call regressed: %.1f (budget 22)", perCall)
	}
}
