package bench

import (
	"bytes"
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
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

// callCounts runs op once and reports the remote calls it cost: the client's
// round trips, and the server's own outgoing calls — loopback calls through
// stubs of objects it exports, since the environment has no other server.
func callCounts(t *testing.T, env *Env, op func() error) (client, server uint64) {
	t.Helper()
	c, s := env.Client.CallCount(), env.Server.CallCount()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return env.Client.CallCount() - c, env.Server.CallCount() - s
}

// simulationCounts runs every variant of the simulation workload once at
// the given step count on the instant network, returning per variant the
// client's round trips and the server's loopback calls.
func simulationCounts(t *testing.T, steps int, opts ...EnvOption) (client, loopback []uint64) {
	t.Helper()
	env, err := NewEnv(netsim.Instant, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	variants, err := SimulationSetup(env, steps)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		c, s := callCounts(t, env, v.Op)
		client, loopback = append(client, c), append(loopback, s)
	}
	return client, loopback
}

// TestSimulationShape pins the cause of Figures 10-11: both variants pay the
// same round trips — create, one flush per step, the result fetch — so the
// gap is the server's own calls. Under RMI each step's balancer arrives as a
// stub of the server's own object and every Balance is a loopback call;
// BRMI hands the step the object itself (§4.4).
func TestSimulationShape(t *testing.T) {
	const steps = 6
	client, loopback := simulationCounts(t, steps)
	if want := []uint64{steps + 2, steps + 2}; !slices.Equal(client, want) {
		t.Errorf("client round trips (RMI, BRMI) = %v, want %v", client, want)
	}
	if want := []uint64{steps * SimulationReps, 0}; !slices.Equal(loopback, want) {
		t.Errorf("server loopback calls (RMI, BRMI) = %v, want %v", loopback, want)
	}
}

// TestFileServerShape pins Figures 12-13's mechanism: RMI pays one list call
// plus five calls per file, BRMI one batch with a cursor.
func TestFileServerShape(t *testing.T) {
	table, err := RunFileServer(Config{Profile: netsim.Instant, Reps: 1}, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	assertRoundTrips(t, table, 1, []uint64{6, 1})
	assertRoundTrips(t, table, 4, []uint64{21, 1})
}

// TestAblationIdentityShape pins ablation a1: resolving a returning ref to
// the local object (rmi.WithLocalShortcut, what Java RMI chose not to do)
// removes exactly the loopback calls BRMI's identity preservation never
// makes, at the same round trips.
func TestAblationIdentityShape(t *testing.T) {
	const steps = 6
	client, loopback := simulationCounts(t, steps)
	shortcutClient, shortcutLoopback := simulationCounts(t, steps, WithServerOptions(rmi.WithLocalShortcut()))
	if got, want := []uint64{client[0], shortcutClient[0], client[1]}, []uint64{steps + 2, steps + 2, steps + 2}; !slices.Equal(got, want) {
		t.Errorf("client round trips (RMI, RMI+shortcut, BRMI) = %v, want %v", got, want)
	}
	if got, want := []uint64{loopback[0], shortcutLoopback[0], loopback[1]}, []uint64{steps * SimulationReps, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("server loopback calls (RMI, RMI+shortcut, BRMI) = %v, want %v", got, want)
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

// TestHotPathAllocBudget pins the allocation cost of the flush hot path:
// mixed-size flushes (1, 4, 16, 64 calls) of a marshal-heavy Echo over four
// exported objects on the instant network, client and server sharing the
// heap. The stack before compiled codecs, pooled buffers and skeleton
// dispatch cost ~29.5 allocations per call, today's ~14; the budget leaves
// headroom for environment noise. brmibench's echo_flush reports the precise
// figure.
func TestHotPathAllocBudget(t *testing.T) {
	env, err := NewEnv(netsim.Instant)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	refs := make([]wire.Ref, 4)
	for i := range refs {
		if refs[i], err = env.Export(&EchoService{}, "bench.Echo"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	payload := Payload{ID: 1, Name: "hot-path-object-with-a-realistic-name", Data: make([]byte, 64), Elapsed: time.Millisecond}
	sizes := [...]int{1, 4, 16, 64}
	run := func(flushes int) (calls int) {
		for n := 0; n < flushes; n++ {
			size := sizes[n%len(sizes)]
			b := core.New(env.Client, refs[n%len(refs)])
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
