package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// testConfig is a real run shrunk to one short round.
func testConfig() runConfig {
	return runConfig{seed: 1, round: 100 * time.Millisecond, warmup: 30 * time.Millisecond,
		rounds: 1, traced: 1, setups: 1, probe: 10 * time.Millisecond}
}

// TestWorkloadsAndMetricNames runs every workload plain and traced and
// holds the emitted metric names to BENCHMARK.json in both directions.
func TestWorkloadsAndMetricNames(t *testing.T) {
	sp := mustSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	layerSeen := map[string]bool{}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, sp.Workloads[i].Name, w.name)
		}
		plain, err := runPlain(w, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(w, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*workloadResult{plain, traced} {
			if res.Failed != 0 || res.Ops == 0 {
				t.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Ops, res.FirstError)
			}
			if err := setUnits(sp, res); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
		if v := plain.EndToEnd[failedOpsRatio].Value; v != 0 {
			t.Errorf("%s: %s = %v", w.name, failedOpsRatio, v)
		}
		// Every end-to-end metric emitted is declared in BENCHMARK.json or in
		// printedOnly, and every declared one is emitted.
		declared := slices.Concat(sp.EndToEnd, printedOnly)
		for _, decl := range declared {
			if _, ok := plain.EndToEnd[decl.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s declared but not emitted", w.name, decl.Name)
			}
		}
		if len(plain.EndToEnd) != len(declared) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", w.name, len(plain.EndToEnd), len(declared))
		}
		for name := range traced.Layers {
			layerSeen[name] = true
		}
		if n := len(contractLine(sp, plain, false).Metrics); n != len(sp.EndToEnd) {
			t.Errorf("%s: plain result line has %d metrics, want %d", w.name, n, len(sp.EndToEnd))
		}
		if n := len(contractLine(sp, traced, true).Metrics); n != len(sp.PerLayer) {
			t.Errorf("%s: traced result line has %d metrics, want %d", w.name, n, len(sp.PerLayer))
		}

		// The layer split's cross-checks.
		if got := traced.Layers["core.calls_executed_per_acked"]; w.name != "getbatch_scan" && got.Value != 1 {
			t.Errorf("%s: core.calls_executed_per_acked = %v, want 1 (at-most-once)", w.name, got.Value)
		}
		_, hasCluster := traced.Layers["cluster.flush_waves_per_op"]
		_, hasCache := traced.Layers["rcache.hit_ratio"]
		if hasCluster != (w.name != "echo_flush") || hasCache != w.deploy.cache {
			t.Errorf("%s: cluster metrics present %v, rcache metrics present %v", w.name, hasCluster, hasCache)
		}
		execs := traced.Layers["app.execs_per_acked_call"].Value
		switch {
		case w.deploy.replicas > 1 && execs < 2.5:
			t.Errorf("%s: app.execs_per_acked_call = %v, want about 3 (primary and two shadows)", w.name, execs)
		case w.deploy.replicas <= 1 && !w.deploy.cache && execs != 1:
			t.Errorf("%s: app.execs_per_acked_call = %v, want 1", w.name, execs)
		}
	}
	for _, decl := range sp.PerLayer {
		if !layerSeen[decl.Name] {
			t.Errorf("per-layer metric %s declared but emitted by no workload", decl.Name)
		}
	}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer, printedOnly} {
		for _, decl := range list {
			if !valid.MatchString(decl.Name) {
				t.Errorf("metric name %q", decl.Name)
			}
		}
	}
	for name, on := range unjudged {
		if _, ok := sp.metric(name); !ok {
			t.Errorf("unjudged names %s, which nothing declares", name)
		}
		for _, wl := range on {
			if workloadByName(wl) == nil {
				t.Errorf("unjudged[%s] names unknown workload %s", name, wl)
			}
		}
	}
}

// TestOpStreamIsAFunctionOfTheSeed: same seed, same ops; another seed,
// other ops.
func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := streamHash(w, 7, 1000), streamHash(w, 7, 1000), streamHash(w, 8, 1000)
		if a != b {
			t.Errorf("%s: seed 7 generated two different op streams", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same op stream", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, med, q3 := quartiles([]float64{16, 1, 4, 2, 8})
	if q1 != 1.5 || med != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := specMetric{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01, Rounds: []float64{v * 0.99, v, v * 1.01}}
	}
	if s := verdict(m, steady(100), steady(105)); s != "ok" {
		t.Errorf("5%% worse inside a 10%% bound: %s", s)
	}
	if s := verdict(m, steady(100), steady(115)); s != "REGRESSION" {
		t.Errorf("15%% worse: %s", s)
	}
	noisy := metricValue{Value: 100, Q1: 90, Q3: 112, Rounds: []float64{88, 100, 115}}
	if s := verdict(m, noisy, steady(101)); s != "unresolved" {
		t.Errorf("spread wider than the bound: %s", s)
	}
	if s := verdict(m, noisy, steady(50)); s != "ok" {
		t.Errorf("every new round beats every old round: %s", s)
	}
	higher := specMetric{Name: "goodput_calls_per_s", Better: "higher", Bound: 0.10}
	if s := verdict(higher, steady(100), steady(85)); s != "REGRESSION" {
		t.Errorf("15%% less goodput: %s", s)
	}
}

// TestCompareDocs: what -compare must and must not flag.
func TestCompareDocs(t *testing.T) {
	sp := mustSpec(t)
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Q1: v * 0.99, Q3: v * 1.01, Rounds: []float64{v * 0.99, v, v * 1.01}}
	}
	build := func(edit func(doc *document)) string {
		doc := &document{Workloads: map[string]*workloadResult{}}
		for _, name := range []string{"echo_flush", "cluster_dataflow"} {
			doc.Workloads[name] = &workloadResult{Ops: 1000, EndToEnd: map[string]metricValue{
				"goodput_calls_per_s": steady(1000), "allocs_per_call": steady(12), "setup_s": steady(0.1)}}
		}
		edit(doc)
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := build(func(*document) {})
	for name, tc := range map[string]struct {
		edit func(doc *document)
		bad  bool
	}{
		"the same document": {func(*document) {}, false},
		"a count 3 % worse": {func(d *document) { d.Workloads["echo_flush"].EndToEnd["allocs_per_call"] = steady(12.36) }, true},
		"goodput 30 % down on a judged pair": {func(d *document) {
			d.Workloads["cluster_dataflow"].EndToEnd["goodput_calls_per_s"] = steady(700)
		}, true},
		"goodput 30 % down on an unjudged pair": {func(d *document) {
			d.Workloads["echo_flush"].EndToEnd["goodput_calls_per_s"] = steady(700)
		}, false},
		"one op failed, in no round's median": {func(d *document) { d.Workloads["echo_flush"].Failed = 1 }, true},
		"a workload missing":                  {func(d *document) { delete(d.Workloads, "cluster_dataflow") }, true},
		"a metric missing":                    {func(d *document) { delete(d.Workloads["echo_flush"].EndToEnd, "setup_s") }, true},
	} {
		err := compareDocs(io.Discard, sp, old, build(tc.edit))
		if (err != nil) != tc.bad {
			t.Errorf("%s: compare returned %v", name, err)
		}
	}
}
