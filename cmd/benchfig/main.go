// Command benchfig regenerates the paper's evaluation: every figure of
// §5.2-§5.4 (Figures 5-13), the ablations called out in DESIGN.md, and the
// cluster fan-out benchmark, in the same rows/series layout the paper plots.
//
// Usage:
//
//	benchfig -all                  # every figure and ablation
//	benchfig -fig 5 -fig 12        # selected figures
//	benchfig -fig a1               # ablations (a1, a2, a3)
//	benchfig -list                 # every figure id with its description
//	benchfig -fig cluster          # multi-server fan-out (internal/cluster)
//	benchfig -fig pipeline         # staged cross-server dataflow (internal/cluster)
//	benchfig -fig rebalance        # live re-sharding during scale-out (internal/cluster)
//	benchfig -scale 1 -reps 10     # full-fidelity wireless latency (slow)
//	benchfig -csv out/             # additionally write CSV per figure
//	benchfig -json out/            # additionally write BENCH_<fig>.json series
//
// Absolute milliseconds depend on the simulated-link scale (-scale divides
// the wireless RTT; see netsim.Profile.Scaled); shapes are scale-invariant.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/netsim"
)

type figSpec struct {
	id   string
	run  func(cfg config) (*bench.Table, error)
	note string
}

type config struct {
	lan      bench.Config
	wireless bench.Config
	wan      bench.Config
	instant  bench.Config
}

var figures = []figSpec{
	{"5", func(c config) (*bench.Table, error) { return bench.RunNoop(c.lan, seq(1, 5)) },
		"no-op micro benchmark, LAN"},
	{"6", func(c config) (*bench.Table, error) { return bench.RunNoop(c.wireless, seq(1, 5)) },
		"no-op micro benchmark, wireless"},
	{"7", func(c config) (*bench.Table, error) { return bench.RunList(c.lan, seq(1, 5)) },
		"linked list traversal, LAN"},
	{"8", func(c config) (*bench.Table, error) { return bench.RunList(c.wireless, seq(1, 5)) },
		"linked list traversal, wireless"},
	{"9", func(c config) (*bench.Table, error) { return bench.RunListNoBatch(c.lan, seq(1, 5)) },
		"linked list traversal with batches of size 1, LAN"},
	{"10", func(c config) (*bench.Table, error) { return bench.RunSimulation(c.lan, steps()) },
		"remote simulation, LAN"},
	{"11", func(c config) (*bench.Table, error) { return bench.RunSimulation(c.wireless, steps()) },
		"remote simulation, wireless"},
	{"12", func(c config) (*bench.Table, error) { return bench.RunFileServer(c.lan, seq(1, 10)) },
		"remote file server macro benchmark, LAN"},
	{"13", func(c config) (*bench.Table, error) { return bench.RunFileServer(c.wireless, seq(1, 10)) },
		"remote file server macro benchmark, wireless"},
	{"a1", func(c config) (*bench.Table, error) { return bench.RunAblationIdentity(c.lan, []int{5, 10, 20, 40}) },
		"ablation: reference identity (RMI vs RMI+shortcut vs BRMI)"},
	{"a2", func(c config) (*bench.Table, error) {
		return bench.RunAblationStubs(c.instant, []int{10, 100, 1000})
	}, "ablation: dynamic vs generated stub recording overhead"},
	{"a3", func(c config) (*bench.Table, error) {
		return bench.RunAblationBatchSize(c.lan, 40, []int{1, 2, 4, 8, 20, 40})
	},
		"ablation: flush granularity"},
	{"cluster", func(c config) (*bench.Table, error) {
		return bench.RunFanout(c.wan, 64, []int{1, 2, 4, 8})
	},
		"cluster fan-out: 64 calls over K servers, WAN (internal/cluster)"},
	{"pipeline", func(c config) (*bench.Table, error) {
		return bench.RunPipeline(c.wan, 4, 16, []int{1, 2, 3, 4})
	},
		"staged cross-server pipeline: 16 chains of depth D over 4 servers, WAN (internal/cluster)"},
	{"rebalance", func(c config) (*bench.Table, error) {
		return bench.RunRebalance(c.wan, []int{4, 16, 64})
	},
		"live re-sharding: scale-out 3 -> 4 servers, batched vs per-object migration, WAN (internal/cluster)"},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

type figList []string

func (f *figList) String() string { return strings.Join(*f, ",") }
func (f *figList) Set(v string) error {
	*f = append(*f, strings.ToLower(strings.TrimSpace(v)))
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	var figs figList
	fs.Var(&figs, "fig", "figure to run: "+figIDs()+" (repeatable)")
	all := fs.Bool("all", false, "run every figure and ablation")
	scale := fs.Int("scale", 20, "wireless latency scale divisor (1 = paper-faithful 252 ms RTT, slow)")
	reps := fs.Int("reps", 5, "measured repetitions per point")
	warmup := fs.Int("warmup", 1, "warm-up runs per point")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV files")
	jsonDir := fs.String("json", "", "directory to write per-figure BENCH_<fig>.json series")
	list := fs.Bool("list", false, "list available figures and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, f := range figures {
			fmt.Printf("%-4s %s\n", f.id, f.note)
		}
		return nil
	}
	if *all {
		figs = nil
		for _, f := range figures {
			figs = append(figs, f.id)
		}
	}
	if len(figs) == 0 {
		return fmt.Errorf("nothing to run: pass -all or -fig N (see -list)")
	}

	cfg := config{
		lan:      bench.Config{Profile: netsim.LAN, Warmup: *warmup, Reps: *reps},
		wireless: bench.Config{Profile: netsim.Wireless.Scaled(*scale), Warmup: *warmup, Reps: *reps},
		wan:      bench.Config{Profile: netsim.WAN.Scaled(*scale), Warmup: *warmup, Reps: *reps},
		instant:  bench.Config{Profile: netsim.Instant, Warmup: *warmup + 1, Reps: *reps + 5},
	}

	fmt.Printf("BRMI evaluation reproduction — profiles: %s (RTT %v), %s (RTT %v)\n",
		cfg.lan.Profile.Name, cfg.lan.Profile.RTT,
		cfg.wireless.Profile.Name, cfg.wireless.Profile.RTT)
	if *scale > 1 {
		fmt.Printf("note: wireless latency scaled down %dx (shape-preserving); -scale 1 for paper-faithful timing\n", *scale)
	}
	fmt.Println()

	for _, id := range figs {
		spec, ok := findFig(id)
		if !ok {
			return fmt.Errorf("unknown figure %q (see -list)", id)
		}
		table, err := spec.run(cfg)
		if err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
		table.Print(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, table); err != nil {
				return err
			}
		}
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, id, table); err != nil {
				return err
			}
		}
	}
	return nil
}

// figIDs lists the ids of the figures table, for the -fig help.
func figIDs() string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return strings.Join(ids, ", ")
}

func findFig(id string) (figSpec, bool) {
	for _, f := range figures {
		if f.id == id {
			return f, true
		}
	}
	return figSpec{}, false
}

func writeCSV(dir, id string, table *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "fig"+id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	table.CSV(f)
	return f.Close()
}

// writeJSON emits the machine-readable series file (BENCH_<fig>.json) used
// to track perf trajectories across PRs, e.g. BENCH_cluster.json for the
// fan-out figure.
func writeJSON(dir, id string, table *bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+id+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := table.JSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// seq returns lo..hi inclusive.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// steps returns the paper's 5..40 step-5 x-axis for the simulation figures.
func steps() []int {
	return []int{5, 10, 15, 20, 25, 30, 35, 40}
}
