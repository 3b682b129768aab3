// Command benchmark (brmibench) is the repository's one benchmark: five
// closed-loop workloads against an in-process 4-server deployment on
// internal/netsim, ten end-to-end metrics, and a traced run that splits the
// same workloads by layer. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir is where run.sh puts the binary and Go's build cache; the root
// .gitignore names it.
const buildDir = ".bench_build"

const linksNote = "simulated in memory by internal/netsim, not a real link or loopback " +
	"(lan = 1 ms RTT, 1 Gbps; instant = no delay); client and servers share one process, heap and CPU budget"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "brmibench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("brmibench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all (one process each)")
	seed := fs.Int64("seed", 1, "seed of the generated op streams")
	seconds := fs.Float64("seconds", 20, "measured seconds of a plain run, split over its 5 rounds")
	trace := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "traced run: write the spans here as one JSON array")
	out := fs.String("out", "", "also write the result document here")
	specPath := fs.String("spec", "BENCHMARK.json", "metric declarations (units, directions, bounds)")
	compare := fs.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result documents: old.json new.json")
		}
		return compareDocs(os.Stdout, sp, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	cfg := newRunConfig(*seed, *seconds)
	cfg.traceOut = *traceOut
	traced := *trace != 0
	doc := &document{
		Env: envBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Seed: *seed, Clients: numClients, Seconds: *seconds, Traced: traced, Links: linksNote},
		Workloads: map[string]*workloadResult{},
	}

	if *name == "all" {
		// A run with failed ops still writes its document, so that -compare
		// has something to flag, and then exits non-zero.
		failed, err := runAll(doc, *specPath, *traceOut)
		if err != nil {
			return err
		}
		if err := emit(sp, doc, *out); err != nil {
			return err
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			return err
		}
		if len(failed) > 0 {
			return fmt.Errorf("failed ops on %s", strings.Join(failed, ", "))
		}
		return nil
	}

	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	var res *workloadResult
	if traced {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runPlain(w, cfg)
	}
	if err != nil {
		return err
	}
	if err := setUnits(sp, res); err != nil {
		return err
	}
	doc.Workloads[w.name] = res
	if err := emit(sp, doc, *out); err != nil {
		return err
	}
	line, err := json.Marshal(contractLine(sp, res, traced))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %s", w.name, res.Failed, res.Ops, res.FirstError)
	}
	return nil
}

// emit prints the table on stderr and writes the document to path, if any.
func emit(sp *spec, doc *document, path string) error {
	printTable(os.Stderr, sp, doc)
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll re-executes this binary once per workload, so no workload inherits
// another's heap, pools or goroutines, and merges their documents. Each
// traced child writes its own span file, <traceOut stem>.<workload><ext>.
// It returns the workloads that had failed ops.
func runAll(doc *document, specPath, traceOut string) (failed []string, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The children's documents pass through files beside the built binary
	// (run.sh) or the directory the command was started in.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "parts-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for _, w := range workloads {
		part := filepath.Join(dir, w.name+".json")
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(doc.Env.Seed), "-seconds", fmt.Sprint(doc.Env.Seconds),
			"-spec", specPath, "-out", part}
		if doc.Env.Traced {
			args = append(args, "-trace", "1")
			if ext := filepath.Ext(traceOut); traceOut != "" {
				args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ext)+"."+w.name+ext)
			}
		}
		cmd := exec.Command(self, args...)
		var childErr bytes.Buffer
		cmd.Stderr = &childErr
		runErr := cmd.Run()
		data, err := os.ReadFile(part)
		if err != nil {
			return nil, fmt.Errorf("%s: %v\n%s", w.name, runErr, childErr.String())
		}
		var one document
		if err := json.Unmarshal(data, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads[w.name] = one.Workloads[w.name]
		if runErr != nil {
			failed = append(failed, w.name)
		}
	}
	return failed, nil
}

// setUnits gives every reported metric its declared unit, and refuses a
// metric that neither BENCHMARK.json nor printedOnly declares.
func setUnits(sp *spec, res *workloadResult) error {
	for _, set := range []map[string]metricValue{res.EndToEnd, res.Layers} {
		for name, m := range set {
			decl, ok := sp.metric(name)
			if !ok {
				return fmt.Errorf("metric %s is declared neither in BENCHMARK.json nor in printedOnly", name)
			}
			m.Unit = decl.Unit
			set[name] = m
		}
	}
	return nil
}

// resultLine is the one JSON object a single-workload run prints last on
// stdout.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine carries every end_to_end metric of BENCHMARK.json (not the
// printed-only ones) for a plain run, every per_layer metric for a traced
// one. A layer the workload never enters reads 0 here (the document and
// table leave it out instead).
func contractLine(sp *spec, res *workloadResult, traced bool) resultLine {
	decls, set := sp.EndToEnd, res.EndToEnd
	if traced {
		decls, set = sp.PerLayer, res.Layers
	}
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Ops, Failed: res.Failed,
		Metrics: make(map[string]lineValue, len(decls))}
	for _, decl := range decls {
		line.Metrics[decl.Name] = lineValue{Value: set[decl.Name].Value, Unit: decl.Unit}
	}
	return line
}

// commit is the checkout's HEAD when the working directory is the root of
// a git checkout, else "unknown".
func commit() string {
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil || strings.TrimSpace(string(top)) != wd {
		return "unknown"
	}
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(head))
}
