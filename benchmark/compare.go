package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

func readDoc(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// verdict judges one (workload, metric) pair by how far the new value moved
// in the metric's bad direction, as a share of the old value.
//
//	REGRESSION  worse by more than the bound
//	ungated     the pair is in unjudged: printed, never a regression
//	unresolved  not a regression, but a side's quartile spread is wider than
//	            the bound, so "unchanged" cannot be told from a change of
//	            bound size -- unless every new round beats every old round
//	ok          otherwise
func verdict(m specMetric, old, cur metricValue) string {
	lower := m.Better == "lower"
	var worse float64
	if old.Value != 0 {
		worse = (cur.Value - old.Value) / old.Value
		if !lower {
			worse = -worse
		}
	}
	if worse > m.Bound {
		return "REGRESSION"
	}
	spread := func(v metricValue) float64 {
		if v.Value == 0 {
			return 0
		}
		return (v.Q3 - v.Q1) / v.Value
	}
	if max(spread(old), spread(cur)) > m.Bound && len(old.Rounds) > 0 && len(cur.Rounds) > 0 {
		allBetter := slices.Max(cur.Rounds) < slices.Min(old.Rounds)
		if !lower {
			allBetter = slices.Min(cur.Rounds) > slices.Max(old.Rounds)
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}

// failedRatio is failed ops over ops attempted, over the whole run: warm-up,
// every round and the end-of-run check (which counts as one failed op).
func (r *workloadResult) failedRatio() float64 {
	return float64(r.Failed) / float64(max(r.Ops, 1))
}

// compareDocs prints one row per (workload, end-to-end metric) of the old
// document and returns an error if any judged metric regressed past its bound, any
// workload's share of failed ops rose, or the new document lacks a workload
// or metric the old one has.
func compareDocs(w io.Writer, sp *spec, oldPath, newPath string) error {
	old, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	cur, err := readDoc(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "old: %s commit %s seed %d    new: %s commit %s seed %d\n",
		oldPath, old.Env.Commit, old.Env.Seed, newPath, cur.Env.Commit, cur.Env.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told value\told q1..q3\tnew value\tnew q1..q3\tnew/old\tbound\tverdict\t")
	var bad []string
	for _, name := range names {
		o, c := old.Workloads[name], cur.Workloads[name]
		if c == nil {
			fmt.Fprintf(tw, "%s\t\t\t\t\t\t\t\t\tMISSING\t\n", name)
			bad = append(bad, name)
			continue
		}
		for _, m := range slices.Concat(sp.EndToEnd, printedOnly) {
			ov, ok := o.EndToEnd[m.Name]
			if !ok || m.Name == failedOpsRatio {
				continue
			}
			cv, ok := c.EndToEnd[m.Name]
			if !ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t\t\t\t\tMISSING\t\n", name, m.Name, m.Unit, ov.Value, ov.Q1, ov.Q3)
				bad = append(bad, name+"/"+m.Name)
				continue
			}
			status := verdict(m, ov, cv)
			if slices.Contains(unjudged[m.Name], name) {
				status = "ungated"
			}
			ratio := "-"
			if ov.Value != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g", cv.Value/ov.Value, ov.Value)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%s\t%.0f%% %s\t%s\t\n",
				name, m.Name, m.Unit, ov.Value, ov.Q1, ov.Q3, cv.Value, cv.Q1, cv.Q3, ratio, m.Bound*100, m.Better, status)
			if status == "REGRESSION" {
				bad = append(bad, name+"/"+m.Name)
			}
		}
		of, cf := o.failedRatio(), c.failedRatio()
		status := "ok"
		if cf > of {
			status = "REGRESSION"
			bad = append(bad, name+"/"+failedOpsRatio)
		}
		fmt.Fprintf(tw, "%s\t%s\tratio\t%.4g\t\t%.4g\t\t-\tno rise\t%s\t\n", name, failedOpsRatio, of, cf, status)
	}
	tw.Flush()
	if len(bad) > 0 {
		return errors.New("regressed: " + fmt.Sprint(bad))
	}
	return nil
}
