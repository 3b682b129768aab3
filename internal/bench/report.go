package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Print renders a table in the paper's figure layout: one row per
// x-position, one latency column (ms) plus round-trip count per variant.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s (%s network)\n", t.Fig, t.Title, t.Profile)
	header := fmt.Sprintf("%-14s", t.XLabel)
	for _, c := range t.Columns {
		header += fmt.Sprintf(" | %12s %9s %6s", c+" ms", "±std", "rt")
	}
	fmt.Fprintln(w, header)
	fmt.Fprintln(w, strings.Repeat("-", len(header)))
	for _, row := range t.Rows {
		line := fmt.Sprintf("%-14d", row.X)
		for _, cell := range row.Cells {
			line += fmt.Sprintf(" | %12.3f %9.3f %6d",
				cell.S.Millis(), float64(cell.S.Std)/1e6, cell.Calls)
		}
		fmt.Fprintln(w, line)
	}
	if summary := t.Shape(); summary != "" {
		fmt.Fprintf(w, "shape: %s\n", summary)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values for plotting.
func (t *Table) CSV(w io.Writer) {
	cols := []string{strings.ReplaceAll(t.XLabel, " ", "_")}
	for _, c := range t.Columns {
		cols = append(cols, c+"_ms", c+"_std_ms", c+"_roundtrips")
	}
	fmt.Fprintf(w, "# %s — %s (%s)\n", t.Fig, t.Title, t.Profile)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, row := range t.Rows {
		fields := []string{fmt.Sprintf("%d", row.X)}
		for _, cell := range row.Cells {
			fields = append(fields,
				fmt.Sprintf("%.4f", cell.S.Millis()),
				fmt.Sprintf("%.4f", float64(cell.S.Std)/1e6),
				fmt.Sprintf("%d", cell.Calls))
		}
		fmt.Fprintln(w, strings.Join(fields, ","))
	}
}

// jsonTable is the machine-readable form of a Table, stable across PRs so
// external tooling can diff benchmark series over time.
type jsonTable struct {
	Fig     string    `json:"fig"`
	Title   string    `json:"title"`
	XLabel  string    `json:"xlabel"`
	Profile string    `json:"profile"`
	Columns []string  `json:"columns"`
	Rows    []jsonRow `json:"rows"`
}

type jsonRow struct {
	X     int        `json:"x"`
	Cells []jsonCell `json:"cells"`
}

type jsonCell struct {
	Ms         float64 `json:"ms"`
	StdMs      float64 `json:"std_ms"`
	P95Ms      float64 `json:"p95_ms"`
	RoundTrips uint64  `json:"roundtrips"`
}

// JSON renders the table as a machine-readable series (one JSON object),
// the format benchfig -json emits.
func (t *Table) JSON(w io.Writer) error {
	jt := jsonTable{
		Fig:     t.Fig,
		Title:   t.Title,
		XLabel:  t.XLabel,
		Profile: t.Profile,
		Columns: t.Columns,
		Rows:    make([]jsonRow, 0, len(t.Rows)),
	}
	for _, row := range t.Rows {
		jr := jsonRow{X: row.X, Cells: make([]jsonCell, 0, len(row.Cells))}
		for _, cell := range row.Cells {
			jr.Cells = append(jr.Cells, jsonCell{
				Ms:         cell.S.Millis(),
				StdMs:      float64(cell.S.Std) / 1e6,
				P95Ms:      float64(cell.S.P95) / 1e6,
				RoundTrips: cell.Calls,
			})
		}
		jt.Rows = append(jt.Rows, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// Shape summarizes the qualitative comparison the paper's figures make:
// per-column growth from first to last x, and who wins at the end. This is
// what EXPERIMENTS.md records as the reproduction criterion.
func (t *Table) Shape() string {
	if len(t.Rows) < 2 || len(t.Columns) < 1 {
		return ""
	}
	first, last := t.Rows[0], t.Rows[len(t.Rows)-1]
	parts := make([]string, 0, len(t.Columns)+1)
	for i, c := range t.Columns {
		f := first.Cells[i].S.Millis()
		l := last.Cells[i].S.Millis()
		growth := "flat"
		if f > 0 {
			switch ratio := l / f; {
			case ratio > 2.0:
				growth = fmt.Sprintf("grows %.1fx", ratio)
			case ratio < 0.5:
				growth = fmt.Sprintf("shrinks %.1fx", 1/ratio)
			}
		}
		parts = append(parts, fmt.Sprintf("%s %s", c, growth))
	}
	if len(t.Columns) >= 2 {
		a := last.Cells[0].S.Millis()
		b := last.Cells[len(t.Columns)-1].S.Millis()
		if b > 0 {
			parts = append(parts, fmt.Sprintf("%s/%s at max x = %.1fx",
				t.Columns[0], t.Columns[len(t.Columns)-1], a/b))
		}
	}
	return strings.Join(parts, "; ")
}

// SpeedupAt returns columns[0] time divided by columns[col] time at the
// given x, for assertions in tests.
func (t *Table) SpeedupAt(x, col int) (float64, error) {
	for _, row := range t.Rows {
		if row.X != x {
			continue
		}
		denom := row.Cells[col].S.Millis()
		if denom == 0 {
			return 0, fmt.Errorf("bench: zero time at x=%d", x)
		}
		return row.Cells[0].S.Millis() / denom, nil
	}
	return 0, fmt.Errorf("bench: no row with x=%d", x)
}
