package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

var update = flag.Bool("update", false, "rewrite BENCH_paper.json from the counts")

// paperPath is the committed series file, at the repository root.
const paperPath = "../../BENCH_paper.json"

// modelText states Counts.Model in the file it prices.
const modelText = "ms = (trips + loopback) * RTT + (bytes_out + bytes_in) * 8 / bandwidth; lan: 1 ms, 1 Gbps; wireless: 252 ms, 48 Mbps (netsim.LAN, netsim.Wireless)"

// figure is one series as BENCH_paper.json holds it.
type figure struct {
	Series   string   `json:"series"`
	Figs     string   `json:"figs"`
	X        string   `json:"x"`
	Variants []string `json:"variants"`
	Rows     []row    `json:"rows"`
}

// row is one x of a series: a cell per variant.
type row struct {
	X     int    `json:"x"`
	Cells []cell `json:"cells"`
}

// cell is one variant's counts at one x, priced by Counts.Model on the
// paper's two links (§5.2).
type cell struct {
	Counts
	LANMs      float64 `json:"lan_ms"`
	WirelessMs float64 `json:"wireless_ms"`
}

func newCell(c Counts) cell {
	return cell{Counts: c, LANMs: ms(c.Model(netsim.LAN)), WirelessMs: ms(c.Model(netsim.Wireless))}
}

// ms is d in milliseconds, rounded to the microsecond.
func ms(d time.Duration) float64 { return math.Round(float64(d)/1e3) / 1e3 }

// claims are the paper's claims, one per series, as code. Every row must
// hold its series' claim before it is compared with the file or written.
var claims = map[string]func(x int, c []Counts) error{
	// Figs. 5-6: RMI pays a round trip per call, BRMI one per batch. A flush
	// is a bare request, so a batch of one costs what the call does plus at
	// most 3 B out (the recorded call's own struct header) and 1 B in (the
	// void call's nil result in its slot).
	"noop": func(n int, c []Counts) error {
		if n == 1 && (c[1].BytesOut > c[0].BytesOut+3 || c[1].BytesIn > c[0].BytesIn+1) {
			return fmt.Errorf("a batch of one carried %d/%d B, the call %d/%d B", c[1].BytesOut, c[1].BytesIn, c[0].BytesOut, c[0].BytesIn)
		}
		return calls(c, []uint64{uint64(n), 1}, nil)
	},
	// Figs. 7-8: RMI pays a trip per Next plus one for GetValue; BRMI keeps
	// the chain on the server.
	"list": func(n int, c []Counts) error { return calls(c, []uint64{uint64(n) + 1, 1}, nil) },
	// Fig. 9: in batches of one both pay a trip per step, but BRMI's replies
	// carry sequence numbers instead of remote objects, and with no call
	// envelope around its requests it sends no more bytes in total either.
	"list-nobatch": func(n int, c []Counts) error {
		if err := calls(c, []uint64{uint64(n) + 1, uint64(n) + 1}, nil); err != nil {
			return err
		}
		if c[1].BytesIn >= c[0].BytesIn {
			return fmt.Errorf("BRMI replies carried %d B, RMI's %d B", c[1].BytesIn, c[0].BytesIn)
		}
		return noMoreBytes(c)
	},
	// Figs. 10-11: the same trips on both sides; under RMI every Balance is
	// a loopback call, BRMI hands the step the object itself (§4.4), and
	// sends the client no more bytes.
	"simulation": func(n int, c []Counts) error {
		trips := uint64(n) + 2
		if err := calls(c, []uint64{trips, trips}, []uint64{uint64(n) * SimulationReps, 0}); err != nil {
			return err
		}
		return noMoreBytes(c)
	},
	// Figs. 12-13: RMI pays 1+5n trips, BRMI one batch with a cursor; both
	// carry the whole 100 KB.
	"fileserver": func(n int, c []Counts) error {
		for _, v := range c {
			if v.BytesIn < FileServerTotalBytes {
				return fmt.Errorf("%d bytes in, less than the %d B of contents", v.BytesIn, FileServerTotalBytes)
			}
		}
		return calls(c, []uint64{1 + 5*uint64(n), 1}, nil)
	},
	// A1: the local shortcut removes exactly the loopback calls BRMI never
	// makes, and nothing the client can see.
	"a1": func(n int, c []Counts) error {
		trips := uint64(n) + 2
		if err := calls(c, []uint64{trips, trips, trips}, []uint64{uint64(n) * SimulationReps, 0, 0}); err != nil {
			return err
		}
		if c[1].BytesOut != c[0].BytesOut || c[1].BytesIn != c[0].BytesIn {
			return fmt.Errorf("RMI+shortcut carried %d/%d B, RMI %d/%d B", c[1].BytesOut, c[1].BytesIn, c[0].BytesOut, c[0].BytesIn)
		}
		return nil
	},
	// A2: the generated layer records exactly what the dynamic API does.
	"a2": func(n int, c []Counts) error {
		if c[1] != c[0] {
			return fmt.Errorf("generated %+v, dynamic %+v", c[1], c[0])
		}
		return calls(c, []uint64{1, 1}, nil)
	},
	// A3: 40 calls flushed every k cost ⌈40/k⌉ trips.
	"a3": func(k int, c []Counts) error {
		return calls(c, []uint64{uint64((BatchSizeCalls + k - 1) / k)}, nil)
	},
}

// noMoreBytes checks that BRMI (c[1]) moved no more client bytes, out and in
// together, than RMI (c[0]).
func noMoreBytes(c []Counts) error {
	if rmi, brmi := c[0].BytesOut+c[0].BytesIn, c[1].BytesOut+c[1].BytesIn; brmi > rmi {
		return fmt.Errorf("BRMI moved %d B, RMI %d B", brmi, rmi)
	}
	return nil
}

// calls checks every variant's round trips and loopback calls (none when
// loopback is nil).
func calls(c []Counts, trips, loopback []uint64) error {
	if loopback == nil {
		loopback = make([]uint64, len(c))
	}
	var gotTrips, gotLoopback []uint64
	for _, v := range c {
		gotTrips, gotLoopback = append(gotTrips, v.Trips), append(gotLoopback, v.Loopback)
	}
	if !slices.Equal(gotTrips, trips) || !slices.Equal(gotLoopback, loopback) {
		return fmt.Errorf("trips %v, loopback %v per variant; want %v, %v", gotTrips, gotLoopback, trips, loopback)
	}
	return nil
}

// TestPaperFigures counts every series at every x of its axis and holds
// each row to its series' claim and to BENCH_paper.json; -v prints the
// series. With -update it rewrites the file instead, once every series ran
// its whole axis and every claim held.
func TestPaperFigures(t *testing.T) {
	committed := map[string]figure{}
	if !*update {
		b, err := os.ReadFile(paperPath)
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Model  string
			Series []figure
		}
		if err := json.Unmarshal(b, &file); err != nil {
			t.Fatalf("%s: %v", paperPath, err)
		}
		if file.Model != modelText {
			t.Errorf("BENCH_paper.json prices with %q, the test with %q (rerun with -update)", file.Model, modelText)
		}
		for _, f := range file.Series {
			committed[f.Series] = f
		}
		if len(committed) != len(Paper) {
			t.Errorf("BENCH_paper.json holds %d series, the paper %d (rerun with -update)", len(committed), len(Paper))
		}
	}
	var figs []figure
	for _, s := range Paper {
		f := figure{Series: s.Name, Figs: s.Figs, X: s.XLabel}
		t.Run(s.Name, func(t *testing.T) {
			for _, x := range s.Xs {
				names, counts, err := s.Count(x)
				if err != nil {
					t.Fatal(err)
				}
				if err := claims[s.Name](x, counts); err != nil {
					t.Errorf("x=%d: %v", x, err)
				}
				f.Variants = names
				r := row{X: x}
				for _, c := range counts {
					r.Cells = append(r.Cells, newCell(c))
				}
				f.Rows = append(f.Rows, r)
			}
			t.Log("\n" + render(f))
			if !*update {
				compare(t, f, committed[s.Name])
			}
		})
		figs = append(figs, f)
	}
	if *update {
		if t.Failed() {
			t.Fatal("a claim failed: BENCH_paper.json not rewritten")
		}
		for i, f := range figs {
			if len(f.Rows) != len(Paper[i].Xs) {
				t.Fatalf("series %s did not run (a -run filter?): BENCH_paper.json not rewritten", f.Series)
			}
		}
		if err := os.WriteFile(paperPath, encode(figs), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compare reports every row of got that drifted from the committed want.
func compare(t *testing.T, got, want figure) {
	t.Helper()
	if got.Figs != want.Figs || got.X != want.X || !slices.Equal(got.Variants, want.Variants) || len(got.Rows) != len(want.Rows) {
		t.Fatalf("series %s drifted from BENCH_paper.json (rerun with -update):\n got %s\nwant %s", got.Series, mustJSON(got), mustJSON(want))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			t.Errorf("x=%d drifted from BENCH_paper.json:\n got %s\nwant %s", got.Rows[i].X, mustJSON(got.Rows[i]), mustJSON(want.Rows[i]))
		}
	}
}

// encode lays the file out a row per line, so drift diffs as rows.
func encode(figs []figure) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"model\": %s,\n  \"series\": [\n", mustJSON(modelText))
	for i, f := range figs {
		fmt.Fprintf(&b, "    {\"series\": %s, \"figs\": %s, \"x\": %s, \"variants\": %s, \"rows\": [\n",
			mustJSON(f.Series), mustJSON(f.Figs), mustJSON(f.X), mustJSON(f.Variants))
		for j, r := range f.Rows {
			fmt.Fprintf(&b, "      %s%s\n", mustJSON(r), comma(j, len(f.Rows)))
		}
		fmt.Fprintf(&b, "    ]}%s\n", comma(i, len(figs)))
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

func comma(i, n int) string {
	if i < n-1 {
		return ","
	}
	return ""
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// render lays a series out like the paper's figure: a line per x and, per
// variant, trips + loopback calls, bytes out/in, and the modeled ms on the
// LAN / the wireless link.
func render(f figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s), x = %s\n", f.Series, f.Figs, f.X)
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%5d", r.X)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, " | %s %d+%d trips %d/%d B %.3f/%.3f ms",
				f.Variants[i], c.Trips, c.Loopback, c.BytesOut, c.BytesIn, c.LANMs, c.WirelessMs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestLatencyModel checks Counts.Model against the simulator instead of
// assuming it: every series at both ends of its axis runs on a virtual clock
// over the LAN and over the unscaled wireless link, and each variant's
// elapsed virtual time must be within 5% of what its counts model.
//
// The clock detects quiescence by a short real-time window, so a goroutine
// the host runs late (under -race, say) can let a concurrent DGC message's
// timer fire first and add up to half an RTT; host scheduling only ever adds
// virtual time. Each point therefore gets up to three runs and is judged by
// the fastest.
func TestLatencyModel(t *testing.T) {
	for _, s := range Paper {
		for _, x := range []int{s.Xs[0], s.Xs[len(s.Xs)-1]} {
			names, counts, err := s.Count(x)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []netsim.Profile{netsim.LAN, netsim.Wireless} {
				off := make([]float64, len(counts))
				var fastest []time.Duration
				for run := 0; run < 3 && (run == 0 || slices.Max(off) > 0.05); run++ {
					elapsed := virtualElapsed(t, s, x, p)
					if fastest == nil {
						fastest = elapsed
					}
					for i, c := range counts {
						fastest[i] = min(fastest[i], elapsed[i])
						model := c.Model(p)
						off[i] = math.Abs(float64(fastest[i]-model)) / float64(model)
					}
				}
				for i, c := range counts {
					msg := fmt.Sprintf("%s x=%d %s on %s: %v of virtual time, %v modeled (%.3f%% off)",
						s.Name, x, names[i], p.Name, fastest[i], c.Model(p), 100*off[i])
					if off[i] > 0.05 {
						t.Error(msg)
					} else {
						t.Log(msg)
					}
				}
			}
		}
	}
}

// virtualElapsed runs every variant of s at x once on a network with
// profile p and a virtual clock, returning the virtual time each took.
func virtualElapsed(t *testing.T, s Series, x int, p netsim.Profile) []time.Duration {
	t.Helper()
	clk := netsim.NewVirtualClock()
	defer clk.Stop()
	env, err := newEnv(netsim.New(p, netsim.WithClock(clk)), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	variants, err := s.Setup(env, x)
	if err != nil {
		t.Fatal(err)
	}
	var out []time.Duration
	for _, v := range variants {
		start := clk.Now()
		if err := v.Op(); err != nil {
			t.Fatalf("%s x=%d %s: %v", s.Name, x, v.Name, err)
		}
		out = append(out, clk.Now().Sub(start))
	}
	return out
}

// claimAt holds a series to its claim at an x off its plotted axis.
func claimAt(t *testing.T, name string, x int) {
	t.Helper()
	i := slices.IndexFunc(Paper, func(s Series) bool { return s.Name == name })
	if i < 0 {
		t.Fatalf("no series %q", name)
	}
	_, counts, err := Paper[i].Count(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := claims[name](x, counts); err != nil {
		t.Errorf("%s x=%d: %v", name, x, err)
	}
}

// The claims hold off the plotted axes too: the remote simulation (Figs.
// 10-11) and ablation A1 at 6 steps, the file server (Figs. 12-13) at 4
// files.
func TestSimulationShape(t *testing.T)       { claimAt(t, "simulation", 6) }
func TestAblationIdentityShape(t *testing.T) { claimAt(t, "a1", 6) }
func TestFileServerShape(t *testing.T)       { claimAt(t, "fileserver", 4) }

// TestStubsAllocBudget is ablation A2's cost side: the generated layer
// records the same calls as the dynamic API (TestPaperFigures/a2 pins equal
// bytes), so all it may add is its wrappers' allocations per recorded call.
func TestStubsAllocBudget(t *testing.T) {
	const calls = 100
	env, err := NewEnv(netsim.Instant)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	variants, err := StubsSetup(env, calls)
	if err != nil {
		t.Fatal(err)
	}
	perCall := make([]float64, len(variants))
	for i, v := range variants {
		perCall[i] = testing.AllocsPerRun(50, func() {
			if err := v.Op(); err != nil {
				t.Fatal(err)
			}
		}) / calls
	}
	extra := perCall[1] - perCall[0]
	t.Logf("allocs per recorded call: dynamic %.2f, generated %.2f (%+.2f)", perCall[0], perCall[1], extra)
	if extra > 0.5 {
		t.Fatalf("generated stubs add %.2f allocs per recorded call (budget 0.5)", extra)
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

// TestNewFileServer: n files whose sizes sum to exactly the total asked
// for — the paper's 100 KB at any n, not the largest multiple of n below
// it — and differ by at most one byte.
func TestNewFileServer(t *testing.T) {
	for _, tc := range []struct{ n, total int }{{4, 1000}, {3, 100 << 10}, {7, 100 << 10}} {
		fs := NewFileServer(tc.n, tc.total)
		if len(fs.ListFiles()) != tc.n {
			t.Fatalf("files = %d, want %d", len(fs.ListFiles()), tc.n)
		}
		var total, smallest, largest int64 = 0, math.MaxInt64, 0
		for _, f := range fs.ListFiles() {
			total += f.Length()
			smallest, largest = min(smallest, f.Length()), max(largest, f.Length())
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
		if total != int64(tc.total) || largest-smallest > 1 {
			t.Errorf("n=%d: %d bytes in files of %d..%d, want %d", tc.n, total, smallest, largest, tc.total)
		}
	}
	if got := NewFileServer(0, 100); len(got.ListFiles()) != 0 {
		t.Error("zero files not empty")
	}
}
