package statsnode_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/statsnode"
)

// drive runs a small BRMI workload against every server so all four
// instrumented layers have traffic to report.
func drive(t *testing.T, c *clustertest.Cluster) {
	t.Helper()
	ctx := context.Background()
	for _, s := range c.Servers {
		b := core.New(c.Client, s.Ref)
		p := b.Root()
		for i := 0; i < 5; i++ {
			p.Call("Add", int64(1))
		}
		f := p.Call("Get")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Get(); err != nil {
			t.Fatal(err)
		}
	}
}

// hasName reports whether the snapshot carries a series with the name, in
// any section — presence matters even at value zero (a scrape that silently
// drops a layer would alias "not instrumented" with "no traffic").
func hasName(s *stats.Snapshot, name string) bool {
	for _, v := range s.Counters {
		if v.Name == name {
			return true
		}
	}
	for _, v := range s.Gauges {
		if v.Name == name {
			return true
		}
	}
	for _, h := range s.Hists {
		if h.Name == name {
			return true
		}
	}
	return false
}

// TestScrapeClusterCoversAllLayers is the tentpole acceptance check: ONE
// cluster batch flush returns every server's snapshot, and each snapshot
// carries live series from all four instrumented layers.
func TestScrapeClusterCoversAllLayers(t *testing.T) {
	c := clustertest.New(t, 3)
	drive(t, c)

	snaps, err := statsnode.ScrapeCluster(context.Background(), c.Client, c.Endpoints())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(c.Servers) {
		t.Fatalf("scraped %d servers, want %d", len(snaps), len(c.Servers))
	}
	for ep, s := range snaps {
		// Transport: the server decoded our request frames.
		if got := s.Counter("transport.frames_in"); got == 0 {
			t.Errorf("%s: transport.frames_in = 0, want > 0", ep)
		}
		// Wire: decoding those requests went through the timed codec path.
		if h := s.Hist("wire.decode_ns"); h == nil || h.Count == 0 {
			t.Errorf("%s: wire.decode_ns empty, want observations", ep)
		}
		// Core: the executor replayed our batch.
		if got := s.Counter("core.calls_executed"); got < 6 {
			t.Errorf("%s: core.calls_executed = %d, want >= 6", ep, got)
		}
		if h := s.Hist("core.wave_ns"); h == nil || h.Count == 0 {
			t.Errorf("%s: core.wave_ns empty, want observations", ep)
		}
		// Cluster: the node service publishes its ring epoch and migration
		// counters even before any membership change.
		// The replication service's counters must be present even on a
		// cluster that never replicated or failed over — brmitop's REPL
		// column reads them unconditionally.
		for _, name := range []string{"cluster.ring_epoch", "cluster.arrivals", "cluster.departs",
			"cluster.replica_appends", "cluster.replica_ships", "cluster.promotions"} {
			if !hasName(s, name) {
				t.Errorf("%s: snapshot missing %s", ep, name)
			}
		}
	}
}

// TestScrapeIsOneWave pins the cost claim: scraping k servers is a single
// parallel round-trip wave, not k round trips.
func TestScrapeIsOneWave(t *testing.T) {
	c := clustertest.New(t, 3)
	b := cluster.New(c.Client)
	futs := make([]*cluster.Future, len(c.Servers))
	for i, s := range c.Servers {
		futs[i] = b.Root(statsnode.Ref(s.Endpoint)).Call("Scrape")
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.Waves(); got != 1 {
		t.Fatalf("scrape flush took %d waves, want 1", got)
	}
	for i, f := range futs {
		v, err := f.Get()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := v.(*stats.Snapshot); !ok {
			t.Fatalf("server %d: Scrape returned %T, want *stats.Snapshot", i, v)
		}
	}
}

func TestScrapePartialFailure(t *testing.T) {
	c := clustertest.New(t, 2)
	eps := append(c.Endpoints(), "server-down")
	snaps, err := statsnode.ScrapeCluster(context.Background(), c.Client, eps)
	if err == nil {
		t.Fatal("scrape with an unreachable server reported no error")
	}
	if len(snaps) != 2 {
		t.Fatalf("got %d snapshots despite one down server, want 2", len(snaps))
	}
}

func TestViewRows(t *testing.T) {
	c := clustertest.New(t, 3)
	drive(t, c)
	ctx := context.Background()
	prev, err := statsnode.ScrapeCluster(ctx, c.Client, c.Endpoints())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, c)
	cur, err := statsnode.ScrapeCluster(ctx, c.Client, c.Endpoints())
	if err != nil {
		t.Fatal(err)
	}

	rows := statsnode.BuildRows(cur, prev, time.Second)
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Calls < 6 {
			t.Errorf("%s: Calls = %d, want >= 6", r.Server, r.Calls)
		}
		if r.QPS <= 0 {
			t.Errorf("%s: QPS = %v, want > 0 (second sample saw more calls)", r.Server, r.QPS)
		}
		if r.WaveP99 < r.WaveP50 {
			t.Errorf("%s: wave p99 %v < p50 %v", r.Server, r.WaveP99, r.WaveP50)
		}
		if r.Stale {
			t.Errorf("%s: marked epoch-stale in a uniform cluster", r.Server)
		}
	}

	var sb strings.Builder
	statsnode.RenderTable(&sb, rows)
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "SERVER") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(lines[0], "REPL") {
		t.Errorf("header missing REPL column:\n%s", out)
	}
	for _, s := range c.Servers {
		if !strings.Contains(out, s.Endpoint) {
			t.Errorf("table missing %s:\n%s", s.Endpoint, out)
		}
	}
}

// TestReplicationCell: the REPL column shows the records a follower applied,
// the median quorum lag of the waves a primary shipped, and the shadows it
// promoted.
func TestReplicationCell(t *testing.T) {
	rows := []statsnode.Row{
		{Server: "idle"},
		{Server: "follower", ReplAppends: 30},
		{Server: "both", ReplAppends: 30, ReplLagP50: 1200 * time.Microsecond},
		{Server: "primary", ReplLagP50: 40 * time.Microsecond},
		{Server: "promoted", ReplAppends: 4, Promotions: 2},
		{Server: "heir", Promotions: 1},
	}
	var sb strings.Builder
	statsnode.RenderTable(&sb, rows)
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	for i, want := range []string{" - ", " 30 ", " 30 lag 1.2ms ", " 0 lag 40µs ", " 4 +2 promoted ", " 0 +1 promoted "} {
		if !strings.Contains(lines[i+1], want) {
			t.Errorf("row %s: replication cell %q missing from %q", rows[i].Server, want, lines[i+1])
		}
	}
}
