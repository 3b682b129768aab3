package statsnode

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/stats"
)

// view.go derives the brmitop ops table from raw scrape snapshots: rates
// need two scrapes (QPS is a counter delta over the sample interval),
// everything else reads off the latest snapshot. The derivation lives here
// rather than in cmd/brmitop so examples and tests render the exact same
// view the CLI shows.

// Row is one server's line of the ops view.
type Row struct {
	Server string
	// Calls is the cumulative count of calls the server's executor ran.
	Calls int64
	// QPS is the executed-call rate over the sample interval (0 on the
	// first sample: rates need a previous scrape to diff against).
	QPS float64
	// WaveP50 and WaveP99 are executor replay-wave latency quantiles.
	WaveP50, WaveP99 time.Duration
	// PoolHit is the transport buffer-pool hit rate in [0,1] (-1 when the
	// pool was never used).
	PoolHit float64
	// CodecReuse is the wire encoder/decoder state reuse rate in [0,1]
	// (-1 when no codec state was ever fetched).
	CodecReuse float64
	// CacheHit is the lease-cache hit rate for readonly calls in [0,1]
	// (-1 when the process runs no client cache — servers usually don't;
	// the column lights up on client pseudo-rows and co-located clients).
	CacheHit float64
	// MigRemaining and MigMoved describe rebalancer-side migration progress
	// (nonzero only when the scraped process drives migrations); Arrivals
	// and Departs are the server-side view — objects adopted by and released
	// from this member since it started.
	MigRemaining, MigMoved int64
	Arrivals, Departs      int64
	// ReplAppends, ReplLagP50 and Promotions describe the replication side:
	// records this member appended to follower shard logs, how long — as a
	// primary — it waited between executing a wave and its write quorum
	// holding it (median; 0 when it never shipped one), and shadows it turned
	// authoritative during failovers.
	ReplAppends, Promotions int64
	ReplLagP50              time.Duration
	// StreamsOpen is the number of chunked streams live right now (response
	// streaming and oversized calls both ride them); StreamChunks is the
	// cumulative chunk count moved in either direction.
	StreamsOpen, StreamChunks int64
	// Epoch is the server's ring epoch; Stale marks it behind the
	// cluster-wide maximum (epoch skew).
	Epoch int64
	Stale bool
}

// ratio returns num/(num+den) guarding the empty case with -1.
func ratio(num, den int64) float64 {
	if num+den == 0 {
		return -1
	}
	return float64(num) / float64(num+den)
}

// BuildRows derives one Row per server from the current scrape, using prev
// (the scrape one interval ago, nil on the first sample) for rates. Rows
// are sorted by server endpoint; epoch skew is judged against the maximum
// epoch in cur.
func BuildRows(cur, prev map[string]*stats.Snapshot, elapsed time.Duration) []Row {
	servers := make([]string, 0, len(cur))
	var maxEpoch int64
	for ep, s := range cur {
		servers = append(servers, ep)
		if e := s.Gauge("cluster.ring_epoch"); e > maxEpoch {
			maxEpoch = e
		}
	}
	sort.Strings(servers)
	rows := make([]Row, 0, len(servers))
	for _, ep := range servers {
		s := cur[ep]
		r := Row{
			Server: ep,
			Calls:  s.Counter("core.calls_executed"),
			PoolHit: ratio(s.Gauge("transport.pool_hit"),
				s.Gauge("transport.pool_miss")),
			MigRemaining: s.Gauge("cluster.migration_remaining"),
			MigMoved:     s.Counter("cluster.migration_moved"),
			Arrivals:     s.Counter("cluster.arrivals"),
			Departs:      s.Counter("cluster.departs"),
			ReplAppends:  s.Counter("cluster.replica_appends"),
			Promotions:   s.Counter("cluster.promotions"),
			StreamsOpen:  s.Gauge("transport.streams_open"),
			StreamChunks: s.Counter("transport.chunks_in") + s.Counter("transport.chunks_out"),
			Epoch:        s.Gauge("cluster.ring_epoch"),
		}
		gets := s.Gauge("wire.enc_state_gets") + s.Gauge("wire.dec_state_gets")
		allocs := s.Gauge("wire.enc_state_allocs") + s.Gauge("wire.dec_state_allocs")
		r.CodecReuse = ratio(gets-allocs, allocs)
		r.CacheHit = ratio(s.Counter("cache.hits"), s.Counter("cache.misses"))
		if h := s.Hist("core.wave_ns"); h != nil && h.Count > 0 {
			r.WaveP50 = time.Duration(h.Quantile(0.50))
			r.WaveP99 = time.Duration(h.Quantile(0.99))
		}
		if h := s.Hist("cluster.replication_lag"); h != nil && h.Count > 0 {
			r.ReplLagP50 = time.Duration(h.Quantile(0.50))
		}
		if prev != nil && elapsed > 0 {
			if p := prev[ep]; p != nil {
				d := r.Calls - p.Counter("core.calls_executed")
				if d > 0 {
					r.QPS = float64(d) / elapsed.Seconds()
				}
			}
		}
		r.Stale = r.Epoch < maxEpoch
		rows = append(rows, r)
	}
	return rows
}

// pct renders a [0,1] rate, or "-" for the never-used sentinel.
func pct(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", v*100)
}

// dur renders a latency quantile compactly (0 → "-").
func dur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// RenderTable writes the ops table. Columns: server, cumulative executed
// calls, QPS over the last interval, executor wave p50/p99, transport
// buffer-pool hit rate, wire codec-state reuse rate, readonly lease-cache
// hit rate ("-" where no cache runs), migration state, replication state
// (appended follower-log records, "lag" and the median quorum wait of the
// waves this server shipped as their primary, "+N promoted" after a failover
// recovered shadows here), chunked-stream
// activity ("-" when nothing ever streamed, else "open/chunks"), and ring epoch
// ("!" marks a server behind the cluster-wide maximum — epoch skew, i.e.
// a ring broadcast it has not adopted yet).
func RenderTable(w io.Writer, rows []Row) {
	const header = "SERVER\tCALLS\tQPS\tWAVE p50\tWAVE p99\tPOOL\tCODEC\tCACHE\tMIGRATION\tREPL\tSTREAM\tEPOCH"
	lines := make([][]string, 0, len(rows)+1)
	lines = append(lines, strings.Split(header, "\t"))
	for _, r := range rows {
		mig := "idle"
		switch {
		case r.MigRemaining > 0:
			mig = fmt.Sprintf("%d draining", r.MigRemaining)
		case r.MigMoved > 0:
			mig = fmt.Sprintf("%d moved", r.MigMoved)
		case r.Arrivals > 0 || r.Departs > 0:
			mig = fmt.Sprintf("+%d/-%d", r.Arrivals, r.Departs)
		}
		repl := "-"
		if r.ReplAppends > 0 || r.Promotions > 0 || r.ReplLagP50 > 0 {
			repl = fmt.Sprintf("%d", r.ReplAppends)
		}
		if r.ReplLagP50 > 0 {
			repl += " lag " + dur(r.ReplLagP50)
		}
		if r.Promotions > 0 {
			repl += fmt.Sprintf(" +%d promoted", r.Promotions)
		}
		stream := "-"
		if r.StreamsOpen > 0 || r.StreamChunks > 0 {
			stream = fmt.Sprintf("%d/%d", r.StreamsOpen, r.StreamChunks)
		}
		epoch := fmt.Sprintf("%d", r.Epoch)
		if r.Stale {
			epoch += " !"
		}
		qps := "-"
		if r.QPS > 0 {
			qps = fmt.Sprintf("%.0f", r.QPS)
		}
		lines = append(lines, []string{
			r.Server,
			fmt.Sprintf("%d", r.Calls),
			qps,
			dur(r.WaveP50),
			dur(r.WaveP99),
			pct(r.PoolHit),
			pct(r.CodecReuse),
			pct(r.CacheHit),
			mig,
			repl,
			stream,
			epoch,
		})
	}
	// Column-align without text/tabwriter state: fixed widths per column,
	// computed over this render. Widths count runes, not bytes — the µ in
	// latency cells is multi-byte and would skew every column after it.
	widths := make([]int, len(lines[0]))
	for _, cells := range lines {
		for i, c := range cells {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	for _, cells := range lines {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c))
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
}
