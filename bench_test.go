package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Microbenchmarks of the client stack on the instant network, where no
// simulated latency hides its CPU cost. The paper's figures are counts, not
// timings: internal/bench's TestPaperFigures holds each series' round trips,
// loopback calls and bytes to the committed BENCH_paper.json.

// BenchmarkRecordingOnly isolates client-side recording cost (no flush):
// the price of building a batch, which the paper argues is negligible
// against one network round trip.
func BenchmarkRecordingOnly(b *testing.B) {
	env, err := bench.NewEnv(netsim.Instant)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ref, err := env.Server.Export(&bench.NoopService{}, "bench.Noop")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := core.New(env.Client, ref).Root()
		for j := 0; j < 10; j++ {
			root.Call("Noop")
		}
	}
}

// BenchmarkWireRoundTrip isolates the full stack minus latency: one no-op
// RMI call over the instant profile (codec + transport + dispatch cost).
func BenchmarkWireRoundTrip(b *testing.B) {
	env, err := bench.NewEnv(netsim.Instant)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	variants, err := bench.NoopSetup(env, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := variants[0].Op(); err != nil {
			b.Fatal(err)
		}
	}
}
