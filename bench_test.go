package repro_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netsim"
)

// Microbenchmarks of the client stack on the instant network, where no
// simulated latency hides its CPU cost. The paper's figures are cmd/benchfig's
// job, and internal/bench's tests pin the round trips behind each of them.

// BenchmarkRecordingOnly isolates client-side recording cost (no flush):
// the price of building a batch, which the paper argues is negligible
// against one network round trip.
func BenchmarkRecordingOnly(b *testing.B) {
	env, err := bench.NewEnv(netsim.Instant)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	ref, err := env.Export(&bench.NoopService{}, "bench.Noop")
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
