package transport_test

import (
	"context"
	"testing"

	"repro/internal/netsim"
	"repro/internal/transport"
)

// Transport microbenchmarks: one request/response round trip over the
// in-memory instant network, so the numbers isolate framing, multiplexing,
// and buffer management cost. Run with -benchmem; CI does.

func benchEnv(b *testing.B) *transport.Client {
	b.Helper()
	n := netsim.New(netsim.Instant)
	b.Cleanup(func() { _ = n.Close() })
	l, err := n.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	srv := transport.NewServer(func(_ context.Context, p []byte) ([]byte, error) {
		out := transport.GetBuffer()
		return append(out, p...), nil
	}, transport.WithLogf(silentLogf), transport.WithBufferReuse())
	if err := srv.Serve(l); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	c := transport.NewClient(n, "bench")
	b.Cleanup(func() { _ = c.Close() })
	return c
}

func BenchmarkRoundTrip(b *testing.B) {
	c := benchEnv(b)
	ctx := context.Background()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Call(ctx, payload)
		if err != nil {
			b.Fatal(err)
		}
		transport.PutBuffer(resp)
	}
}

func BenchmarkRoundTripParallel(b *testing.B) {
	c := benchEnv(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		payload := make([]byte, 128)
		for pb.Next() {
			resp, err := c.Call(ctx, payload)
			if err != nil {
				b.Fatal(err)
			}
			transport.PutBuffer(resp)
		}
	})
}
