package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestFlushIsOneCall: a flush is one message, a bare brmi.req, answered by a
// bare brmi.resp. It is one call on the client's counters and codec
// histograms; a peer that runs no executor refuses it, typed; and the reply
// carries resolved roots only to a chain that addresses them again — a named
// chain's second flush goes out id-addressed.
func TestFlushIsOneCall(t *testing.T) {
	env := newGetbatchEnv(t)
	ctx := context.Background()
	tap := &transport.Recorder{Network: env.network}
	reg := stats.New()
	client := rmi.NewPeer(tap, rmi.WithLogf(silentLogf), rmi.WithStatsRegistry(reg))
	t.Cleanup(func() { _ = client.Close() })
	// The requests and replies the tap has recorded so far.
	traffic := func() (reqs []*core.BatchRequest, resps []*core.BatchResponse) {
		t.Helper()
		outs, ins := tap.Recorded()
		for i := range outs {
			for _, b := range [][]byte{outs[i], ins[i]} {
				frames, err := transport.DecodeFrames(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range frames {
					msg, err := wire.Unmarshal(f.Payload)
					if err != nil {
						t.Fatalf("frame %x: %v", f.Payload, err)
					}
					switch m := msg.(type) {
					case *core.BatchRequest:
						reqs = append(reqs, m)
					case *core.BatchResponse:
						resps = append(resps, m)
					default:
						t.Fatalf("a flush sent or received %T", msg)
					}
				}
			}
		}
		return reqs, resps
	}
	hists := func() (enc, dec int64) {
		s := reg.Snapshot()
		return s.Hist("wire.encode_ns").Count, s.Hist("wire.decode_ns").Count
	}

	b := core.NewNamed(client, getbatchHere, "a")
	got := b.Root().Call("Get")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := got.Get(); err != nil || v != int64(10) {
		t.Fatalf("a.Get = %v, %v; want 10", v, err)
	}
	if calls, counted := client.CallCount(), reg.Snapshot().Gauge("rmi.calls"); calls != 1 || counted != 1 {
		t.Errorf("one flush counted %d calls, rmi.calls %d; want 1 and 1", calls, counted)
	}
	if enc, dec := hists(); enc != 1 || dec != 1 {
		t.Errorf("one flush observed %d encodes and %d decodes, want 1 and 1", enc, dec)
	}
	reqs, resps := traffic()
	if len(reqs) != 1 || len(resps) != 1 || resps[0].Roots != nil {
		t.Fatalf("a named flush sent %d requests and got %d replies, roots %v; want one each and no roots", len(reqs), len(resps), resps)
	}

	chain := core.NewNamed(client, getbatchHere, "b")
	chain.Root().Call("Bump")
	if err := chain.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	chain.Root().Call("Bump")
	if err := chain.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	reqs, resps = traffic()
	if len(reqs) != 3 || len(resps) != 3 {
		t.Fatalf("a two-flush chain after one flush: %d requests, %d replies; want 3 and 3", len(reqs), len(resps))
	}
	if first, reply := reqs[1], resps[1]; len(first.Names) != 1 || len(reply.Roots) != 1 || reply.Roots[0].ObjID != env.ids["b"] {
		t.Errorf("the chain's first flush named %v and was told %v; want b's id", first.Names, reply.Roots)
	}
	if second := reqs[2]; second.Names != nil || second.Root != env.ids["b"] || second.Session == 0 {
		t.Errorf("the chain's second flush went out %+v; want id-addressed to %d, continuing its session", second, env.ids["b"])
	}
	if calls := client.CallCount(); calls != 3 {
		t.Errorf("three flushes counted %d calls", calls)
	}

	// A serving peer without an executor handles no flush.
	bare := rmi.NewPeer(env.network, rmi.WithLogf(silentLogf))
	if err := bare.Serve("bare"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bare.Close() })
	ref, err := bare.Export(&gauge{}, "test.Gauge")
	if err != nil {
		t.Fatal(err)
	}
	nb := core.New(client, ref)
	nb.Root().Call("Get")
	if err := nb.Flush(ctx); !errors.Is(err, core.ErrNoBatchService) {
		t.Errorf("flush to a peer without an executor = %v, want ErrNoBatchService", err)
	}
}
