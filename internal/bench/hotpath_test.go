package bench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// Payload is the marshal-heavy argument/result of the hot-path workload
// (TestHotPathAllocBudget): a registered struct with a string, integers, a
// byte body, and a duration, so every recorded call exercises the full codec
// surface (type definition, field encode/decode, byte copy) rather than just
// the framing.
type Payload struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Elapsed time.Duration
}

// EchoService is the remote object of the hot-path workload: Echo returns
// its argument, so each call marshals the payload twice (request and
// response) on both peers.
type EchoService struct {
	rmi.RemoteBase
}

// Echo returns p unchanged.
func (s *EchoService) Echo(p Payload) Payload { return p }

// DispatchLocal is the reflection-free skeleton (rmi.LocalDispatcher),
// mirroring what brmigen's Dispatch<Iface> helper emits.
func (s *EchoService) DispatchLocal(_ context.Context, method string, args []any, buf []any) ([]any, bool, error) {
	if method != "Echo" || len(args) != 1 {
		return nil, false, nil
	}
	p, ok := args[0].(Payload)
	if !ok {
		return nil, false, nil // odd argument form; reflective dispatch converts
	}
	return append(buf[:0], s.Echo(p)), true, nil
}

// Payload travels on every hot-path workload call; it installs a
// compiled wire codec like the protocol messages do, the pattern an
// application type opts into for its own hot paths.
func encPayload(x wire.Enc, p *Payload) error {
	n := 5
	if p.Elapsed == 0 {
		n = 4
		if p.Data == nil {
			n = 3
			if p.Seq == 0 {
				n = 2
				if p.Name == "" {
					n = 1
					if p.ID == 0 {
						n = 0
					}
				}
			}
		}
	}
	x.BeginStruct("bench.payload", n)
	if n > 0 {
		x.Int(p.ID)
	}
	if n > 1 {
		x.Str(p.Name)
	}
	if n > 2 {
		x.Uint(p.Seq)
	}
	if n > 3 {
		x.BytesVal(p.Data)
	}
	if n > 4 {
		x.Int(int64(p.Elapsed))
	}
	return nil
}

func decPayload(x wire.Dec, p *Payload, n int) error {
	var err error
	if n > 0 {
		if p.ID, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if p.Name, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 2 {
		if p.Seq, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 3 {
		if p.Data, err = x.BytesVal(); err != nil {
			return err
		}
	}
	if n > 4 {
		if p.Elapsed, err = x.Dur(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 5)
}

func init() {
	wire.MustRegisterCompiled("bench.payload", false, encPayload, decPayload)
}

// TestHotPathAllocBudget pins the allocation cost of the flush hot path:
// mixed-size flushes (1, 4, 16, 64 calls) of a marshal-heavy Echo over four
// exported objects on the instant network, client and server sharing the
// heap. The stack before compiled codecs, pooled buffers and skeleton
// dispatch cost ~29.5 allocations per call, today's ~14; the budget leaves
// headroom for environment noise. brmibench's echo_flush reports the precise
// figure.
func TestHotPathAllocBudget(t *testing.T) {
	env, err := NewEnv(netsim.Instant)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	refs := make([]wire.Ref, 4)
	for i := range refs {
		if refs[i], err = env.Server.Export(&EchoService{}, "bench.Echo"); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	payload := Payload{ID: 1, Name: "hot-path-object-with-a-realistic-name", Data: make([]byte, 64), Elapsed: time.Millisecond}
	sizes := [...]int{1, 4, 16, 64}
	run := func(flushes int) (calls int) {
		for n := 0; n < flushes; n++ {
			size := sizes[n%len(sizes)]
			b := core.New(env.Client, refs[n%len(refs)])
			root := b.Root()
			var last *core.Future
			for i := 0; i < size; i++ {
				payload.Seq = uint64(i)
				last = root.Call("Echo", payload)
			}
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			if err := last.Err(); err != nil {
				t.Fatal(err)
			}
			calls += size
		}
		return calls
	}
	run(100) // warm up: connection pools, type registries, codec caches
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := run(400)
	runtime.ReadMemStats(&after)
	perCall := float64(after.Mallocs-before.Mallocs) / float64(calls)
	t.Logf("%.1f allocs per call", perCall)
	if perCall > 22 {
		t.Fatalf("allocs per call regressed: %.1f (budget 22)", perCall)
	}
}
