package core_test

// The rendezvous table a consumer's executor keeps for values pushed from
// other servers is bounded in time and in size, and leaves nothing behind.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// rendezvousEnv is a one-server cluster on a virtual clock: its executor's
// rendezvous bounds run on simulated time.
func rendezvousEnv(t *testing.T) (*clustertest.Cluster, *netsim.VirtualClock) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	clk := netsim.NewVirtualClock()
	network := netsim.New(netsim.Instant, netsim.WithClock(clk))
	ec := clustertest.New(t, 1, clustertest.WithNetwork(network))
	t.Cleanup(func() {
		ec.Close()
		_ = network.Close()
		clk.Stop()
		if !t.Failed() {
			clustertest.AssertGoroutinesReturn(t, baseline, 5*time.Second)
		}
	})
	return ec, clk
}

// drained waits, in real time, for e's table to empty.
func drained(t *testing.T, e *core.Executor) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); core.NumRendezvous(e) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("rendezvous table still holds %d entries", core.NumRendezvous(e))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRendezvousIsBounded: a consumer whose producer never pushes fails with
// the typed timeout at the bound, and leaves no entry; a push nobody consumes
// is gone at the bound; a flood past the cap is refused, typed, and the table
// empties again.
func TestRendezvousIsBounded(t *testing.T) {
	ec, clk := rendezvousEnv(t)
	srv := ec.Servers[0]
	ctx := context.Background()
	const flush = 1<<63 | 42

	t.Run("consumer without a push", func(t *testing.T) {
		b := core.New(ec.Client, srv.Ref)
		b.SetFlush(flush)
		waited := b.Root().Call("Apply", int64(1), core.Pushed{Tag: 7})
		start := clk.Now()
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		var timeout *core.PushTimeoutError
		if err := waited.Err(); !errors.As(err, &timeout) || timeout.Tag != 7 {
			t.Fatalf("consumer = %v, want *core.PushTimeoutError for tag 7", err)
		}
		if d := clk.Now().Sub(start); d < core.PushWait || d >= core.PushWait+time.Second {
			t.Errorf("consumer failed after %v, want at the bound, %v", d, core.PushWait)
		}
		if n := srv.Counter.Get(); n != 0 {
			t.Errorf("the consumer ran: counter %d", n)
		}
		drained(t, srv.Exec)
	})

	t.Run("push without a consumer", func(t *testing.T) {
		start := clk.Now()
		if err := core.PushValue(ctx, ec.Client, srv.Endpoint, flush, 8, int64(5), nil); err != nil {
			t.Fatal(err)
		}
		if n := core.NumRendezvous(srv.Exec); n != 1 {
			t.Fatalf("table holds %d entries after one push, want 1", n)
		}
		drained(t, srv.Exec)
		if d := clk.Now().Sub(start); d < core.PushWait {
			t.Errorf("the pushed value was dropped after %v, before the bound %v", d, core.PushWait)
		}
	})

	t.Run("flood", func(t *testing.T) {
		// Straight into the executor, so the flood outpaces the bound on any
		// host; the wire path is FuzzValuePush's.
		for i := 0; i < core.MaxRendezvous; i++ {
			if err := srv.Exec.Push(ctx, &core.ValuePush{Flush: flush, Tag: int64(100 + i), Value: int64(i)}); err != nil {
				t.Fatalf("push %d, within the cap, refused: %v", i, err)
			}
		}
		err := srv.Exec.Push(ctx, &core.ValuePush{Flush: flush, Tag: 99})
		var full *core.RendezvousFullError
		if !errors.As(err, &full) || full.Cap != core.MaxRendezvous {
			t.Fatalf("push past the cap = %v, want *core.RendezvousFullError", err)
		}
		if n := core.NumRendezvous(srv.Exec); n != core.MaxRendezvous {
			t.Errorf("table holds %d entries, want the cap %d", n, core.MaxRendezvous)
		}
		drained(t, srv.Exec)
	})
}

// The push-carrying request shapes of FuzzBatchRequest's seed corpus, each
// refused whole with *wire.CorruptError before anything executes: a push list
// pointing past the request's peers, a push to the request itself — a call
// waiting for the value another call of the same request pushes — and a push
// of a call that returns no value.
var (
	pushOutOfRange = &core.BatchRequest{Names: []string{"a"}, Flush: pushFlush, Peers: []string{"there"},
		Calls: []core.Invocation{pushCall(core.Invocation{Seq: 0, Target: core.RootTarget, Method: "Get", Kind: 1}, 1)}}
	pushToSelf = &core.BatchRequest{Names: []string{"a"}, Flush: pushFlush, Peers: []string{"there"},
		Calls: []core.Invocation{
			pushCall(core.Invocation{Seq: 0, Target: core.RootTarget, Method: "Get", Kind: 1}, 0),
			{Seq: 1, Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 5, Pushed: true}}},
		}}
	pushNonValue = &core.BatchRequest{Names: []string{"a"}, Flush: pushFlush, Peers: []string{"there"},
		Calls: []core.Invocation{pushCall(core.Invocation{Seq: 0, Target: core.RootTarget, Method: "Get", Kind: 2}, 0)}}
)

const pushFlush = 1<<63 | 42

// pushCall is inv with a push list.
func pushCall(inv core.Invocation, at ...int64) core.Invocation {
	inv.Tag, inv.Push = 5, at
	return inv
}

// TestPushSeeds: the push-* entries of FuzzBatchRequest's committed corpus
// are the encoder's bytes for the three shapes, and each is refused typed —
// at decode, or by the executor — with nothing executed.
func TestPushSeeds(t *testing.T) {
	env := newGetbatchEnv(t)
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	for name, req := range map[string]*core.BatchRequest{
		"push-out-of-range": pushOutOfRange,
		"push-to-self":      pushToSelf,
		"push-non-value":    pushNonValue,
	} {
		want := seedBytes(t, "FuzzBatchRequest", name)
		if got, err := wire.MarshalAppend(nil, req); err != nil || !bytes.Equal(got, want) {
			t.Errorf("seed %s holds %x, the encoder says %x (%v)", name, want, got, err)
		}
		var corrupt *wire.CorruptError
		_, derr := wire.Unmarshal(want)
		bumps := env.bumps()
		_, err := env.client.Call(context.Background(), exec, "InvokeBatch", req)
		if !errors.As(derr, &corrupt) && !errors.As(err, &corrupt) {
			t.Errorf("%s: decoded (%v) and answered %v, want *wire.CorruptError", name, derr, err)
		}
		if env.bumps() != bumps {
			t.Errorf("%s executed before it was refused", name)
		}
	}
}

// seedBytes reads the committed seed name of a fuzz target's corpus.
func seedBytes(t *testing.T, target, name string) []byte {
	t.Helper()
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")\n")
	b, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("seed %s/%s: %v", target, name, err)
	}
	return []byte(b)
}

// FuzzValuePush feeds arbitrary bytes to the value push decoder and hands what
// decodes to a push to a live executor's Push, through the dispatch a remote
// call takes. Nothing may panic, what the decode allocates follows the input,
// and the rendezvous table never holds more than its cap.
func FuzzValuePush(f *testing.F) {
	for _, p := range []*core.ValuePush{
		{Flush: pushFlush, Tag: 3, Value: int64(5)},
		{Flush: pushFlush, Tag: 4, Err: &core.UnresolvedRefError{Seq: 4}},
		{Flush: 0, Tag: 1, Value: "no flush"},
		{Flush: pushFlush, Tag: -1, Value: []any{int64(1), "x", nil}},
	} {
		data, err := wire.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	env := newGetbatchEnv(f)
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, alloc, err := decodeAlloc(data)
		if alloc > allocBound(data) {
			t.Fatalf("%d input bytes made the decode allocate %d", len(data), alloc)
		}
		p, ok := msg.(*core.ValuePush)
		if err != nil || !ok {
			return
		}
		_, err = env.client.Call(ctx, exec, "Push", p)
		var corrupt *wire.CorruptError
		if p.Flush == 0 && !errors.As(err, &corrupt) {
			t.Fatalf("push outside a flush answered %v, want *wire.CorruptError", err)
		}
		if n := core.NumRendezvous(env.exec); n > core.MaxRendezvous {
			t.Fatalf("rendezvous table holds %d entries, past its cap %d", n, core.MaxRendezvous)
		}
	})
}
