package core_test

// Tests for value futures as arguments inside a flush: the recording side
// (what a *core.Future encodes to, and what it refuses), the executor's
// wave-scoped value table, and the table as hostile input — a value
// reference is bytes from outside the serving peer like any other.

import (
	"context"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// exportCounter exports a fresh counter on fx's server.
func exportCounter(t *testing.T, fx *fixture) (*counter, wire.Ref) {
	t.Helper()
	c := &counter{}
	ref, err := fx.server.Export(c, "coretest.Counter")
	if err != nil {
		t.Fatal(err)
	}
	return c, ref
}

// TestValueFutureArgument: an unflushed future of the same batch is a legal
// argument of Call, CallRO and CallBatch; the server hands the consumer the
// producer's value inside the one request.
func TestValueFutureArgument(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	c, ref := exportCounter(t, fx)
	b := core.New(fx.client, ref)
	root, err := b.AddRoot(fx.dirRef)
	if err != nil {
		t.Fatal(err)
	}
	f0 := b.Root().Call("Add", int64(40)) // 1: the log's length
	f1 := b.Root().Call("Add", f0)        // Add(1)
	f2 := b.Root().CallRO("Add", f1)      // Add(2)
	file := root.CallBatch("GetFile", root.CallBatch("GetFile", "A.txt").Call("GetName"))
	got := file.Call("GetName")

	before := fx.client.CallCount()
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if rt := fx.client.CallCount() - before; rt != 1 {
		t.Errorf("flush used %d round trips, want 1", rt)
	}
	if !slices.Equal(c.vals, []int64{40, 1, 2}) {
		t.Errorf("counter applied %v, want [40 1 2]", c.vals)
	}
	if v, err := core.Typed[int64](f2).Get(); err != nil || v != 3 {
		t.Errorf("f2 = %v, %v; want 3", v, err)
	}
	if v, err := core.Typed[string](got).Get(); err != nil || v != "A.txt" {
		t.Errorf("GetFile(<-GetName) = %q, %v; want A.txt", v, err)
	}
}

// TestValueFutureProducerFailure: a consumer whose producer threw is not
// executed and fails with the producer's own error, whether the policy
// aborts the batch there or carries on.
func TestValueFutureProducerFailure(t *testing.T) {
	for name, policy := range map[string]*core.Policy{"abort": core.AbortPolicy(), "continue": core.ContinuePolicy()} {
		t.Run(name, func(t *testing.T) {
			fx := newFixture(t)
			c, ref := exportCounter(t, fx)
			b := core.New(fx.client, ref, core.WithPolicy(policy))
			boom := b.Root().Call("Fail")
			dep := b.Root().Call("Add", boom)
			after := b.Root().Call("Add", int64(7))
			if err := b.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			perr := boom.Err()
			if perr == nil || dep.Err() == nil || dep.Err().Error() != perr.Error() {
				t.Errorf("consumer failed with %v, producer with %v", dep.Err(), perr)
			}
			want := []int64{7}
			if name == "abort" {
				want = nil
			}
			if !slices.Equal(c.vals, want) {
				t.Errorf("counter applied %v, want %v: the consumer must not run", c.vals, want)
			}
			if (after.Err() == nil) != (name == "continue") {
				t.Errorf("call after the failure = %v under %s", after.Err(), name)
			}
		})
	}
}

// TestValueTableResetOnRestart: a Restart re-run starts with an empty table —
// the consumer sees what the producer returned in the run that counts.
func TestValueTableResetOnRestart(t *testing.T) {
	fx := newFixture(t)
	c, ref := exportCounter(t, fx)
	fl := &flaky{failures: 1}
	flRef, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, ref, core.WithPolicy(core.CustomPolicy().SetDefaultAction(core.ActionRestart)))
	flp, err := b.AddRoot(flRef)
	if err != nil {
		t.Fatal(err)
	}
	p := b.Root().Call("Add", int64(9)) // run 1: 1, run 2: 2
	flp.Call("Work")                    // fails run 1
	q := b.Root().Call("Add", p)
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.vals, []int64{9, 9, 2}) {
		t.Errorf("counter applied %v, want [9 9 2]: the second run's consumer takes the second run's value", c.vals)
	}
	if v, err := core.Typed[int64](q).Get(); err != nil || v != 3 {
		t.Errorf("consumer = %v, %v; want 3", v, err)
	}
}

// TestValueFutureRecording: what the recording side makes of futures that are
// not an unflushed call of this batch.
func TestValueFutureRecording(t *testing.T) {
	ctx := context.Background()

	t.Run("another batch's future", func(t *testing.T) {
		fx := newFixture(t)
		_, ref := exportCounter(t, fx)
		b1, b2 := core.New(fx.client, ref), core.New(fx.client, ref)
		f := b1.Root().Call("Add", int64(1))
		b2.Root().Call("Add", f)
		if err := b2.Flush(ctx); !errors.Is(err, core.ErrForeignProxy) {
			t.Errorf("flush = %v, want ErrForeignProxy", err)
		}
		if err := b1.Flush(ctx); err != nil {
			t.Error(err)
		}
	})

	t.Run("settled by an earlier flush of the chain", func(t *testing.T) {
		fx := newFixture(t)
		c, ref := exportCounter(t, fx)
		b := core.New(fx.client, ref)
		f := b.Root().Call("Add", int64(30)) // 1
		if err := b.FlushAndContinue(ctx); err != nil {
			t.Fatal(err)
		}
		g := b.Root().Call("Add", f) // the literal 1: the session holds no values
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		if v, err := core.Typed[int64](g).Get(); err != nil || v != 2 || !slices.Equal(c.vals, []int64{30, 1}) {
			t.Errorf("consumer = %v, %v over %v; want 2 over [30 1]", v, err, c.vals)
		}
	})

	t.Run("failed in an earlier flush of the chain", func(t *testing.T) {
		fx := newFixture(t)
		c, ref := exportCounter(t, fx)
		b := core.New(fx.client, ref, core.WithPolicy(core.ContinuePolicy()))
		f := b.Root().Call("Fail")
		if err := b.FlushAndContinue(ctx); err != nil {
			t.Fatal(err)
		}
		b.Root().Call("Add", f)
		var be *core.BatchError
		if err := b.Flush(ctx); !errors.As(err, &be) || !errors.Is(err, f.Err()) || len(c.vals) != 0 {
			t.Errorf("flush = %v over %v, want a recording error carrying %v and nothing applied", err, c.vals, f.Err())
		}
	})

	t.Run("owned by a cursor run", func(t *testing.T) {
		fx := newFixture(t)
		b := core.New(fx.client, fx.dirRef)
		size := b.Root().CallCursor("AllFiles").Call("GetSize")
		b.Root().Call("GetFile", size)
		var be *core.BatchError
		if err := b.Flush(ctx); !errors.As(err, &be) {
			t.Errorf("flush = %v, want a recording error", err)
		}
	})

	t.Run("nil", func(t *testing.T) {
		fx := newFixture(t)
		b := core.New(fx.client, fx.dirRef)
		b.Root().Call("GetFile", (*core.Future)(nil))
		var be *core.BatchError
		if err := b.Flush(ctx); !errors.As(err, &be) {
			t.Errorf("flush = %v, want a recording error", err)
		}
	})
}

// valueRefRequest is [Add(40), Add(<-call 0)] on the request's root: the
// second call takes the first one's value by reference.
func valueRefRequest(root uint64) *core.BatchRequest {
	return &core.BatchRequest{Root: root, Calls: []core.Invocation{
		{Seq: 0, Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{{Val: int64(40)}}},
		{Seq: 1, Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 0}}},
	}}
}

// TestValueRefWireForm: a value reference is the reference a remote result
// has always been — same message, same fields, nothing new on the wire. The
// named bytes were captured at the commit before the executor resolved one,
// the standard-form bytes are the same less the named definitions the
// standard type table removed; turning the producer into a remote-result call
// changes its kind byte and nothing about the argument.
func TestValueRefWireForm(t *testing.T) {
	const want = "13020205100a0213030504000401080341646404020a01130401045013030504020401080341646404020a011304020103"
	const named = "0d010862726d692e7265710c010205100a020d020862726d692e696e760c020504000401080341646404020a010d030862726d692e6172670c030104500c020504020401080341646404020a010c03020103"
	req := valueRefRequest(16)
	got, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Errorf("request with a value reference encodes to\n  %x, want\n  %s", got, want)
	}
	checkStandardForm(t, named, got)
	req.Calls[0].Kind = 2
	remote, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if len(remote) != len(got) || remote[i] != got[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("a remote-result reference differs from a value reference in %d bytes, want 1 (the producer's kind)\n  %x\n  %x", diff, remote, got)
	}
}

// TestValueRefSeeds: the value-ref* entries of FuzzBatchRequest's committed
// corpus are the encoder's bytes for the four shapes, and executed they answer
// as the shapes say: the well-formed one splices, the other three fail the
// referencing call alone.
func TestValueRefSeeds(t *testing.T) {
	env := newGetbatchEnv(t)
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	for name, tc := range map[string]struct {
		req *core.BatchRequest
		bad int // the call that fails unresolved, -1 for none
	}{
		"value-ref":            {valueRef, -1},
		"value-ref-forward":    {valueRefForward, 0},
		"value-ref-self":       {valueRefSelf, 0},
		"value-ref-stale-wave": {valueRefStaleWave, 1},
	} {
		want, err := wire.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBatchRequest", name))
		if err != nil {
			t.Fatal(err)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(string(seed), "go test fuzz v1\n[]byte("), ")\n")
		if got, err := strconv.Unquote(quoted); err != nil || got != string(want) {
			t.Errorf("seed %s holds %q (%v), the encoder says %q", name, got, err, want)
		}
		res, err := env.client.Call(context.Background(), exec, "InvokeBatch", tc.req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var unresolved *core.UnresolvedRefError
		for i, r := range res[0].(*core.BatchResponse).Results {
			if (i == tc.bad) != errors.As(r.Err, &unresolved) {
				t.Errorf("%s: call %d = %v, %v", name, i, r.Value, r.Err)
			}
		}
	}
}

// TestValueRefHostile: a reference that names no value of the request — one
// later in it, the call itself, a value of an earlier flush of the chain, a
// cursor run's call, nothing at all — or a value where a target belongs fails
// that one call, typed and unexecuted. The rest of the request runs, the
// session table is left as it was, and the peer keeps serving.
func TestValueRefHostile(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	c, ref := exportCounter(t, fx)
	exec := rmi.SystemRef("server", rmi.BatchObjID, rmi.BatchIface)
	add := func(seq int64, arg core.BatchArg) core.Invocation {
		return core.Invocation{Seq: seq, Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{arg}}
	}
	lit, at := func(v int64) core.BatchArg { return core.BatchArg{Val: v} }, func(seq int64) core.BatchArg { return core.BatchArg{IsRef: true, Seq: seq} }
	invoke := func(t *testing.T, req *core.BatchRequest) *core.BatchResponse {
		t.Helper()
		res, err := fx.client.Call(ctx, exec, "InvokeBatch", req)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].(*core.BatchResponse)
	}

	// An earlier flush of a chain: its value is the client's, not the session's.
	first := invoke(t, &core.BatchRequest{Root: ref.ObjID, KeepSession: true, Calls: []core.Invocation{add(0, lit(1))}})
	if first.Session == 0 || fx.exec.NumSessions() != 1 {
		t.Fatalf("chain kept session %d, server holds %d", first.Session, fx.exec.NumSessions())
	}

	for name, tc := range map[string]struct {
		req *core.BatchRequest
		bad int // index of the call that must fail unresolved
	}{
		"forward":    {&core.BatchRequest{Root: ref.ObjID, Calls: []core.Invocation{add(0, at(1)), add(1, lit(5))}}, 0},
		"self":       {&core.BatchRequest{Root: ref.ObjID, Calls: []core.Invocation{add(0, at(0)), add(1, lit(5))}}, 0},
		"stale wave": {&core.BatchRequest{Session: first.Session, KeepSession: true, Calls: []core.Invocation{add(1, at(0)), add(2, lit(5))}}, 0},
		"nothing":    {&core.BatchRequest{Root: ref.ObjID, Calls: []core.Invocation{add(0, lit(5)), add(1, at(99))}}, 1},
		"as target": {&core.BatchRequest{Root: ref.ObjID, Calls: []core.Invocation{add(0, lit(5)),
			{Seq: 1, Target: 0, Method: "Add", Kind: 1, Args: []core.BatchArg{lit(6)}}, add(2, at(0))}}, 1},
		"not consecutive": {&core.BatchRequest{Root: ref.ObjID, Calls: []core.Invocation{add(0, lit(5)), add(7, lit(5)), add(8, at(7))}}, 2},
	} {
		t.Run(name, func(t *testing.T) {
			applied, sessions := len(c.vals), fx.exec.NumSessions()
			resp := invoke(t, tc.req)
			if len(resp.Results) != len(tc.req.Calls) {
				t.Fatalf("answered %d results for %d calls", len(resp.Results), len(tc.req.Calls))
			}
			var unresolved *core.UnresolvedRefError
			if r := resp.Results[tc.bad]; !errors.As(r.Err, &unresolved) || !r.Skipped {
				t.Errorf("call %d = %v (skipped %v), want a skipped *UnresolvedRefError", tc.bad, r.Err, r.Skipped)
			}
			// Under the default abort policy an unresolved reference is a failed
			// dependency, not a thrown exception: it breaks nothing after it.
			for i, r := range resp.Results {
				if i != tc.bad && r.Err != nil {
					t.Errorf("call %d failed: %v", i, r.Err)
				}
			}
			if got := len(c.vals) - applied; got != len(tc.req.Calls)-1 {
				t.Errorf("%d calls applied, want every call but the unresolved one", got)
			}
			if got := fx.exec.NumSessions(); got != sessions {
				t.Errorf("server holds %d sessions, had %d", got, sessions)
			}
		})
	}

	t.Run("cursor run", func(t *testing.T) {
		// Call 1 belongs to call 0's cursor run: it has one value per element.
		// Neither it nor the cursor itself is a value anyone can take.
		req := &core.BatchRequest{Root: fx.dirRef.ObjID, Roots: []uint64{ref.ObjID}, Policy: core.ContinuePolicy(), Calls: []core.Invocation{
			{Seq: 0, Target: core.RootTarget, Method: "AllFiles", Kind: 3},
			{Seq: 1, Target: 0, Method: "GetName", Kind: 1, CursorOwner: 1},
			{Seq: 2, Target: core.RootTarget - 1, Method: "Add", Kind: 1, Args: []core.BatchArg{at(1)}},
			{Seq: 3, Target: core.RootTarget - 1, Method: "Add", Kind: 1, Args: []core.BatchArg{at(0)}},
		}}
		applied := len(c.vals)
		resp := invoke(t, req)
		var unresolved *core.UnresolvedRefError
		for _, i := range []int{2, 3} {
			if r := resp.Results[i]; !errors.As(r.Err, &unresolved) || !r.Skipped {
				t.Errorf("call %d = %v, want a skipped *UnresolvedRefError", i, r.Err)
			}
		}
		if resp.Results[0].Err != nil || resp.Results[0].Count != 4 || len(c.vals) != applied {
			t.Errorf("cursor = %v over %d elements, counter applied %d more", resp.Results[0].Err, resp.Results[0].Count, len(c.vals)-applied)
		}
	})

	// The chain is still usable, and releasing it leaves nothing behind.
	last := invoke(t, &core.BatchRequest{Session: first.Session, Calls: []core.Invocation{add(3, lit(2)), add(4, at(3))}})
	if r := last.Results[1]; r.Err != nil {
		t.Errorf("the chain's last flush: %v", r.Err)
	}
	if n := fx.exec.NumSessions(); n != 0 {
		t.Errorf("server holds %d sessions after the chain closed", n)
	}
}

// TestValueTableIsNotSessionState: a chained session that saw value splices
// expires like any other, and what its waves produced went with each wave —
// the next flush of the chain cannot reach a value of the previous one.
func TestValueTableIsNotSessionState(t *testing.T) {
	fx := newFixture(t, core.WithSessionTTL(30*time.Millisecond))
	ctx := context.Background()
	_, ref := exportCounter(t, fx)
	exec := rmi.SystemRef("server", rmi.BatchObjID, rmi.BatchIface)
	req := valueRefRequest(ref.ObjID)
	req.KeepSession = true
	res, err := fx.client.Call(ctx, exec, "InvokeBatch", req)
	if err != nil {
		t.Fatal(err)
	}
	resp := res[0].(*core.BatchResponse)
	if r := resp.Results[1]; r.Err != nil || r.Value != int64(2) {
		t.Fatalf("spliced call = %v, %v; want 2", r.Value, r.Err)
	}
	next := &core.BatchRequest{Session: resp.Session, KeepSession: true, Calls: []core.Invocation{
		{Seq: 2, Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 1}}},
	}}
	if res, err = fx.client.Call(ctx, exec, "InvokeBatch", next); err != nil {
		t.Fatal(err)
	}
	var unresolved *core.UnresolvedRefError
	if r := res[0].(*core.BatchResponse).Results[0]; !errors.As(r.Err, &unresolved) {
		t.Errorf("the chain's next flush reached the previous wave's value: %v, %v", r.Value, r.Err)
	}
	for deadline := time.Now().Add(2 * time.Second); fx.exec.NumSessions() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("session survived its TTL: %d left", fx.exec.NumSessions())
		}
	}
}

// TestValueTableSize: the table is one slot per call of the request, whatever
// the request's references say, and absent when none names a value.
func TestValueTableSize(t *testing.T) {
	ref := func(seq int64) []core.BatchArg { return []core.BatchArg{{IsRef: true, Seq: seq}} }
	value := func(seq int64, args []core.BatchArg) core.Invocation {
		return core.Invocation{Seq: seq, Target: core.RootTarget, Method: "Add", Kind: 1, Args: args}
	}
	for name, tc := range map[string]struct {
		calls []core.Invocation
		want  int
	}{
		"no reference":       {[]core.Invocation{value(0, nil), value(1, []core.BatchArg{{Val: int64(1)}})}, 0},
		"remote reference":   {[]core.Invocation{{Seq: 0, Target: core.RootTarget, Method: "Self", Kind: 2}, value(1, ref(0))}, 0},
		"root and far away":  {[]core.Invocation{value(0, ref(core.RootTarget)), value(1, ref(1<<50)), value(2, ref(-1<<50))}, 0},
		"one value":          {[]core.Invocation{value(0, nil), value(1, ref(0)), value(2, nil)}, 3},
		"same value, thrice": {[]core.Invocation{value(0, nil), value(1, append(append(ref(0), ref(0)...), ref(0)...))}, 2},
		"forward and self":   {[]core.Invocation{value(0, ref(1)), value(1, ref(1))}, 2},
	} {
		if got := core.ValueSlotsForTest(tc.calls); got != tc.want {
			t.Errorf("%s: table of %d slots for %d calls, want %d", name, got, len(tc.calls), tc.want)
		}
	}
}
