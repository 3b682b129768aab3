package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// jobQueue exposes slices of non-remote values and flaky per-item work,
// for cursor and policy edge cases beyond the file-server domain.
type jobQueue struct {
	rmi.RemoteBase
	names  []string
	failAt int // index of the job whose Run fails; -1 for none
	jobs   []*job
}

type job struct {
	rmi.RemoteBase
	id   int
	fail bool
	runs int
}

func (j *job) ID() int { return j.id }

func (j *job) Run() (int, error) {
	j.runs++
	if j.fail {
		return 0, &permissionError{File: fmt.Sprintf("job-%d", j.id)}
	}
	return j.id * 10, nil
}

func newJobQueue(n, failAt int) *jobQueue {
	q := &jobQueue{failAt: failAt}
	for i := 0; i < n; i++ {
		q.names = append(q.names, fmt.Sprintf("job-%d", i))
		q.jobs = append(q.jobs, &job{id: i, fail: i == failAt})
	}
	return q
}

func (q *jobQueue) Names() []string { return q.names }
func (q *jobQueue) Jobs() []*job    { return q.jobs }

// TestCursorOverValueSlice: cursors also work over slices of plain values
// (the paper extends cursors to any collection); with no recorded
// operations the cursor still reports the element count.
func TestCursorOverValueSlice(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	q := newJobQueue(5, -1)
	ref, err := fx.server.Export(q, "coretest.JobQueue")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, ref)
	cursor := b.Root().CallCursor("Names")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	n, err := cursor.Len()
	if err != nil || n != 5 {
		t.Fatalf("len: %v %d", err, n)
	}
	steps := 0
	for cursor.Next() {
		steps++
	}
	if steps != 5 {
		t.Fatalf("iterated %d", steps)
	}
}

// TestCursorRepeatPolicyPerElement: under a Repeat policy, successful
// element operations run exactly once — retries never leak to elements
// that did not fail.
func TestCursorRepeatPolicyPerElement(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	q := newJobQueue(3, -1) // no failing job
	ref, err := fx.server.Export(q, "coretest.JobQueue")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRepeat)
	policy.MaxAttempts = 2
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	cursor := b.Root().CallCursor("Jobs")
	result := cursor.Call("Run")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	okCount := 0
	for cursor.Next() {
		if _, err := result.Get(); err == nil {
			okCount++
		}
	}
	if okCount != 3 {
		t.Fatalf("ok=%d, want all 3 (no element permanently fails)", okCount)
	}
	// Every job ran exactly once: no spurious retries of successes.
	for i, j := range q.jobs {
		if j.runs != 1 {
			t.Fatalf("job %d ran %d times", i, j.runs)
		}
	}
}

// TestCursorRepeatExhaustsThenRecords: a deterministic per-element failure
// under Repeat is retried MaxAttempts times, then recorded; the rest of the
// cursor still runs.
func TestCursorRepeatExhaustsThenRecords(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	q := newJobQueue(3, 1)
	ref, err := fx.server.Export(q, "coretest.JobQueue")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRepeat)
	policy.MaxAttempts = 3
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	cursor := b.Root().CallCursor("Jobs")
	result := cursor.Call("Run")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var errCount, okCount int
	for cursor.Next() {
		if _, err := result.Get(); err != nil {
			var pe *permissionError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v", err)
			}
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 2 || errCount != 1 {
		t.Fatalf("ok=%d err=%d", okCount, errCount)
	}
	if q.jobs[1].runs != 3 {
		t.Fatalf("failing job retried %d times, want 3", q.jobs[1].runs)
	}
}

// TestCursorAbortMarksTail: under the default abort policy, a failing
// element poisons the remaining elements' futures with the aborting error.
func TestCursorAbortMarksTail(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	q := newJobQueue(4, 1)
	ref, err := fx.server.Export(q, "coretest.JobQueue")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, ref) // AbortPolicy
	cursor := b.Root().CallCursor("Jobs")
	result := cursor.Call("Run")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var states []string
	for cursor.Next() {
		if _, err := result.Get(); err != nil {
			states = append(states, "err")
		} else {
			states = append(states, "ok")
		}
	}
	want := []string{"ok", "err", "err", "err"}
	if fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("states %v, want %v", states, want)
	}
	// Elements after the failure never executed.
	if q.jobs[2].runs != 0 || q.jobs[3].runs != 0 {
		t.Fatalf("tail jobs ran: %d %d", q.jobs[2].runs, q.jobs[3].runs)
	}
}

// TestRestartBoundedOnDeterministicFailure: a batch that always fails under
// ActionRestart gives up after MaxRestarts instead of looping forever.
func TestRestartBoundedOnDeterministicFailure(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fl := &flaky{failures: 1 << 30}
	ref, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRestart)
	policy.MaxRestarts = 2
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	v := b.Root().Call("Work")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(); err == nil {
		t.Fatal("deterministic failure succeeded")
	}
	// initial run + 2 restarts = 3 executions
	if got := fl.Calls(); got != 3 {
		t.Fatalf("batch executed %d times, want 3", got)
	}
}

// TestPolicyRuleSpecificityOrdering verifies the most-specific-rule-wins
// contract of Policy.SetAction.
func TestPolicyRuleSpecificityOrdering(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	// Generic rule: continue on permissionError anywhere. Specific rule:
	// break on permissionError from GetSize occurrence 0.
	policy := core.CustomPolicy().
		SetDefaultAction(core.ActionContinue).
		SetActionForError(&permissionError{}, core.ActionContinue).
		SetAction("coretest.Permission", "GetSize", 0, core.ActionBreak)
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(policy))
	root := b.Root()
	secret := root.CallBatch("GetFile", "secret.bin")
	_ = secret.Call("GetSize") // occurrence 0: breaks
	after := root.CallBatch("GetFile", "A.txt")
	aname := after.Call("GetName")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var pe *permissionError
	if _, err := aname.Get(); !errors.As(err, &pe) {
		t.Fatalf("specific Break rule not applied: %v", err)
	}
}

// TestChainedBatchProxyArgAcrossFlush: a proxy created in batch 1 is a
// valid argument in a chained batch 2 (same chain).
func TestChainedBatchProxyArgAcrossFlush(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	sim := &simulation{}
	ref, err := fx.server.Export(sim, "coretest.Simulation")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, ref)
	root := b.Root()
	bal := root.CallBatch("CreateBalancer")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	same := root.Call("PerformStep", 3, bal)
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := core.Typed[bool](same).Get()
	if err != nil || !v {
		t.Fatalf("identity across chained flush: %v %v", err, v)
	}
}

// TestFlushFailurePoisonsFutures: a transport-level flush failure surfaces
// through every pending future as the same BatchError.
func TestFlushFailurePoisonsFutures(t *testing.T) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer client.Close()
	// Ref to a server that does not exist.
	b := core.New(client, wire.Ref{Endpoint: "ghost-endpoint", ObjID: 16, Iface: "X"})
	f := b.Root().Call("Anything")
	err := b.Flush(context.Background())
	var be *core.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("flush: got %v, want BatchError", err)
	}
	if _, gerr := f.Get(); !errors.As(gerr, &be) {
		t.Fatalf("future: got %v, want the BatchError", gerr)
	}
	// The batch is closed afterwards.
	if err := b.Flush(context.Background()); !errors.Is(err, core.ErrBatchClosed) {
		t.Fatalf("reflush: got %v", err)
	}
}

// TestCursorKindMismatchNonSlice: CallCursor on a method returning a
// non-slice yields a KindMismatchError on the cursor.
func TestCursorKindMismatchNonSlice(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	cursor := b.Root().CallCursor("GetFile", "A.txt")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := cursor.Len()
	var km *core.KindMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("got %v, want KindMismatchError", err)
	}
	if cursor.Next() {
		t.Fatal("Next on failed cursor returned true")
	}
}

// TestSessionTTLRefreshedByChainedFlush: every chained flush pushes the
// session expiry out, so long chains survive as long as they keep talking.
func TestSessionTTLRefreshedByChainedFlush(t *testing.T) {
	fx := newFixtureTTL(t, 80*time.Millisecond)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	f := root.CallBatch("GetFile", "A.txt")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	// Three rounds, each within the TTL but cumulatively beyond it.
	for i := 0; i < 3; i++ {
		time.Sleep(50 * time.Millisecond)
		_ = f.Call("GetName")
		if err := root.FlushAndContinue(ctx); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRootOkAlwaysNil: the root proxy has no creating call; Ok is nil even
// before flush.
func TestRootOkAlwaysNil(t *testing.T) {
	fx := newFixture(t)
	//brmivet:ignore unflushed pre-flush Ok behavior is the subject under test
	b := core.New(fx.client, fx.dirRef)
	if err := b.Root().Ok(); err != nil {
		t.Fatalf("root Ok = %v", err)
	}
}

// TestProxyOkPendingBeforeFlush: non-root proxies report ErrPending until
// flushed.
func TestProxyOkPendingBeforeFlush(t *testing.T) {
	fx := newFixture(t)
	//brmivet:ignore unflushed pre-flush Ok behavior is the subject under test
	b := core.New(fx.client, fx.dirRef)
	p := b.Root().CallBatch("GetFile", "A.txt")
	if err := p.Ok(); !errors.Is(err, core.ErrPending) {
		t.Fatalf("got %v, want ErrPending", err)
	}
}

// TestPendingCallsCounter tracks the recording queue length.
func TestPendingCallsCounter(t *testing.T) {
	fx := newFixture(t)
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	if b.PendingCalls() != 0 {
		t.Fatal("fresh batch has pending calls")
	}
	_ = root.Call("Names")
	_ = root.CallBatch("GetFile", "A.txt")
	if got := b.PendingCalls(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := b.PendingCalls(); got != 0 {
		t.Fatalf("pending after flush = %d", got)
	}
}
