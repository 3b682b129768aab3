package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

func silentLogf(string, ...any) {}

// --- test application: the paper's running example (files/directories) ------

type permissionError struct {
	File string
}

func (e *permissionError) Error() string { return "permission denied: " + e.File }

type fileNotFoundError struct {
	Name string
}

func (e *fileNotFoundError) Error() string { return "file not found: " + e.Name }

type file struct {
	rmi.RemoteBase
	dir    *directory
	name   string
	size   int
	date   time.Time
	locked bool
}

func (f *file) GetName() string { return f.name }

func (f *file) GetSize() (int, error) {
	if f.locked {
		return 0, &permissionError{File: f.name}
	}
	return f.size, nil
}

func (f *file) GetDate() time.Time { return f.date }

func (f *file) Delete() {
	f.dir.delete(f.name)
}

type directory struct {
	rmi.RemoteBase
	mu    sync.Mutex
	files []*file
}

func (d *directory) GetFile(name string) (*file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range d.files {
		if f.name == name {
			return f, nil
		}
	}
	return nil, &fileNotFoundError{Name: name}
}

func (d *directory) AllFiles() []*file {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*file, len(d.files))
	copy(out, d.files)
	return out
}

func (d *directory) Names() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, len(d.files))
	for i, f := range d.files {
		names[i] = f.name
	}
	return names
}

func (d *directory) delete(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, f := range d.files {
		if f.name == name {
			d.files = append(d.files[:i], d.files[i+1:]...)
			return
		}
	}
}

// identity test service (paper §5.3 Remote Simulation shape).
type balancer struct {
	rmi.RemoteBase
	calls int
}

func (b *balancer) Balance() { b.calls++ }

type simulation struct {
	rmi.RemoteBase
	created *balancer
}

func (s *simulation) CreateBalancer() *balancer {
	s.created = &balancer{}
	return s.created
}

// PerformStep reports whether the balancer argument is the identical object
// CreateBalancer returned — BRMI must make this true (§4.4).
func (s *simulation) PerformStep(reps int, b any) bool {
	bb, ok := b.(*balancer)
	if !ok {
		return false
	}
	for i := 0; i < reps; i++ {
		bb.Balance()
	}
	return bb == s.created
}

// flaky fails its first n calls, for Repeat/Restart policies.
type flaky struct {
	rmi.RemoteBase
	mu       sync.Mutex
	failures int
	calls    int
}

func (f *flaky) Work() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls <= f.failures {
		return 0, &permissionError{File: fmt.Sprintf("attempt-%d", f.calls)}
	}
	return f.calls, nil
}

func (f *flaky) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func init() {
	wire.MustRegisterError("coretest.Permission", &permissionError{})
	wire.MustRegisterError("coretest.FileNotFound", &fileNotFoundError{})
	rmi.RegisterImpl("coretest.File", &file{})
	rmi.RegisterImpl("coretest.Balancer", &balancer{})
}

// --- fixtures ---------------------------------------------------------------

type fixture struct {
	server *rmi.Peer
	client *rmi.Peer
	exec   *core.Executor
	dir    *directory
	dirRef wire.Ref
}

func baseDate(day int) time.Time {
	return time.Date(2009, 6, day, 0, 0, 0, 0, time.UTC)
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixtureTTL(t, core.DefaultSessionTTL)
}

// newFixtureTTL is newFixture with chained sessions that expire after ttl.
func newFixtureTTL(t *testing.T, ttl time.Duration) *fixture {
	t.Helper()
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	if err := server.Serve("server"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	exec, err := core.InstallWithTTL(server, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Stop)
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	t.Cleanup(func() { _ = client.Close() })

	dir := &directory{}
	for i, spec := range []struct {
		name   string
		size   int
		day    int
		locked bool
	}{
		{"index.html", 1024, 1, false},
		{"A.txt", 42, 2, false},
		{"B.txt", 77, 20, false},
		{"secret.bin", 512, 3, true},
	} {
		dir.files = append(dir.files, &file{dir: dir, name: spec.name, size: spec.size + i*0, date: baseDate(spec.day), locked: spec.locked})
	}
	dirRef, err := server.Export(dir, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{server: server, client: client, exec: exec, dir: dir, dirRef: dirRef}
}

// --- tests -------------------------------------------------------------------

// TestRunningExample reproduces the paper's §3.2 example: getFile, getName,
// getSize batched into one round trip.
func TestRunningExample(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	before := fx.client.CallCount()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	index := root.CallBatch("GetFile", "index.html")
	name := index.Call("GetName")
	size := index.Call("GetSize")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	rounds := fx.client.CallCount() - before
	if rounds != 1 {
		t.Fatalf("batch used %d round trips, want 1", rounds)
	}

	gotName, err := core.Typed[string](name).Get()
	if err != nil || gotName != "index.html" {
		t.Fatalf("name: %v %q", err, gotName)
	}
	gotSize, err := core.Typed[int](size).Get()
	if err != nil || gotSize != 1024 {
		t.Fatalf("size: %v %d", err, gotSize)
	}
}

func TestFutureBeforeFlush(t *testing.T) {
	fx := newFixture(t)
	//brmivet:ignore unflushed pre-flush ErrPending is the subject under test
	b := core.New(fx.client, fx.dirRef)
	name := b.Root().CallBatch("GetFile", "A.txt").Call("GetName")
	//brmivet:ignore futurederef asserts ErrPending before flush on purpose
	if _, err := name.Get(); !errors.Is(err, core.ErrPending) {
		t.Fatalf("got %v, want ErrPending", err)
	}
}

func TestExceptionOnFuture(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	secret := root.CallBatch("GetFile", "secret.bin")
	name := secret.Call("GetName")
	size := secret.Call("GetSize") // locked: throws permissionError
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := name.Get(); err != nil || v.(string) != "secret.bin" {
		t.Fatalf("name: %v %v", err, v)
	}
	_, err := size.Get()
	var pe *permissionError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want permissionError", err)
	}
}

// TestDependencyPropagation: when getFile throws, the dependent futures
// rethrow the getFile exception ("the get method of a future rethrows any
// exception on which the future's value depends", §3.3).
func TestDependencyPropagation(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	ghost := root.CallBatch("GetFile", "missing.txt")
	name := ghost.Call("GetName")
	size := ghost.Call("GetSize")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var fnf *fileNotFoundError
	if _, err := name.Get(); !errors.As(err, &fnf) {
		t.Fatalf("name: got %v, want fileNotFoundError", err)
	}
	if _, err := size.Get(); !errors.As(err, &fnf) {
		t.Fatalf("size: got %v, want fileNotFoundError", err)
	}
	if err := ghost.Ok(); !errors.As(err, &fnf) {
		t.Fatalf("ok: got %v, want fileNotFoundError", err)
	}
}

// TestAbortPolicySkipsRest: default policy aborts the batch on the first
// exception; later, unrelated calls are skipped and their futures rethrow
// the aborting error.
func TestAbortPolicySkipsRest(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	ghost := root.CallBatch("GetFile", "missing.txt") // fails
	_ = ghost
	other := root.CallBatch("GetFile", "A.txt") // unrelated but after the failure
	name := other.Call("GetName")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var fnf *fileNotFoundError
	if _, err := name.Get(); !errors.As(err, &fnf) {
		t.Fatalf("got %v, want the aborting fileNotFoundError", err)
	}
}

// TestContinuePolicy: execution continues past exceptions; independent
// calls succeed.
func TestContinuePolicy(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(core.ContinuePolicy()))
	root := b.Root()
	ghost := root.CallBatch("GetFile", "missing.txt") // fails
	gname := ghost.Call("GetName")                    // dependent: fails
	other := root.CallBatch("GetFile", "A.txt")       // independent: succeeds
	oname := other.Call("GetName")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var fnf *fileNotFoundError
	if _, err := gname.Get(); !errors.As(err, &fnf) {
		t.Fatalf("dependent: got %v, want fileNotFoundError", err)
	}
	if v, err := oname.Get(); err != nil || v.(string) != "A.txt" {
		t.Fatalf("independent: %v %v", err, v)
	}
}

// TestCustomPolicyBreak mirrors the paper's Bank case study (§5.1): break
// on a specific exception from a specific method, continue otherwise.
func TestCustomPolicyBreak(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	policy := core.CustomPolicy().
		SetDefaultAction(core.ActionContinue).
		SetAction("coretest.FileNotFound", "GetFile", 0, core.ActionBreak)
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(policy))
	root := b.Root()
	ghost := root.CallBatch("GetFile", "missing.txt") // rule: break
	_ = ghost
	after := root.CallBatch("GetFile", "A.txt")
	aname := after.Call("GetName")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var fnf *fileNotFoundError
	if _, err := aname.Get(); !errors.As(err, &fnf) {
		t.Fatalf("got %v, want batch broken by fileNotFoundError", err)
	}
}

func TestCustomPolicyRuleSpecificity(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	// Default break, but continue specifically past GetSize permission
	// errors.
	policy := core.CustomPolicy().
		SetDefaultAction(core.ActionBreak).
		SetAction("coretest.Permission", "GetSize", core.AnyIndex, core.ActionContinue)
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(policy))
	root := b.Root()
	secret := root.CallBatch("GetFile", "secret.bin")
	size := secret.Call("GetSize") // permission error: rule says continue
	other := root.CallBatch("GetFile", "A.txt")
	oname := other.Call("GetName")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var pe *permissionError
	if _, err := size.Get(); !errors.As(err, &pe) {
		t.Fatalf("size: got %v, want permissionError", err)
	}
	if v, err := oname.Get(); err != nil || v.(string) != "A.txt" {
		t.Fatalf("after continue: %v %v", err, v)
	}
}

func TestRepeatPolicy(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fl := &flaky{failures: 2}
	ref, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRepeat)
	policy.MaxAttempts = 5
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	root := b.Root()
	v := root.Call("Work")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := core.Typed[int](v).Get()
	if err != nil {
		t.Fatalf("repeat did not recover: %v", err)
	}
	if got != 3 {
		t.Fatalf("got %d, want success on attempt 3", got)
	}
}

func TestRepeatPolicyExhausted(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fl := &flaky{failures: 100}
	ref, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRepeat)
	policy.MaxAttempts = 3
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	v := b.Root().Call("Work")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var pe *permissionError
	if _, err := v.Get(); !errors.As(err, &pe) {
		t.Fatalf("got %v, want permissionError after exhausted retries", err)
	}
	if fl.Calls() != 3 {
		t.Fatalf("server saw %d attempts, want 3", fl.Calls())
	}
}

func TestRestartPolicy(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fl := &flaky{failures: 1} // first execution of the batch fails, rerun succeeds
	ref, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRestart)
	b := core.New(fx.client, ref, core.WithPolicy(policy))
	v := b.Root().Call("Work")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := core.Typed[int](v).Get()
	if err != nil || got != 2 {
		t.Fatalf("restart: %v %d, want value 2 (second run)", err, got)
	}
}

// TestCursor reproduces §3.4: name and size of every file in one batch.
func TestCursor(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(core.ContinuePolicy()))
	root := b.Root()
	cursor := root.CallCursor("AllFiles")
	name := cursor.Call("GetName")
	date := cursor.Call("GetDate")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	n, err := cursor.Len()
	if err != nil || n != 4 {
		t.Fatalf("len: %v %d", err, n)
	}
	var names []string
	var dates []time.Time
	for cursor.Next() {
		v, err := core.Typed[string](name).Get()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, v)
		d, err := core.Typed[time.Time](date).Get()
		if err != nil {
			t.Fatal(err)
		}
		dates = append(dates, d)
	}
	want := []string{"index.html", "A.txt", "B.txt", "secret.bin"}
	if len(names) != 4 {
		t.Fatalf("iterated %d elements", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	if !dates[0].Equal(baseDate(1)) || !dates[2].Equal(baseDate(20)) {
		t.Fatalf("dates = %v", dates)
	}
	// After exhaustion, futures report ErrCursorExhausted.
	if _, err := name.Get(); !errors.Is(err, core.ErrCursorExhausted) {
		t.Fatalf("after exhaustion: %v", err)
	}
	// Reset rewinds.
	cursor.Reset()
	if !cursor.Next() {
		t.Fatal("Next after Reset failed")
	}
	if v, _ := core.Typed[string](name).Get(); v != "index.html" {
		t.Fatalf("after reset: %q", v)
	}
}

func TestCursorBeforeNext(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	cursor := b.Root().CallCursor("AllFiles")
	name := cursor.Call("GetName")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := name.Get(); !errors.Is(err, core.ErrCursorNotStarted) {
		t.Fatalf("got %v, want ErrCursorNotStarted", err)
	}
}

func TestCursorEmptySlice(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	fx.dir.files = nil
	b := core.New(fx.client, fx.dirRef)
	cursor := b.Root().CallCursor("AllFiles")
	name := cursor.Call("GetName")
	_ = name
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if n, err := cursor.Len(); err != nil || n != 0 {
		t.Fatalf("len: %v %d", err, n)
	}
	if cursor.Next() {
		t.Fatal("Next on empty cursor returned true")
	}
}

// TestCursorPerElementError: the paper's motivating case for ContinuePolicy
// — one locked file must not spoil the listing (§3.3, §5.1).
func TestCursorPerElementError(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef, core.WithPolicy(core.ContinuePolicy()))
	cursor := b.Root().CallCursor("AllFiles")
	name := cursor.Call("GetName")
	size := cursor.Call("GetSize")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	okCount, errCount := 0, 0
	for cursor.Next() {
		if _, err := name.Get(); err != nil {
			t.Fatalf("name should never fail: %v", err)
		}
		if _, err := size.Get(); err != nil {
			var pe *permissionError
			if !errors.As(err, &pe) {
				t.Fatalf("got %v, want permissionError", err)
			}
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 3 || errCount != 1 {
		t.Fatalf("ok=%d err=%d, want 3/1", okCount, errCount)
	}
}

func TestCursorInterleavingRejected(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	cursor := root.CallCursor("AllFiles")
	_ = cursor.Call("GetName")
	_ = root.Call("Names")     // interrupts the cursor's run
	_ = cursor.Call("GetSize") // violation: cursor ops must be contiguous
	err := root.Flush(ctx)
	if !errors.Is(err, core.ErrCursorInterleaved) {
		t.Fatalf("got %v, want ErrCursorInterleaved", err)
	}
}

func TestNestedCursorRejected(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	cursor := b.Root().CallCursor("AllFiles")
	_ = cursor.CallCursor("AllFiles")
	if err := b.Flush(ctx); !errors.Is(err, core.ErrNestedCursor) {
		t.Fatalf("got %v, want ErrNestedCursor", err)
	}
}

// TestChainedBatch reproduces §3.5: fetch a date, decide client-side, then
// delete in a chained batch that reuses the server-side object.
func TestChainedBatch(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	cutoff := baseDate(10)

	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	mFile := root.CallBatch("GetFile", "A.txt")
	date := mFile.Call("GetDate")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	d, err := core.Typed[time.Time](date).Get()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Before(cutoff) {
		t.Fatalf("A.txt date %v not before cutoff", d)
	}
	name := mFile.Call("GetName")
	_ = mFile.Call("Delete")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := name.Get(); err != nil || v.(string) != "A.txt" {
		t.Fatalf("name: %v %v", err, v)
	}
	for _, n := range fx.dir.Names() {
		if n == "A.txt" {
			t.Fatal("A.txt not deleted")
		}
	}
}

// TestChainedCursor reproduces the paper's delete-files-older-than example
// (§3.5): two batches total.
func TestChainedCursor(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	cutoff := baseDate(10)

	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	cursor := root.CallCursor("AllFiles")
	date := cursor.Call("GetDate")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	for cursor.Next() {
		d, err := core.Typed[time.Time](date).Get()
		if err != nil {
			t.Fatal(err)
		}
		if d.Before(cutoff) {
			_ = cursor.Call("Delete")
		}
	}
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	names := fx.dir.Names()
	if len(names) != 1 || names[0] != "B.txt" {
		t.Fatalf("remaining files %v, want [B.txt] (only one newer than cutoff)", names)
	}
}

// TestIdentityPreserved reproduces §4.4/§5.3: the balancer passed back into
// PerformStep is the identical server object, so its calls are local.
func TestIdentityPreserved(t *testing.T) {
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
	same := root.Call("PerformStep", 10, bal)
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	v, err := core.Typed[bool](same).Get()
	if err != nil {
		t.Fatal(err)
	}
	if !v {
		t.Fatal("identity lost: PerformStep did not receive the created balancer")
	}
	if sim.created.calls != 10 {
		t.Fatalf("balance called %d times, want 10", sim.created.calls)
	}
}

func TestForeignProxyRejected(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b1 := core.New(fx.client, fx.dirRef)
	b2 := core.New(fx.client, fx.dirRef)
	f1 := b1.Root().CallBatch("GetFile", "A.txt")
	_ = b2.Root().Call("PerformStep", 1, f1) // proxy from b1 used in b2
	if err := b2.Flush(ctx); !errors.Is(err, core.ErrForeignProxy) {
		t.Fatalf("got %v, want ErrForeignProxy", err)
	}
}

func TestBatchClosedAfterFlush(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	_ = root.Call("Names")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := root.Flush(ctx); !errors.Is(err, core.ErrBatchClosed) {
		t.Fatalf("second flush: got %v, want ErrBatchClosed", err)
	}
	f := root.Call("Names")
	if err := b.Flush(ctx); !errors.Is(err, core.ErrBatchClosed) {
		t.Fatalf("flush after closed recording: got %v", err)
	}
	if _, err := f.Get(); err == nil {
		t.Fatal("future recorded after close returned a value")
	}
}

func TestSessionLifecycle(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	_ = root.Call("Names")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Session() == 0 {
		t.Fatal("no session after FlushAndContinue")
	}
	if fx.exec.NumSessions() != 1 {
		t.Fatalf("server sessions = %d, want 1", fx.exec.NumSessions())
	}
	_ = root.Call("Names")
	if err := root.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Session() != 0 {
		t.Fatal("session survived Flush")
	}
	if fx.exec.NumSessions() != 0 {
		t.Fatalf("server sessions = %d, want 0", fx.exec.NumSessions())
	}
}

func TestSessionExpiry(t *testing.T) {
	fx := newFixtureTTL(t, 30*time.Millisecond)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	root := b.Root()
	f := root.CallBatch("GetFile", "A.txt")
	if err := root.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // several sweep periods
	_ = f.Call("GetName")
	err := root.Flush(ctx)
	var se *core.SessionExpiredError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want SessionExpiredError", err)
	}
}

func TestNoBatchService(t *testing.T) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	if err := server.Serve("bare"); err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer client.Close()
	dir := &directory{}
	ref, err := server.Export(dir, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(client, ref)
	_ = b.Root().Call("Names")
	if err := b.Flush(context.Background()); !errors.Is(err, core.ErrNoBatchService) {
		t.Fatalf("got %v, want ErrNoBatchService", err)
	}
}

func TestEmptyFlush(t *testing.T) {
	fx := newFixture(t)
	if err := core.New(fx.client, fx.dirRef).Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestKindMismatchValueForRemote(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	f := b.Root().Call("GetFile", "A.txt") // wrong: returns a remote object
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := f.Get()
	var km *core.KindMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("got %v, want KindMismatchError", err)
	}
}

func TestKindMismatchRemoteForValue(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	p := b.Root().CallBatch("Names") // wrong: returns a value
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	err := p.Ok()
	var km *core.KindMismatchError
	if !errors.As(err, &km) {
		t.Fatalf("got %v, want KindMismatchError", err)
	}
}

func TestVoidFutureErrChecking(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	f := b.Root().CallBatch("GetFile", "A.txt")
	del := f.Call("Delete") // void method: future exists for error checking
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := del.Err(); err != nil {
		t.Fatalf("void future err: %v", err)
	}
}

func TestConcurrentIndependentBatches(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := core.New(fx.client, fx.dirRef)
			f := b.Root().CallBatch("GetFile", "index.html")
			name := f.Call("GetName")
			if err := b.Flush(ctx); err != nil {
				errs <- err
				return
			}
			if v, err := name.Get(); err != nil || v.(string) != "index.html" {
				errs <- fmt.Errorf("got %v %v", err, v)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTypedFutureConversions(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	b := core.New(fx.client, fx.dirRef)
	f := b.Root().CallBatch("GetFile", "A.txt")
	size := f.Call("GetSize")
	name := f.Call("GetName")
	date := f.Call("GetDate")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := core.Typed[int64](size).Get(); err != nil || v != 42 {
		t.Fatalf("int64: %v %v", err, v)
	}
	if v, err := core.Typed[float64](size).Get(); err != nil || v != 42 {
		t.Fatalf("float64: %v %v", err, v)
	}
	if v, err := core.Typed[string](name).Get(); err != nil || v != "A.txt" {
		t.Fatalf("string: %v %v", err, v)
	}
	if v, err := core.Typed[time.Time](date).Get(); err != nil || !v.Equal(baseDate(2)) {
		t.Fatalf("time: %v %v", err, v)
	}
	if _, err := core.Typed[string](size).Get(); err == nil {
		t.Fatal("int-to-string conversion succeeded")
	}
}

// TestRoundTripComparison quantifies the headline claim: the paper's file
// listing needs 1 + 4n RMI calls but exactly one BRMI call (§5.1).
func TestRoundTripComparison(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	// Plain RMI: listFiles + per-file getName/getSize/getDate.
	before := fx.client.CallCount()
	res, err := fx.client.Call(ctx, fx.dirRef, "AllFiles")
	if err != nil {
		t.Fatal(err)
	}
	files := res[0].([]any)
	for _, f := range files {
		stub := f.(*rmi.Stub)
		if _, err := stub.InvokeOne(ctx, "GetName"); err != nil {
			t.Fatal(err)
		}
		if _, err := stub.InvokeOne(ctx, "GetDate"); err != nil {
			t.Fatal(err)
		}
	}
	rmiCalls := fx.client.CallCount() - before
	wantRMI := uint64(1 + 2*len(files))
	if rmiCalls != wantRMI {
		t.Fatalf("RMI used %d calls, want %d", rmiCalls, wantRMI)
	}

	// BRMI: one flush.
	before = fx.client.CallCount()
	b := core.New(fx.client, fx.dirRef)
	cursor := b.Root().CallCursor("AllFiles")
	_ = cursor.Call("GetName")
	_ = cursor.Call("GetDate")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := fx.client.CallCount() - before; got != 1 {
		t.Fatalf("BRMI used %d calls, want 1", got)
	}
}
