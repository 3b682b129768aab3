package bench

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/codegen/fstest"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Variant is one implementation of a workload at one x (typically "RMI" vs
// "BRMI"): Op runs it once in Env.
type Variant struct {
	Name string
	Env  *Env
	Op   func() error
}

// Setup builds the variants of one workload at parameter x inside env.
type Setup func(env *Env, x int) ([]Variant, error)

// Series is one workload of the paper's evaluation swept over the x-axis the
// paper plots.
type Series struct {
	Name   string // its key in BENCH_paper.json
	Figs   string // the figures (or ablation) it reproduces
	XLabel string
	Xs     []int
	Setup  Setup
}

// Paper is the evaluation: Figures 5-13 (§5.3-§5.4; each workload is one
// figure on the LAN and one on the wireless link) and the three ablations
// of DESIGN.md.
var Paper = []Series{
	{"noop", "Figs. 5-6", "method calls", []int{1, 2, 3, 4, 5}, NoopSetup},
	{"list", "Figs. 7-8", "traversals", []int{1, 2, 3, 4, 5}, ListSetup},
	{"list-nobatch", "Fig. 9", "traversals", []int{1, 2, 3, 4, 5}, ListNoBatchSetup},
	{"simulation", "Figs. 10-11", "simulation steps", []int{5, 10, 15, 20, 25, 30, 35, 40}, SimulationSetup},
	{"fileserver", "Figs. 12-13", "files", []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, FileServerSetup},
	{"a1", "Ablation A1", "simulation steps", []int{5, 10, 20, 40}, IdentitySetup},
	{"a2", "Ablation A2", "recorded calls", []int{10, 100, 1000}, StubsSetup},
	{"a3", "Ablation A3", "batch size", []int{1, 2, 4, 8, 20, 40}, BatchSizeSetup},
}

// Count runs every variant of s at x once, in one environment on the
// instant network, and returns the variants' names and counts.
func (s Series) Count(x int) ([]string, []Counts, error) {
	env, err := newEnv(netsim.New(netsim.Instant), &transport.Recorder{}, nil)
	if err != nil {
		return nil, nil, err
	}
	defer env.Close()
	variants, err := s.Setup(env, x)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(variants))
	counts := make([]Counts, len(variants))
	for i, v := range variants {
		names[i] = v.Name
		if counts[i], err = v.count(); err != nil {
			return nil, nil, fmt.Errorf("%s x=%d %w", s.Name, x, err)
		}
	}
	return names, counts, nil
}

// Model is the latency counts c cost on link p: every round trip — the
// client's and the server's loopback calls alike, which netsim routes over
// the link too — pays p's RTT, and the client's bytes pay p's transmission
// time.
func (c Counts) Model(p netsim.Profile) time.Duration {
	d := time.Duration(c.Trips+c.Loopback) * p.RTT
	if p.BitsPerSecond > 0 {
		d += time.Duration(float64(c.BytesOut+c.BytesIn) * 8 / p.BitsPerSecond * float64(time.Second))
	}
	return d
}

// result returns the one result of a call that must return one T, or an
// error naming what came back instead.
func result[T any](method string, res []any) (T, error) {
	var zero T
	if len(res) != 1 {
		return zero, fmt.Errorf("%s returned %d results, want 1", method, len(res))
	}
	v, ok := res[0].(T)
	if !ok {
		return zero, fmt.Errorf("%s returned %T, want %v", method, res[0], reflect.TypeFor[T]())
	}
	return v, nil
}

// --- Figures 5-6: no-op -------------------------------------------------------

// NoopSetup builds the no-op workload: n do-nothing calls, RMI one round
// trip each vs BRMI a single batch (§5.3).
func NoopSetup(env *Env, n int) ([]Variant, error) {
	ref, err := env.Server.Export(&NoopService{}, "bench.Noop")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rmiOp := func() error {
		for i := 0; i < n; i++ {
			if _, err := env.Client.Call(ctx, ref, "Noop"); err != nil {
				return err
			}
		}
		return nil
	}
	brmiOp := func() error {
		b := core.New(env.Client, ref)
		root := b.Root()
		futures := make([]*core.Future, n)
		for i := 0; i < n; i++ {
			futures[i] = root.Call("Noop")
		}
		if err := b.Flush(ctx); err != nil {
			return err
		}
		for _, f := range futures {
			if err := f.Err(); err != nil {
				return err
			}
		}
		return nil
	}
	return []Variant{{"RMI", env, rmiOp}, {"BRMI", env, brmiOp}}, nil
}

// --- Figures 7-9: linked list traversal ----------------------------------------

// ListSetup builds the linked-list traversal workload: follow n Next
// references then read the value. The RMI version marshals a remote object
// per step; BRMI keeps the chain server-side (§5.3).
func ListSetup(env *Env, n int) ([]Variant, error) { return listSetup(env, n, false) }

// ListNoBatchSetup is the Figure 9 variant: BRMI flushes after every call
// (batches of size one). Both sides pay one round trip per step; BRMI still
// wins because replies carry sequence numbers instead of marshalled remote
// objects (§5.3).
func ListNoBatchSetup(env *Env, n int) ([]Variant, error) { return listSetup(env, n, true) }

func listSetup(env *Env, n int, flushEach bool) ([]Variant, error) {
	ref, err := env.Server.Export(BuildList(n+2), "bench.ListNode")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rmiOp := func() error { return rmiTraverse(ctx, env.Client, ref, n) }
	brmiOp := func() error {
		b := core.New(env.Client, ref)
		cur := b.Root()
		for i := 0; i < n; i++ {
			cur = cur.CallBatch("Next")
			if !flushEach {
				continue
			}
			if err := b.FlushAndContinue(ctx); err != nil {
				return err
			}
		}
		v := cur.Call("GetValue")
		if err := b.Flush(ctx); err != nil {
			return err
		}
		got, err := core.Typed[int](v).Get()
		if err == nil && got != n {
			err = fmt.Errorf("traversed to %d, want %d", got, n)
		}
		return err
	}
	return []Variant{{"RMI", env, rmiOp}, {"BRMI", env, brmiOp}}, nil
}

func rmiTraverse(ctx context.Context, client *rmi.Peer, ref wire.Ref, n int) error {
	cur := ref
	for i := 0; i < n; i++ {
		res, err := client.Call(ctx, cur, "Next")
		if err != nil {
			return err
		}
		holder, err := result[rmi.RefHolder]("Next", res)
		if err != nil {
			return err
		}
		cur = holder.Ref()
	}
	res, err := client.Call(ctx, cur, "GetValue")
	if err != nil {
		return err
	}
	got, err := result[int64]("GetValue", res)
	if err != nil {
		return err
	}
	if got != int64(n) {
		return fmt.Errorf("traversed to %d, want %d", got, n)
	}
	return nil
}

// --- Figures 10-11: remote simulation ------------------------------------------

// SimulationReps is how many balance calls each simulation step performs.
// The paper does not publish its value; 2 makes the loopback-vs-local
// difference clearly visible at every step count.
const SimulationReps = 2

// SimulationSetup builds the remote-simulation workload: flush after every
// PerformSimulationStep (batch of one), so the entire BRMI advantage comes
// from preserved reference identity (§4.4).
func SimulationSetup(env *Env, n int) ([]Variant, error) {
	sim := &Simulation{}
	ref, err := env.Server.Export(sim, "bench.Simulation")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rmiOp := func() error {
		res, err := env.Client.Call(ctx, ref, "CreateBalancer")
		if err != nil {
			return err
		}
		bal, err := result[rmi.RefHolder]("CreateBalancer", res)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if _, err := env.Client.Call(ctx, ref, "PerformSimulationStep", SimulationReps, bal); err != nil {
				return err
			}
		}
		_, err = env.Client.Call(ctx, ref, "GetSimulationResults")
		return err
	}
	brmiOp := func() error {
		b := core.New(env.Client, ref)
		root := b.Root()
		bal := root.CallBatch("CreateBalancer")
		if err := b.FlushAndContinue(ctx); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			root.Call("PerformSimulationStep", SimulationReps, bal)
			if err := b.FlushAndContinue(ctx); err != nil {
				return err
			}
		}
		res := root.Call("GetSimulationResults")
		if err := b.Flush(ctx); err != nil {
			return err
		}
		return res.Err()
	}
	return []Variant{{"RMI", env, rmiOp}, {"BRMI", env, brmiOp}}, nil
}

// --- Figures 12-13: remote file server ------------------------------------------

// FileServerTotalBytes is the macro benchmark's constant payload: the
// paper's 100 KB split over the requested files.
const FileServerTotalBytes = 100 << 10

// FileServerSetup builds the macro benchmark: request and transfer n files
// (name, isDirectory, lastModified, length, contents) totalling 100 KB.
// RMI pays 1+5n round trips; BRMI one batch with a cursor (§5.1, §5.4).
func FileServerSetup(env *Env, n int) ([]Variant, error) {
	fs := NewFileServer(n, FileServerTotalBytes)
	ref, err := env.Server.Export(fs, "bench.FileServer")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rmiOp := func() error {
		res, err := env.Client.Call(ctx, ref, "ListFiles")
		if err != nil {
			return err
		}
		files, err := result[[]any]("ListFiles", res)
		if err != nil {
			return err
		}
		for _, f := range files {
			stub, ok := f.(rmi.Invoker)
			if !ok {
				return fmt.Errorf("ListFiles returned a %T element, want rmi.Invoker", f)
			}
			for _, m := range [...]string{"GetName", "IsDirectory", "LastModified", "Length", "Contents"} {
				if _, err := stub.Invoke(ctx, m); err != nil {
					return err
				}
			}
		}
		return nil
	}
	brmiOp := func() error {
		b := core.New(env.Client, ref)
		cursor := b.Root().CallCursor("ListFiles")
		name := cursor.Call("GetName")
		isDir := cursor.Call("IsDirectory")
		modified := cursor.Call("LastModified")
		length := cursor.Call("Length")
		contents := cursor.Call("Contents")
		if err := b.Flush(ctx); err != nil {
			return err
		}
		for cursor.Next() {
			for _, f := range [...]*core.Future{name, isDir, modified, length, contents} {
				if _, err := f.Get(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return []Variant{{"RMI", env, rmiOp}, {"BRMI", env, brmiOp}}, nil
}

// --- Ablations (ours, motivated by DESIGN.md) -----------------------------------

// IdentitySetup is ablation A1, on the simulation workload: faithful RMI
// (loopback stubs), RMI with the local-shortcut resolution Java chose not to
// implement (rmi.WithLocalShortcut, on a server of its own), and BRMI
// identity preservation (design decision 2 in DESIGN.md).
func IdentitySetup(env *Env, n int) ([]Variant, error) {
	base, err := SimulationSetup(env, n)
	if err != nil {
		return nil, err
	}
	other, err := env.alongside(rmi.WithLocalShortcut())
	if err != nil {
		return nil, err
	}
	shortcut, err := SimulationSetup(other, n)
	if err != nil {
		return nil, err
	}
	shortcut[0].Name = "RMI+shortcut"
	return []Variant{base[0], shortcut[0], base[1]}, nil
}

// StubsSetup is ablation A2: the dynamic Proxy API against generated typed
// batch interfaces (design decision 1 in DESIGN.md) recording the same n
// calls, so the typed layer can add only wrapper cost, never wire bytes.
func StubsSetup(env *Env, n int) ([]Variant, error) {
	fs := NewFileServer(1, 1024)
	ref, err := env.Server.Export(fs.files[0], fstest.FileIfaceName)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	dynamic := func() error {
		b := core.New(env.Client, ref)
		root := b.Root()
		futures := make([]*core.Future, n)
		for i := 0; i < n; i++ {
			futures[i] = root.Call("GetName")
		}
		if err := b.Flush(ctx); err != nil {
			return err
		}
		return futures[n-1].Err()
	}
	typed := func() error {
		bf, b := fstest.NewBatchFile(env.Client, ref)
		futures := make([]core.TypedFuture[string], n)
		for i := 0; i < n; i++ {
			futures[i] = bf.GetName()
		}
		if err := b.Flush(ctx); err != nil {
			return err
		}
		_, err := futures[n-1].Get()
		return err
	}
	return []Variant{{"dynamic", env, dynamic}, {"generated", env, typed}}, nil
}

// BatchSizeCalls is ablation A3's fixed number of no-op calls.
const BatchSizeCalls = 40

// BatchSizeSetup is ablation A3: BatchSizeCalls no-op calls flushed every k
// calls, quantifying how batch size amortizes the round trip (generalizes
// Figure 9).
func BatchSizeSetup(env *Env, k int) ([]Variant, error) {
	ref, err := env.Server.Export(&NoopService{}, "bench.Noop")
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	op := func() error {
		b := core.New(env.Client, ref)
		root := b.Root()
		for i := 1; i < BatchSizeCalls; i++ {
			root.Call("Noop")
			if i%k == 0 {
				if err := b.FlushAndContinue(ctx); err != nil {
					return err
				}
			}
		}
		root.Call("Noop")
		return b.Flush(ctx)
	}
	return []Variant{{"BRMI", env, op}}, nil
}
