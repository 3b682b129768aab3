package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// Env is one client/server pair on a simulated network, ready to run a
// workload.
type Env struct {
	Network *netsim.Network
	Server  *rmi.Peer
	Client  *rmi.Peer
	Exec    *core.Executor

	cleanup []func()
}

// EnvOption configures environment construction.
type EnvOption func(*envConfig)

type envConfig struct {
	serverOpts []rmi.Option
}

// WithServerOptions adds rmi.Peer options to the server (e.g.
// rmi.WithLocalShortcut for the identity ablation).
func WithServerOptions(opts ...rmi.Option) EnvOption {
	return func(c *envConfig) { c.serverOpts = append(c.serverOpts, opts...) }
}

func silentLogf(string, ...any) {}

// NewEnv builds a serving peer with the BRMI executor installed, plus a
// client peer, on a network with the given profile.
func NewEnv(profile netsim.Profile, opts ...EnvOption) (*Env, error) {
	var cfg envConfig
	for _, o := range opts {
		o(&cfg)
	}
	network := netsim.New(profile)
	serverOpts := append([]rmi.Option{rmi.WithLogf(silentLogf)}, cfg.serverOpts...)
	server := rmi.NewPeer(network, serverOpts...)
	env := &Env{Network: network, Server: server}
	env.cleanup = append(env.cleanup, func() { _ = network.Close() })
	if err := server.Serve("server"); err != nil {
		env.Close()
		return nil, err
	}
	env.cleanup = append(env.cleanup, func() { _ = server.Close() })
	exec, err := core.Install(server)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Exec = exec
	env.cleanup = append(env.cleanup, exec.Stop)
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	env.Client = client
	env.cleanup = append(env.cleanup, func() { _ = client.Close() })
	return env, nil
}

// Export exports obj on the server.
func (e *Env) Export(obj rmi.Remote, iface string) (wire.Ref, error) {
	return e.Server.Export(obj, iface)
}

// Close tears the environment down.
func (e *Env) Close() {
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		e.cleanup[i]()
	}
	e.cleanup = nil
}

// Stats summarizes repeated measurements.
type Stats struct {
	N                  int
	Mean, Std          time.Duration
	Min, P50, P95, Max time.Duration
}

// Millis returns the mean in milliseconds (the paper's unit).
func (s Stats) Millis() float64 { return float64(s.Mean) / float64(time.Millisecond) }

// Measure runs op reps times after warmup warm-up runs and summarizes the
// durations. The paper repeated its benchmarks 5000-10000 times on real
// hardware; on the simulated network the per-run noise is far smaller, so
// small rep counts already converge.
func Measure(warmup, reps int, op func() error) (Stats, error) {
	for i := 0; i < warmup; i++ {
		if err := op(); err != nil {
			return Stats{}, fmt.Errorf("warmup: %w", err)
		}
	}
	durations := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := op(); err != nil {
			return Stats{}, fmt.Errorf("rep %d: %w", i, err)
		}
		durations = append(durations, time.Since(start))
	}
	return summarize(durations), nil
}

func summarize(ds []time.Duration) Stats {
	if len(ds) == 0 {
		return Stats{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean := sum / time.Duration(len(sorted))
	var varSum float64
	for _, d := range sorted {
		diff := float64(d - mean)
		varSum += diff * diff
	}
	std := time.Duration(math.Sqrt(varSum / float64(len(sorted))))
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return Stats{
		N:    len(sorted),
		Mean: mean,
		Std:  std,
		Min:  sorted[0],
		P50:  pct(0.50),
		P95:  pct(0.95),
		Max:  sorted[len(sorted)-1],
	}
}

// Cell is one measured variant at one x-position.
type Cell struct {
	S     Stats
	Calls uint64 // network round trips per operation
}

// Row is one x-position of a figure.
type Row struct {
	X     int
	Cells []Cell // parallel to Table.Columns
}

// Table is one reproduced figure (or ablation): a named series per column.
type Table struct {
	Fig     string // "Fig. 5"
	Title   string
	XLabel  string
	Profile string
	Columns []string // e.g. {"RMI", "BRMI"}
	Rows    []Row
}
