// Package stats is the metrics core for the BRMI runtime: lock-free
// counters, gauges, and fixed-bucket histograms with snapshot/merge
// semantics. The hot path (Counter.Add, Gauge.Set, Histogram.Observe) is
// a single atomic operation — zero allocations, zero locks — so every
// layer from the frame writer up can be instrumented unconditionally.
//
// Metrics are nil-safe: all mutation methods on a nil metric are no-ops,
// so components hold plain metric pointers and leave them nil when no
// registry is attached. Time is read through a pluggable Clock so
// deterministic simulations (netsim's virtual clock) see deterministic
// latencies.
//
// Naming convention: "<layer>.<metric>" in snake_case, e.g.
// "transport.frames_in", "cluster.flush_waves". The Prometheus exporter
// maps dots to underscores and prefixes "brmi_".
package stats

import (
	"sort"
	"sync"
	"time"
)

// Clock is the time source for latency measurements. netsim.Clock
// satisfies it; the default is the wall clock.
type Clock interface {
	Now() time.Time
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Registry owns a flat namespace of metrics. Get-or-create accessors
// (Counter, Gauge, Histogram, Func) take a lock; the returned metric
// handles are then lock-free. Safe for concurrent use.
type Registry struct {
	clock Clock

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// Option configures a Registry.
type Option func(*Registry)

// WithClock sets the time source used by Now (and therefore by every
// duration measured against this registry).
func WithClock(c Clock) Option {
	return func(r *Registry) {
		if c != nil {
			r.clock = c
		}
	}
}

// New creates an empty registry reading the wall clock unless WithClock
// overrides it.
func New(opts ...Option) *Registry {
	r := &Registry{
		clock:    wallClock{},
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() int64),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Now reads the registry's clock. A nil registry reads the wall clock,
// so duration measurements degrade gracefully when stats are detached.
func (r *Registry) Now() time.Time {
	if r == nil {
		return time.Now()
	}
	return r.clock.Now()
}

// boundClock is a Clock that can also arm a bound on a wait: netsim's
// clocks, the virtual one included.
type boundClock interface {
	AfterIdle(d time.Duration, fn func()) interface{ Stop() bool }
}

// AfterIdle runs fn once d has passed on the registry's clock — on a clock
// that can arm bounds of its own (netsim's), so a simulation's time governs
// it, else on the wall clock — and returns what cancels it. It is for a bound
// on a wait, which only a lost event should reach.
func (r *Registry) AfterIdle(d time.Duration, fn func()) (stop func() bool) {
	if r != nil {
		if c, ok := r.clock.(boundClock); ok {
			return c.AfterIdle(d, fn).Stop
		}
	}
	return time.AfterFunc(d, fn).Stop
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns nil (whose methods are no-ops).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers a gauge evaluated at snapshot time. Used for state that
// already has an authoritative owner (pool sizes, epochs) where keeping a
// second live gauge in sync would invite drift. Re-registering a name
// replaces the function. No-op on a nil registry.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = fn
	r.mu.Unlock()
}

// Snapshot captures every metric's current value into a canonical
// (name-sorted) Snapshot. Concurrent writers keep writing during the
// capture; each individual value is an atomic read, so the snapshot is a
// consistent per-metric view. Func gauges are evaluated here and appear
// among the gauges.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Counters: make([]NamedValue, 0, len(r.counters)),
		Gauges:   make([]NamedValue, 0, len(r.gauges)+len(r.funcs)),
		Hists:    make([]NamedHist, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: name, V: int64(c.Get())})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, V: g.Get()})
	}
	for name, fn := range r.funcs {
		s.Gauges = append(s.Gauges, NamedValue{Name: name, V: fn()})
	}
	for name, h := range r.hists {
		count, sum, buckets := h.read()
		s.Hists = append(s.Hists, NamedHist{Name: name, Count: count, Sum: sum, Buckets: buckets})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	return s
}
