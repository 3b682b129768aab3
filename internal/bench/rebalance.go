package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
)

// MovableCounter is the rebalance workload's migratable object: a counter
// whose state survives a move between shards via the cluster.Movable
// snapshot/restore protocol.
type MovableCounter struct {
	rmi.RemoteBase
	mu sync.Mutex
	n  int64
}

// MovableCounterIface is the wire interface name the movable factory is
// registered under.
const MovableCounterIface = "bench.MovableCounter"

func init() {
	cluster.RegisterMovable(MovableCounterIface, func() rmi.Remote { return &MovableCounter{} })
}

// Incr adds d and returns the running total.
func (c *MovableCounter) Incr(d int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n += d
	return c.n
}

// Get returns the current total.
func (c *MovableCounter) Get() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Snapshot captures the counter state for migration.
func (c *MovableCounter) Snapshot() (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, nil
}

// Restore applies a migrated snapshot.
func (c *MovableCounter) Restore(state any) error {
	n, ok := state.(int64)
	if !ok {
		return fmt.Errorf("bench: restore: unexpected state %T", state)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = n
	return nil
}

// rebalanceBaseServers is the cluster size before the scale-out; the
// newcomer is server-<rebalanceBaseServers>.
const rebalanceBaseServers = 3

// rebalanceEnv is one prepared scale-out scenario: a K-server cluster with
// exactly `objects` movable counters bound to names the grown ring will
// route to the standby server.
type rebalanceEnv struct {
	env      *ClusterEnv
	dir      *cluster.Directory
	newcomer string
	names    []string
}

func (re *rebalanceEnv) Close() { re.env.Close() }

// newRebalanceEnv builds the scenario. Names are chosen so that every bound
// object moves when the newcomer joins — the x-axis is "objects moved", so
// the moved set must be exact, not a hash-dependent fraction.
func newRebalanceEnv(profile netsim.Profile, objects int) (*rebalanceEnv, error) {
	env, err := NewClusterEnv(profile, rebalanceBaseServers+1)
	if err != nil {
		return nil, err
	}
	re := &rebalanceEnv{env: env, newcomer: fmt.Sprintf("server-%d", rebalanceBaseServers)}
	base := make([]string, rebalanceBaseServers)
	byEndpoint := make(map[string]*rmi.Peer, len(env.Servers))
	for i, srv := range env.Servers[:rebalanceBaseServers] {
		base[i] = srv.Endpoint()
		byEndpoint[srv.Endpoint()] = srv
	}
	re.dir = cluster.NewDirectory(env.Client, base)
	grown := cluster.NewRing(append(append([]string(nil), base...), re.newcomer))

	ctx := context.Background()
	for i := 0; len(re.names) < objects; i++ {
		name := fmt.Sprintf("counter-%d", i)
		if grown.Route(name) != re.newcomer {
			continue // stays put after the scale-out; not part of the moved set
		}
		home, err := re.dir.Home(name)
		if err != nil {
			re.Close()
			return nil, err
		}
		ref, err := byEndpoint[home].Export(&MovableCounter{n: int64(100 + i)}, MovableCounterIface)
		if err != nil {
			re.Close()
			return nil, err
		}
		if err := re.dir.Bind(ctx, name, ref); err != nil {
			re.Close()
			return nil, err
		}
		re.names = append(re.names, name)
	}
	return re, nil
}

// scaleOut performs the measured operation: grow the cluster by one server,
// migrating the moved objects — through the rebalancer's batched trips, or
// through the per-object baseline below.
func (re *rebalanceEnv) scaleOut(perObject bool) error {
	ctx := context.Background()
	if perObject {
		return re.scaleOutPerObject(ctx)
	}
	stats, err := cluster.NewRebalancer(re.dir).AddServer(ctx, re.newcomer)
	if err != nil {
		return err
	}
	if stats.Moved != len(re.names) {
		return fmt.Errorf("bench: rebalance moved %d objects, want %d", stats.Moved, len(re.names))
	}
	return nil
}

// scaleOutPerObject is the figure's unbatched baseline, and exists only
// here: the rebalancer's own scale-out with every moving object paying its
// own Snapshot, Arrive and Depart round trips instead of sharing three
// batched ones per flow. Everything else matches the batched column: the
// same refresh, parallel ring broadcast and manifest reads (the constant
// both columns share), sources in parallel, copy-then-tombstone, the live
// ring committed last. Every bound object is a MovableCounter.
func (re *rebalanceEnv) scaleOutPerObject(ctx context.Context) error {
	peer, ring := re.env.Client, re.dir.Ring()
	if err := re.dir.Refresh(ctx); err != nil {
		return err
	}
	members := append(ring.Endpoints(), re.newcomer)
	grown, epoch := cluster.NewRing(members), ring.Epoch()+1
	snap := &cluster.RingSnapshot{Members: members, Epoch: epoch}
	err := eachEndpoint(members, func(ep string) error {
		_, err := peer.Call(ctx, cluster.NodeRef(ep), "SetRing", snap)
		return err
	})
	if err != nil {
		return err
	}
	err = eachEndpoint(members, func(src string) error {
		res, err := peer.Call(ctx, cluster.NodeRef(src), "Manifest")
		if err != nil {
			return err
		}
		table, err := core.Convert[[]*cluster.Binding](res[0])
		if err != nil {
			return err
		}
		for _, b := range table {
			dst := grown.Route(b.Name)
			if dst == src {
				continue
			}
			state, err := peer.Call(ctx, b.Ref, "Snapshot")
			if err != nil {
				return err
			}
			if _, err := peer.Call(ctx, cluster.NodeRef(dst), "Arrive", b.Name, b.Ref.Iface, true, state[0], b.Ref); err != nil {
				return err
			}
			if _, err := peer.Call(ctx, cluster.NodeRef(src), "Depart", b.Name, epoch); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		ring.Add(re.newcomer)
	}
	return err
}

// eachEndpoint runs fn once per endpoint, in parallel.
func eachEndpoint(endpoints []string, fn func(ep string) error) error {
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(ep)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify checks the post-conditions of a scale-out: every name is homed on
// the newcomer, resolves there, and kept its pre-move state.
func (re *rebalanceEnv) verify() error {
	ctx := context.Background()
	for _, name := range re.names {
		home, err := re.dir.Home(name)
		if err != nil {
			return err
		}
		if home != re.newcomer {
			return fmt.Errorf("bench: %s homed on %s after scale-out, want %s", name, home, re.newcomer)
		}
		ref, err := re.dir.Lookup(ctx, name)
		if err != nil {
			return fmt.Errorf("bench: lookup %s after scale-out: %w", name, err)
		}
		if ref.Endpoint != re.newcomer {
			return fmt.Errorf("bench: %s resolves to %s after scale-out, want %s", name, ref.Endpoint, re.newcomer)
		}
		res, err := re.env.Client.Call(ctx, ref, "Get")
		if err != nil {
			return fmt.Errorf("bench: read %s after scale-out: %w", name, err)
		}
		// Seeds are assigned in discovery order, but only for names that
		// made the moved set, so recover the seed from the name itself.
		var idx int
		if _, err := fmt.Sscanf(name, "counter-%d", &idx); err != nil {
			return err
		}
		if got := res[0].(int64); got != int64(100+idx) {
			return fmt.Errorf("bench: %s lost state across the move: got %d, want %d", name, got, int64(100+idx))
		}
	}
	return nil
}

// RunRebalance measures live re-sharding: the wall-clock cost of growing a
// 3-server cluster to 4 while x bound objects migrate to the new server,
// per-object migration (one snapshot/depart/arrive round trip each) against
// BRMI-batched migration (one multi-root batch per direction). Migration
// mutates the cluster, so every measured repetition runs in a fresh
// environment; only the scale-out itself is timed.
func RunRebalance(cfg Config, counts []int) (*Table, error) {
	table := &Table{
		Fig: "Fig. C3",
		Title: fmt.Sprintf("Live re-sharding (%d -> %d servers, batched vs per-object migration)",
			rebalanceBaseServers, rebalanceBaseServers+1),
		XLabel:  "objects moved",
		Profile: cfg.Profile.Name,
		Columns: []string{"per-object", "BRMI-batched"},
	}
	for _, x := range counts {
		row := Row{X: x}
		for _, perObject := range []bool{true, false} {
			// One uncounted run to measure round trips and verify the
			// post-conditions (state preserved, homes moved).
			re, err := newRebalanceEnv(cfg.Profile, x)
			if err != nil {
				return nil, err
			}
			before := re.env.Client.CallCount()
			if err := re.scaleOut(perObject); err != nil {
				re.Close()
				return nil, fmt.Errorf("rebalance x=%d perObject=%v: %w", x, perObject, err)
			}
			calls := re.env.Client.CallCount() - before
			if err := re.verify(); err != nil {
				re.Close()
				return nil, err
			}
			re.Close()

			durations := make([]time.Duration, 0, cfg.Reps)
			for rep := 0; rep < cfg.Reps; rep++ {
				re, err := newRebalanceEnv(cfg.Profile, x)
				if err != nil {
					return nil, err
				}
				start := time.Now()
				err = re.scaleOut(perObject)
				elapsed := time.Since(start)
				re.Close()
				if err != nil {
					return nil, fmt.Errorf("rebalance x=%d perObject=%v rep %d: %w", x, perObject, rep, err)
				}
				durations = append(durations, elapsed)
			}
			row.Cells = append(row.Cells, Cell{S: summarize(durations), Calls: calls})
		}
		table.Rows = append(table.Rows, row)
	}
	return table, nil
}
