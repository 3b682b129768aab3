package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rcache"
	"repro/internal/wire"
)

// cache.go measures the client-side result cache (PR 7) against the bare
// PR 4 hot path: a batch of readonly Echo calls at a controlled lease hit
// rate. At 100% every call settles from its lease and the flush performs
// zero round trips; at 0% the cache is pure overhead (key encoding plus a
// map probe per call) and must cost ~nothing next to the wire. The sweep
// pins both ends and the shape in between.

// CacheReadObjects is how many readonly targets one flush reads (one lease
// per object, so the hit rate is controlled per object).
const CacheReadObjects = 16

// cachePayloadBytes sizes the Echo argument; reads carry a realistic value,
// not an empty frame.
const cachePayloadBytes = 64

// RunCache sweeps the lease hit rate: x is the percentage of the flush's
// reads served from a warm lease; the rest are invalidated before every
// repetition (a harness knob — no wire traffic), forcing a fetch. Columns:
// the uncached path and the cached path at HEAD, same call sequence.
func RunCache(cfg Config, objects int, hitPcts []int) (*Table, error) {
	if objects <= 0 {
		objects = CacheReadObjects
	}
	table := &Table{
		Fig:     "Fig. C6",
		Title:   fmt.Sprintf("Readonly lease cache (%d cached reads per flush)", objects),
		XLabel:  "lease hit rate %",
		Profile: cfg.Profile.Name,
		Columns: []string{"uncached (HEAD)", "cached"},
	}
	ctx := context.Background()
	for _, pct := range hitPcts {
		env, err := NewEnv(cfg.Profile, WithServerOptions(cfg.ServerOpts...))
		if err != nil {
			return nil, err
		}
		refs, payloads, err := exportCacheReads(env, objects)
		if err != nil {
			env.Close()
			return nil, err
		}
		// The first `hot` objects keep their leases; the rest are dropped
		// before every repetition so they always fetch.
		hot := objects * pct / 100
		cache := rcache.New(nil, rcache.WithTTL(time.Hour))
		cold := make([]string, 0, objects-hot)
		for _, ref := range refs[hot:] {
			cold = append(cold, rcache.ObjKey(ref))
		}
		readBatch := func(c *rcache.Cache) error {
			var opts []core.Option
			if c != nil {
				for _, obj := range cold {
					c.InvalidateObject(obj)
				}
				opts = append(opts, core.WithCache(c))
			}
			b := core.New(env.Client, refs[0], opts...)
			futures := make([]*core.Future, objects)
			for i := range refs {
				p := b.Root()
				if i > 0 {
					var err error
					if p, err = b.AddRoot(refs[i]); err != nil {
						return err
					}
				}
				futures[i] = p.CallRO("Echo", payloads[i])
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
		variants := []struct {
			name string
			op   func() error
		}{
			{"uncached (HEAD)", func() error { return readBatch(nil) }},
			{"cached", func() error { return readBatch(cache) }},
		}
		row := Row{X: pct}
		for _, v := range variants {
			// Warm up (connection, codec caches, and — for the cached
			// variant — the hot leases), THEN count round trips: the steady
			// state is what the figure tracks, not the first cold fill.
			for i := 0; i < cfg.Warmup+1; i++ {
				if err := v.op(); err != nil {
					env.Close()
					return nil, fmt.Errorf("cache x=%d %s warmup: %w", pct, v.name, err)
				}
			}
			before := env.Client.CallCount()
			if err := v.op(); err != nil {
				env.Close()
				return nil, fmt.Errorf("cache x=%d %s: %w", pct, v.name, err)
			}
			calls := env.Client.CallCount() - before
			stats, err := Measure(0, cfg.Reps, v.op)
			if err != nil {
				env.Close()
				return nil, fmt.Errorf("cache x=%d %s: %w", pct, v.name, err)
			}
			row.Cells = append(row.Cells, Cell{S: stats, Calls: calls})
		}
		table.Rows = append(table.Rows, row)
		env.Close()
	}
	return table, nil
}

// exportCacheReads exports the readonly targets, one EchoService per lease,
// each read with its own payload (distinct cache keys even on shared
// state).
func exportCacheReads(env *Env, n int) ([]wire.Ref, []Payload, error) {
	refs := make([]wire.Ref, n)
	payloads := make([]Payload, n)
	for i := 0; i < n; i++ {
		ref, err := env.Export(&EchoService{}, "bench.Echo")
		if err != nil {
			return nil, nil, err
		}
		refs[i] = ref
		payloads[i] = Payload{
			ID:      int64(i),
			Name:    "cache-read-object-with-a-realistic-name",
			Seq:     uint64(i),
			Data:    make([]byte, cachePayloadBytes),
			Elapsed: time.Millisecond,
		}
	}
	return refs, payloads, nil
}
