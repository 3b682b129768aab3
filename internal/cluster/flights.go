package cluster

import (
	"context"
	"fmt"

	"repro/internal/rcache"
)

// flights.go is read coalescing — what a //brmi:readonly call does that no
// other call does: consult the lease cache when recorded (CallRO), join the
// cache's singleflight table when translated (joinFlight), and publish or
// adopt the flight's outcome once the stage's waves ran (resolveFlights).

// CallRO records a method invocation declared //brmi:readonly. On a batch
// carrying a lease cache (WithCache), a cacheable call — root target, plain
// marshalable arguments — consults the cache at record time: a hit returns
// an already-settled future and the batch records nothing (a batch whose
// every call hits flushes in zero round trips); a miss records normally and
// at flush time joins the cache's singleflight table, so identical
// in-flight readonly calls across this client's batches collapse into one
// wire call. Without a cache (or for uncacheable shapes) it is Call.
func (p *Proxy) CallRO(method string, args ...any) *Future {
	b := p.b
	f := &Future{b: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	key, cacheable := "", false
	if b.cache != nil && p.isRoot && !b.closed && b.recErr == nil {
		if key, cacheable = rcache.Key(p.leaseRef(), method, args); cacheable {
			if v, hit := b.cache.Get(key); hit {
				f.done, f.val = true, v
				return f
			}
		}
	}
	c := b.recordLocked(p, kindValue, method, args, true)
	if c == nil {
		return f
	}
	f.origin, c.out = c, &f.outcome
	if cacheable {
		// The stale-fill ticket — generation + epoch — is captured now, at
		// record time: a write recorded after this read must void its fill.
		c.ckey = key
		c.cobj = rcache.ObjKey(p.leaseRef())
		c.cgen = b.cache.Gen(c.cobj)
		c.cepoch = b.cache.Epoch()
	}
	return f
}

// joinFlight runs when a cacheable readonly call is translated, at the edge
// of the wire: a fill that landed since record time settles it outright, the
// first call per key leads (executes and publishes), and every duplicate —
// in this batch or any other sharing the cache — becomes a follower that
// records nothing and settles from the leader's flight in resolveFlights. It
// reports whether c goes on the wire. On a stale retry the call is
// re-translated; the flight guard keeps its role. Caller holds b.mu.
func (b *Batch) joinFlight(c *recordedCall) (execute bool) {
	if c.flight == nil {
		if v, ok := b.cache.Get(c.ckey); ok {
			settle(c, v, nil)
			return false
		}
		c.flight, c.leader = b.cache.Begin(c.ckey)
	}
	return c.leader
}

// following reports whether c waits on another call's flight: it never goes
// on the wire, and only resolveFlights may settle it.
func (c *recordedCall) following() bool { return c.flight != nil && !c.leader }

// resolveFlights settles the singleflight state of a stage's readonly calls
// once its waves (including any stale retry) ran. Leaders publish first —
// their outcome is already decided — so same-batch followers can never
// deadlock waiting below; a successful leader also fills the cache,
// generation-guarded against writes that raced the flush. Followers then
// adopt their flight's outcome. Flight hygiene: every flight Begin'd in
// joinFlight is Finished (leaders) or Waited (followers) exactly once here,
// on every path, including waves that failed wholesale.
func (b *Batch) resolveFlights(ctx context.Context, subs []*subBatch) {
	b.mu.Lock()
	var followers []*recordedCall
	for _, sb := range subs {
		for _, c := range sb.calls {
			switch {
			case c.flight == nil:
			case c.following():
				followers = append(followers, c)
			default:
				if !c.out.done {
					settle(c, nil, fmt.Errorf("cluster: internal: readonly call %s left untranslated", c.method))
				}
				if c.out.err == nil {
					b.cache.Put(c.ckey, c.cobj, c.out.val, c.cgen, c.cepoch)
				}
				b.cache.Finish(c.ckey, c.flight, c.out.val, c.out.err)
				c.flight = nil
			}
		}
	}
	b.mu.Unlock()

	for _, c := range followers {
		v, err := c.flight.Wait(ctx)
		b.mu.Lock()
		settle(c, v, err)
		c.flight = nil
		b.mu.Unlock()
	}
}
