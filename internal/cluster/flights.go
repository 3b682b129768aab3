package cluster

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/rcache"
)

// flights.go is the client's half of the lease cache — what a
// //brmi:readonly call does that no other call does: consult the cache when
// recorded (CallRO), join the cache's singleflight table when translated
// (joinFlight), and publish or adopt the flight's outcome once the stage's
// waves ran (resolveFlights) — and what a write owes the cache: drop the
// leases of the root it writes when recorded (invalidate), re-read the live
// ones behind every write of the root, in their round trip (addRefreshes),
// and file what they returned once the writes were acked (renewLeases).

// CallRO records a method invocation declared //brmi:readonly. On a batch
// carrying a lease cache (WithCache), a cacheable call — root target, plain
// marshalable arguments — consults the cache at record time: a hit returns
// an already-settled future and the batch records nothing (a batch whose
// every call hits flushes in zero round trips); a miss records normally and
// at flush time joins the cache's singleflight table, so identical
// in-flight readonly calls across this client's batches collapse into one
// wire call. A hit may be a lease a write through the same cache refreshed
// at its ack: after that ack, the read sees the write. Without a cache (or
// for uncacheable shapes) it is Call.
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
					b.cache.PutCall(c.ckey, c.cobj, c.out.val, c.cgen, c.cepoch)
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

// renewal is what a batch's writes to one root owe the lease cache: the live
// leases they dropped, re-read after every one of them, and the bump once
// they were acked (rcache.Cache.Renew).
type renewal struct {
	root *Proxy
	obj  string // the root's lease identity (rcache.ObjKey)
	// gen and epoch are what the cache said when the root's last write was
	// recorded: Renew files nothing if either moved since.
	gen, epoch uint64
	// writes are the root's writes, in recording order, until their acks
	// renewed the cache. The planner keeps program order per server only
	// within a stage, so the last recorded need not run last: the re-reads
	// follow them all.
	writes []*recordedCall
	// proxied is set once a write takes the root as a proxy argument: that
	// write's server may reach the root after the re-read did, so nothing is
	// re-read.
	proxied bool
	reads   []refresh
}

// refresh is one lease a write dropped: its key, and from Flush on its
// re-read.
type refresh struct {
	key  string
	read *recordedCall
}

// invalidate drops, at record time, the leases of every root object the
// write c can reach — its own root and every root it takes as a proxy
// argument — so readonly calls later in program order can never serve the
// pre-write value. The live leases of c's own root are kept for re-reading
// after the root's writes. Caller holds b.mu.
func (b *Batch) invalidate(c *recordedCall) {
	r := b.renewalOf(rootOf(c.target))
	gen, live := b.cache.InvalidateObject(r.obj)
	r.gen, r.epoch = gen, b.cache.Epoch()
	r.writes = append(r.writes, c)
	for _, k := range live {
		if !slices.ContainsFunc(r.reads, func(f refresh) bool { return f.key == k }) {
			r.reads = append(r.reads, refresh{key: k})
		}
	}
	for _, a := range c.args {
		if x, ok := a.(*Proxy); ok {
			rx := b.renewalOf(rootOf(x))
			rx.proxied = true
			b.cache.InvalidateObject(rx.obj)
		}
	}
}

// renewalOf returns root p's renewal, adding it to the batch's on first use.
// Caller holds b.mu.
func (b *Batch) renewalOf(p *Proxy) *renewal {
	if p.renewal == nil {
		p.renewal = &renewal{root: p, obj: rcache.ObjKey(p.leaseRef())}
		b.renewals = append(b.renewals, p.renewal)
	}
	return p.renewal
}

// addRefreshes appends to the recording one re-read of each live lease the
// writes dropped, on the written root, after every write of the root: the
// planner puts it in the stage of the latest of them, in their sub-batch
// (inputs), so it rides a round trip the writes pay. The call is decoded
// from the lease's key, so no argument the caller may since have changed
// is sent. A re-read consults no cache and joins no flight — a flight begun
// before the write would hand it the pre-write value. Caller holds b.mu.
func (b *Batch) addRefreshes(calls []*recordedCall) []*recordedCall {
	for _, r := range b.renewals {
		if len(r.writes) == 0 || r.proxied {
			continue
		}
		for i, f := range r.reads {
			method, args, ok := rcache.KeyCall(r.obj, f.key)
			if !ok {
				continue
			}
			c := &recordedCall{index: len(calls), group: r.root.group, kind: kindValue, target: r.root,
				method: method, args: args, out: &outcome{}, after: r.writes}
			r.reads[i].read = c
			calls = append(calls, c)
		}
	}
	return calls
}

// renewLeases acks to the cache, once per written root, the root's writes
// as soon as they and their re-reads all settled (rcache.Cache.Renew):
// whatever fill raced the writes is dropped, and each re-read that
// succeeded is filed as the root's lease. Caller does not hold b.mu.
func (b *Batch) renewLeases() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range b.renewals {
		if len(r.writes) == 0 || slices.ContainsFunc(r.writes, unsettled) ||
			slices.ContainsFunc(r.reads, func(f refresh) bool { return f.read != nil && unsettled(f.read) }) {
			continue
		}
		r.writes = nil
		var fills []rcache.Fill
		for _, f := range r.reads {
			if f.read != nil && f.read.out.err == nil {
				fills = append(fills, rcache.Fill{Key: f.key, Val: f.read.out.val})
			}
		}
		b.cache.Renew(r.obj, r.gen, r.epoch, fills)
	}
}

// unsettled reports whether c's outcome is still open.
func unsettled(c *recordedCall) bool { return !c.out.done }
