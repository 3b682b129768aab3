package cluster

import (
	"slices"

	"repro/internal/core"
	"repro/internal/rcache"
)

// leases.go is the client's half of the lease cache — what a
// //brmi:readonly call does that no other call does: consult the cache when
// recorded (CallRO), and file what it returned once its wave ran
// (fillLeases); a miss is an ordinary call of its batch — what a write owes
// the cache: drop the leases of the root it writes when recorded
// (invalidate), re-read the live ones behind every write of the root, in
// their round trip (addRefreshes), and file what they returned once the
// writes were acked (renewLeases) — and what a request owes the leases due on
// its server: re-read them after its calls, in its round trip (addRiders),
// and file what they returned once it answered (fileRiders).

// CallRO records a method invocation declared //brmi:readonly. On a batch
// carrying a lease cache (WithCache), a cacheable call — root target, plain
// marshalable arguments — consults the cache at record time: a hit returns
// an already-settled future and the batch records nothing (a batch whose
// every call hits flushes in zero round trips); a miss is recorded like any
// call, and its value, once its wave returns it, fills the cache. A hit may
// be a lease a write through the same cache refreshed at its ack: after
// that ack, the read sees the write. Without a cache (or for uncacheable
// shapes) it is Call.
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

// fillLeases files, once a stage's waves (including any stale retry) ran,
// the value of each of its cacheable reads that succeeded, generation-guarded
// against writes that raced the flush. Caller does not hold b.mu.
func (b *Batch) fillLeases(subs []*subBatch) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, sb := range subs {
		for _, c := range sb.calls {
			if c.ckey != "" && c.out.done && c.out.err == nil {
				b.cache.Put(c.ckey, c.cobj, c.out.val, c.cgen, c.cepoch)
			}
		}
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
// is sent. A re-read consults no cache. Caller holds b.mu.
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

// rider is a lease due on a destination's server (rcache.Cache.Due) that
// rides the destination's request: the lease, and its re-read in the request.
type rider struct {
	lease rcache.Lease
	sent  *core.Future
}

// addRiders appends to ds's request of stage s one re-read of each lease due
// on its server, after every call of the request, so the lease is filed
// again before it lapses into a miss of its own. A rider rides a round trip
// the flush pays anyway: the caller sends ds a request, and this is the last
// stage that does. Its root is lent (core.Batch.LendRoot): an object gone
// from the server fails the rider alone. No request of a batch built with a
// policy carries riders — a rider's failure must not restart or repeat the
// caller's calls — nor one to a replicating destination, whose waves ship to
// followers. Caller holds b.mu.
func (r *run) addRiders(s int, ds *destState) {
	b := r.b
	if b.cache == nil || b.policy != nil || b.replicates(ds.group) {
		return
	}
	for _, later := range r.stages[s+1:] {
		if slices.ContainsFunc(later, func(sb *subBatch) bool { return sb.group == ds.group }) {
			return
		}
	}
	for _, l := range b.cache.Due(ds.group.endpoint) {
		method, args, ok := rcache.KeyCall(l.Obj, l.Key)
		if !ok {
			continue
		}
		p, err := ds.cb.LendRoot(l.Ref)
		if err != nil {
			continue // unreachable: the lease is on ds's server
		}
		ds.riders = append(ds.riders, rider{lease: l, sent: p.Call(method, args...)})
	}
}

// fileRiders files, once ds's request answered, what its riders re-read,
// under the generation and epoch each lease was handed out with, as a miss
// is (fillLeases). A request that failed (err) or a rider that did files
// nothing, and no rider is ever sent again. Caller holds b.mu.
func (b *Batch) fileRiders(ds *destState, err error) {
	if err == nil {
		for _, rd := range ds.riders {
			if v, rerr := rd.sent.Get(); rerr == nil {
				b.cache.Put(rd.lease.Key, rd.lease.Obj, v, rd.lease.Gen, rd.lease.Epoch)
			}
		}
	}
	ds.riders = nil
}
