package cluster

import (
	"slices"

	"repro/internal/core"
	"repro/internal/rcache"
)

// leases.go is the client's half of the lease cache. A //brmi:readonly call
// consults the cache when recorded (CallRO); a miss is an ordinary call of
// its batch, filed where it settles (run.settleSub). A write is told to the
// cache when recorded (recordWrite), which keeps the leases of the root it
// writes serving every other batch, and ends them once the flush ran
// (renew). Between the two, a flush re-reads leases one way only:
// as riders of the last request it sends their server anyway, after the
// caller's calls (addRiders), filed when that request answers (fileRiders).
// Two kinds ride: a write's re-reads of the live leases of the root it
// writes, on that root, and the leases due on the server (rcache.Cache.Due),
// on lent roots.

// CallRO records a method invocation declared //brmi:readonly. On a batch
// carrying a lease cache (WithCache), a cacheable call — root target, plain
// marshalable arguments — consults the cache at record time: a hit returns
// an already-settled future and the batch records nothing (a batch whose
// every call hits flushes in zero round trips); a miss is recorded like any
// call, and its value, once its wave returns it, fills the cache. A hit may
// be a lease a write through the same cache renewed at the end of its flush:
// after that flush, the read sees the write. Until then another batch's
// write, recorded but not acked, leaves the lease serving: the read
// overlaps the write, and the pre-write value is as linearizable as the
// post-write one. The batch's own program order is kept: a read of an
// object this batch already wrote, or passed to a write as a proxy, is a
// plain call, after the write. Without a cache (or for uncacheable shapes)
// it is Call.
func (p *Proxy) CallRO(method string, args ...any) *Future {
	b := p.b
	f := &Future{b: b}
	b.mu.Lock()
	defer b.mu.Unlock()
	key, cacheable := "", false
	if b.cache != nil && p.isRoot && !b.closed && b.recErr == nil && !b.wrote(p) {
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
		// The stale-fill ticket — generation + epoch — is taken now, at record
		// time: a write recorded after this read must void its fill.
		obj := rcache.ObjKey(p.leaseRef())
		c.lease = rcache.Lease{Key: key, Obj: obj, Gen: b.cache.Gen(obj), Epoch: b.cache.Epoch()}
	}
	return f
}

// renewal is what a batch's writes to one root owe the lease cache: the
// root's live leases, re-read behind them, and the end of the leases at the
// flush's end (rcache.Cache.Renew), where the re-reads are filed in their
// place. A root a write takes as a proxy argument has one too, with nothing
// re-read: its leases just end.
type renewal struct {
	root *Proxy
	obj  string // the root's lease identity (rcache.ObjKey)
	// gen and epoch are what the cache said when the root's last write was
	// recorded: Renew files nothing if either moved since.
	gen, epoch uint64
	// writes are the root's writes, in recording order. A re-read is kept
	// only if every one of them settled by the answer of its request.
	writes []*recordedCall
	// proxied is set once a write takes the root as a proxy argument: that
	// write's server may reach the root after the re-read did, so nothing is
	// re-read.
	proxied bool
	// keys are the root's live leases when its writes were recorded; fills
	// are what the last request that re-read them kept, for Renew.
	keys  []string
	fills []rcache.Fill
}

// recordWrite tells the cache, at record time, of the write c to every root
// object it can reach — its own root and every root it takes as a proxy
// argument (rcache.Cache.RecordWrite) — and keeps the live leases of c's own
// root for re-reading after the root's writes. The leases keep serving other
// batches until the flush's end (renew); this batch reads none of them again
// (CallRO). Caller holds b.mu.
func (b *Batch) recordWrite(c *recordedCall) {
	r := b.renewalOf(rootOf(c.target))
	gen, live := b.cache.RecordWrite(r.obj)
	r.gen, r.epoch = gen, b.cache.Epoch()
	r.writes = append(r.writes, c)
	for _, k := range live {
		if !slices.Contains(r.keys, k) {
			r.keys = append(r.keys, k)
		}
	}
	for _, a := range c.args {
		if x, ok := a.(*Proxy); ok {
			rx := b.renewalOf(rootOf(x))
			rx.proxied = true
			b.cache.RecordWrite(rx.obj)
		}
	}
}

// wrote reports whether a write of the batch reached root p's object,
// through p or any other root with its lease identity (rcache.ObjKey).
// Caller holds b.mu.
func (b *Batch) wrote(p *Proxy) bool {
	if len(b.renewals) == 0 {
		return false // a batch that wrote nothing builds no key
	}
	obj := rcache.ObjKey(p.leaseRef())
	return slices.ContainsFunc(b.renewals, func(r *renewal) bool { return r.obj == obj })
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

// renew acks, once the flush ran, the writes to every root they reached
// (rcache.Cache.Renew): the root's leases and whatever fill raced the writes
// end, and what the root's re-reads kept is filed as its leases — nothing,
// on a root reached only as a proxy argument. Caller does not hold b.mu.
func (b *Batch) renew() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, r := range b.renewals {
		b.cache.Renew(r.obj, r.gen, r.epoch, r.fills)
	}
}

// rider is a lease re-read on a request the flush sends anyway: the lease
// (its key alone on a written root's), the renewal it belongs to — nil for a
// lease due on the server — and its re-read in the request.
type rider struct {
	lease   rcache.Lease
	renewal *renewal
	sent    *core.Future
}

// addRiders appends to ds's request of stage s, when it is the last request
// the flush sends ds, re-reads after every call of the request: first, on
// each written root of ds that no write takes as a proxy, one of each live
// lease the root had when its writes were recorded; then, on a lent root
// (core.Batch.LendRoot), one of each lease due on ds's server, so the lease
// is filed again before it lapses into a miss of its own — an object gone from the server fails that
// rider alone. Riders ride a round trip the flush pays anyway. A request to a
// replicating destination, whose waves ship to followers, carries no due
// lease. Caller holds b.mu.
func (r *run) addRiders(s int, ds *destState) {
	b := r.b
	if b.cache == nil {
		return
	}
	for _, later := range r.stages[s+1:] {
		if slices.ContainsFunc(later, func(sb *subBatch) bool { return sb.group == ds.group }) {
			return
		}
	}
	for _, rn := range b.renewals {
		if rn.root.group != ds.group || len(rn.writes) == 0 || rn.proxied {
			continue
		}
		rn.fills = nil
		for _, k := range rn.keys {
			if method, args, ok := rcache.KeyCall(rn.obj, k); ok {
				ds.riders = append(ds.riders, rider{lease: rcache.Lease{Key: k}, renewal: rn, sent: rn.root.core.Call(method, args...)})
			}
		}
	}
	if b.replicates(ds.group) {
		return
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

// fileRiders files, once ds's request answered, what its riders re-read: a
// due lease's under the generation and epoch it was handed out with, as a
// miss is filed; a written root's for its renewal, provided every write of
// the root settled by now — one left open for a stale-route retry ran after
// this re-read, if at all. A request that failed (err) or a rider that did
// files nothing, and no rider is ever sent again. Caller holds b.mu.
func (b *Batch) fileRiders(ds *destState, err error) {
	if err == nil {
		for _, rd := range ds.riders {
			v, rerr := rd.sent.Get()
			switch {
			case rerr != nil:
			case rd.renewal == nil:
				b.cache.Put(rd.lease.Key, rd.lease.Obj, v, rd.lease.Gen, rd.lease.Epoch)
			case !slices.ContainsFunc(rd.renewal.writes, func(c *recordedCall) bool { return !c.out.done }):
				rd.renewal.fills = append(rd.renewal.fills, rcache.Fill{Key: rd.lease.Key, Val: v})
			}
		}
	}
	ds.riders = nil
}
