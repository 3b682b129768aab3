package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// replicate.go is the replication half of a wave. The fan-out flushes the
// primaries; past its barrier ONE wave-level step (replicate) wraps the
// serialized batch of each destination whose flush succeeded in a ReplRecord
// (replRecord) and ships the records by FOLLOWER, not by destination: a
// server that follows roots of three destinations gets one Append call
// carrying three records and answers one slot per record, so a replicated
// wave costs one trip per distinct follower server. Three seams, each
// testable alone: target selection (shipTargets), the ship fan-out (ship) and
// the quorum count (quorumTally) — one tally per destination, fed from that
// destination's slot in each follower's answer.

// shipTimeout bounds one replication ship (the Append call carrying a wave's
// records to one follower). Ships past the quorum ack keep running after
// replicate returns, so they need a deadline of their own: the flush's ctx
// may never cancel, and a straggler stuck on a wedged connection (killed
// mid-ship, partitioned with the frames in flight) would block in Call for as
// long as it lives — one leaked goroutine per quorum-early wave past that
// follower. Variable so tests can shrink it.
var shipTimeout = 30 * time.Second

// replState is one replicated destination's shipping identity: the chain id
// linking its waves through one shadow session on each follower, the root
// names in payload order, their interfaces once the first wave resolved the
// names, and the payload of the wave just executed (captured by the core
// batch's OnShip hook on the destination's wave goroutine, consumed by
// replRecord past the barrier).
type replState struct {
	chain string
	// idPrefix is chain + "/" with room to spare: a record's ID is the
	// wave's sequence number appended to it.
	idPrefix []byte
	names    []string
	ifaces   []string
	seq      uint64
	payload  any
}

// chainSeq disambiguates replication chains minted by one client process;
// combined with the peer's DGC client id the chain is globally unique.
var chainSeq atomic.Uint64

// armReplication decides whether ds's waves may replicate and, if so, wires
// the payload capture. Replication applies only when the batch is
// epoch-aware (WithDirectory) over a replicated ring (R > 1) and every root
// of the destination is addressed by cluster-wide name (RootNamed) — an
// anonymous or system root has no shard identity to replicate under, so its
// destination flushes unreplicated. Whether the named objects are movable is
// only known once the first wave resolved them (rootIfaces). Caller holds
// b.mu.
func (b *Batch) armReplication(ds *destState) {
	if b.dir == nil || b.dir.Replication() <= 1 {
		return
	}
	names := make([]string, len(ds.group.roots))
	for i, p := range ds.group.roots {
		if p.key == "" {
			return
		}
		names[i] = p.key
	}
	client := b.peer.ClientID()
	id := make([]byte, 0, len(client)+24)
	id = append(append(id, client...), '#')
	id = strconv.AppendUint(id, chainSeq.Add(1), 10)
	rs := &replState{chain: string(id), idPrefix: append(id, '/'), names: names}
	ds.repl = rs
	ds.cb.OnShip(func(req any, _ bool) { rs.payload = req })
}

// rootIfaces reads the interfaces of ds's roots, resolved by the wave that
// just returned, or nil when one of them has no registered movable factory:
// a follower could not build its shadow.
func (b *Batch) rootIfaces(ds *destState) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	ifaces := make([]string, len(ds.group.roots))
	for i, p := range ds.group.roots {
		if _, ok := movableFactory(p.rootRef.Iface); !ok {
			return nil
		}
		ifaces[i] = p.rootRef.Iface
	}
	return ifaces
}

// replRecord builds the ReplRecord of the wave ds's primary just executed, or
// nil for an unreplicated destination and for a wave with no wire work. The
// epoch is stamped when the whole wave's owner lists are read at once
// (shipTargets).
func (b *Batch) replRecord(ds *destState) *ReplRecord {
	rs := ds.repl
	if rs == nil || rs.payload == nil {
		return nil
	}
	if rs.ifaces == nil {
		if rs.ifaces = b.rootIfaces(ds); rs.ifaces == nil {
			ds.repl = nil
			return nil
		}
	}
	rec := &ReplRecord{
		ID:      string(strconv.AppendUint(rs.idPrefix, rs.seq, 10)),
		Chain:   rs.chain,
		Primary: ds.group.endpoint,
		Names:   rs.names,
		Ifaces:  rs.ifaces,
		Payload: rs.payload,
	}
	rs.seq++
	rs.payload = nil
	return rec
}

// replicate ships the wave that just executed on live's primaries — errs[i]
// is destination i's flush error — to the followers of their roots' shards,
// one Append call per follower, and blocks until every destination's write
// quorum holds its record. It runs once per wave, after the primaries'
// barrier and before the wave settles, so the ack a caller observes — Flush
// returning, futures settling — implies the wave survives a primary's death.
//
// Every record is fenced by the ONE ring epoch the wave's owner lists were
// read at: a follower whose node adopted a newer ring rejects it
// (StaleShipError), failing that destination rather than letting a stale
// owner list smuggle a write into a re-placed shard. A destination that
// misses quorum gets a *QuorumError in errs[i], which fails it WITHOUT the
// stale-route retry: the primary already applied the wave, so a re-send could
// double-apply. Its siblings are judged on their own tallies.
func (b *Batch) replicate(ctx context.Context, live []*destState, errs []error) {
	var recs []*ReplRecord // recs[i] is live[i]'s; allocated at the first record
	for i, ds := range live {
		if errs[i] != nil {
			continue
		}
		if rec := b.replRecord(ds); rec != nil {
			if recs == nil {
				recs = make([]*ReplRecord, len(live))
			}
			recs[i] = rec
		}
	}
	if recs == nil {
		return
	}
	tallies, loads := shipTargets(b.dir.Ring(), recs, b.quorum)
	if len(loads) == 0 {
		return // a ring of one member: nobody to ship to
	}
	for _, rec := range recs {
		if rec != nil {
			b.quorumWaits.Inc() // one ring: if any record has followers, all do
		}
	}
	start := b.reg.Now()
	// The wait returns as soon as every destination is at quorum: under
	// WithQuorum(W<R) the slowest followers keep replicating in the
	// background while the flush acks.
	acks := b.ship(ctx, loads)
	for n := 0; n < len(loads) && !allMet(tallies); n++ {
		a := <-acks
		for k, d := range a.to.dests {
			err := a.err
			if err == nil {
				err = slotError(a.slots[k])
			}
			tallies[d].ack(a.to.ep, err)
		}
	}
	b.replLag.Observe(b.reg.Now().Sub(start).Nanoseconds())
	for i := range tallies {
		if qe := tallies[i].miss(); qe != nil {
			errs[i] = qe
		}
	}
}

// ownerSource is what target selection needs of the shard map (*Ring).
type ownerSource interface {
	OwnersAll(keys []string) ([][]string, uint64)
}

// shipment is what one follower is sent of a wave: the records of every
// destination it owns a root of, in destination order. dests[k] is the wave's
// destination recs[k] belongs to — whose tally slot k of the answer feeds.
type shipment struct {
	ep    string
	recs  []*ReplRecord
	dests []int
}

// shipTargets reads the owner list of every name of every record in ONE
// OwnersAll call — one lock, one ring epoch — and stamps that epoch on all of
// them: it is the epoch the wave is fenced by. It returns one tally per entry
// of recs (a nil record's is empty: met, and never a miss) and, per distinct
// non-primary owner in first-appearance order, the records to send it.
func shipTargets(src ownerSource, recs []*ReplRecord, quorum int) ([]quorumTally, []shipment) {
	var names []string
	for _, rec := range recs {
		if rec != nil {
			names = append(names, rec.Names...)
		}
	}
	owners, epoch := src.OwnersAll(names)
	tallies := make([]quorumTally, len(recs))
	var loads []shipment
	for i, rec := range recs {
		if rec == nil {
			continue
		}
		rec.Epoch = epoch
		tallies[i] = quorumTally{names: rec.Names, owners: owners[:len(rec.Names)], quorum: quorum}
		owners = owners[len(rec.Names):]
		for _, list := range tallies[i].owners {
			for _, ep := range list {
				if ep == rec.Primary {
					continue
				}
				sh := shipmentTo(&loads, ep)
				if n := len(sh.dests); n == 0 || sh.dests[n-1] != i {
					sh.recs = append(sh.recs, rec)
					sh.dests = append(sh.dests, i)
				}
			}
		}
	}
	return tallies, loads
}

// shipmentTo returns ep's entry of loads, appending one at first sight.
func shipmentTo(loads *[]shipment, ep string) *shipment {
	for i := range *loads {
		if (*loads)[i].ep == ep {
			return &(*loads)[i]
		}
	}
	*loads = append(*loads, shipment{ep: ep})
	return &(*loads)[len(*loads)-1]
}

// shipAck is one follower's answer to its shipment: one slot per record, or
// err when the call as a whole failed — every record it carried then did.
type shipAck struct {
	to    *shipment
	slots []any
	err   error
}

// ShipReplyError reports a follower whose Append answered something other
// than one slot per record it was sent. No slot can be matched to a record,
// so every record of that shipment counts as not held.
type ShipReplyError struct {
	Endpoint string
	Sent     int
	Slots    int // -1 when the answer was not a slot list at all
}

func (e *ShipReplyError) Error() string {
	return fmt.Sprintf("cluster: replica %s answered %d slots for %d shipped records", e.Endpoint, e.Slots, e.Sent)
}

// ship sends every follower its shipment in parallel, each send bounded by
// shipTimeout, and returns the channel their answers arrive on — buffered to
// the fan-out, so stragglers past the quorum ack never block. It is the one
// place a record leaves the client.
func (b *Batch) ship(ctx context.Context, loads []shipment) <-chan shipAck {
	acks := make(chan shipAck, len(loads))
	// Read once at spawn: a detached straggler outlives replicate, and the
	// package var is only synchronized up to the flush's return.
	timeout := shipTimeout
	for i := range loads {
		go func(sh *shipment) {
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			a := shipAck{to: sh}
			var res []any
			if res, a.err = b.peer.Call(sctx, ReplicaRef(sh.ep), "Append", sh.recs); a.err == nil {
				a.slots, a.err = appendSlots(sh, res)
			}
			acks <- a
		}(&loads[i])
	}
	return acks
}

// appendSlots reads an Append answer: exactly one slot per record sent.
func appendSlots(sh *shipment, res []any) ([]any, error) {
	got := -1
	if len(res) == 1 {
		if slots, ok := res[0].([]any); ok {
			if got = len(slots); got == len(sh.recs) {
				return slots, nil
			}
		}
	}
	return nil, &ShipReplyError{Endpoint: sh.ep, Sent: len(sh.recs), Slots: got}
}

// slotError reads one slot of an Append answer: nil, or the follower's typed
// refusal of that record.
func slotError(slot any) error {
	switch x := slot.(type) {
	case nil:
		return nil
	case error:
		return x
	}
	return fmt.Errorf("cluster: replica append answered a %T where a record's error belongs", slot)
}

// quorumTally counts the acknowledgements of one destination's record. Quorum
// is judged per NAME over that name's own owner list — the record spans every
// root of the destination, and each root's shard must hold it.
type quorumTally struct {
	names  []string
	owners [][]string
	// quorum is WithQuorum's W (0 = all), capped per name at its replica count.
	quorum int
	// acks holds each follower's answer so far (the primary never ships to
	// itself, so it never appears).
	acks []followerAck
}

// followerAck is one follower's answer for one record.
type followerAck struct {
	ep  string
	err error
}

// ack notes ep's answer.
func (q *quorumTally) ack(ep string, err error) {
	q.acks = append(q.acks, followerAck{ep: ep, err: err})
}

// answer reports whether ep has answered, and the error it answered with.
func (q *quorumTally) answer(ep string) (answered bool, err error) {
	for _, a := range q.acks {
		if a.ep == ep {
			return true, a.err
		}
	}
	return false, nil
}

// count returns how many replicas hold name i and how many its quorum needs.
// The primary's copy is each name's first ack: its flush succeeded.
func (q *quorumTally) count(i int) (acked, required int) {
	required = len(q.owners[i])
	if q.quorum > 0 && q.quorum < required {
		required = q.quorum
	}
	acked = 1
	for _, ep := range q.owners[i] {
		if ok, err := q.answer(ep); ok && err == nil {
			acked++
		}
	}
	return acked, required
}

// met reports whether every name is at quorum.
func (q *quorumTally) met() bool {
	for i := range q.names {
		if acked, required := q.count(i); acked < required {
			return false
		}
	}
	return true
}

// allMet reports whether every destination of the wave is at quorum.
func allMet(tallies []quorumTally) bool {
	for i := range tallies {
		if !tallies[i].met() {
			return false
		}
	}
	return true
}

// miss returns the worst quorum miss — the name furthest below its required
// count, joined with its followers' failures — or nil when quorum is met.
func (q *quorumTally) miss() *QuorumError {
	var worst *QuorumError
	for i, name := range q.names {
		acked, required := q.count(i)
		if acked >= required || (worst != nil && required-acked <= worst.Required-worst.Acked) {
			continue
		}
		var ferrs []error
		for _, ep := range q.owners[i] {
			if _, err := q.answer(ep); err != nil {
				ferrs = append(ferrs, fmt.Errorf("%s: %w", ep, err))
			}
		}
		worst = &QuorumError{Name: name, Acked: acked, Required: required, Err: errors.Join(ferrs...)}
	}
	return worst
}
