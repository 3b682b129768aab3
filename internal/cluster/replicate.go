package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"
)

// replicate.go is the replication half of a wave: the serialized batch a
// primary just executed ships to its shards' followers as a ReplRecord.
// Three seams, each testable alone: target selection (shipTargets), the
// ship fan-out (ship) and the quorum count (quorumTally).

// shipTimeout bounds one replication ship (the Append call carrying a wave
// to a follower). Ships past the quorum ack keep running after replicate
// returns, so they need a deadline of their own: the flush's ctx may never
// cancel, and a straggler stuck on a wedged connection (killed mid-ship,
// partitioned with the frames in flight) would block in Call for as long as
// it lives — one leaked goroutine per quorum-early flush past that follower.
// Variable so tests can shrink it.
var shipTimeout = 30 * time.Second

// replState is one replicated destination's shipping identity: the chain id
// linking its waves through one shadow session on each follower, the root
// names in payload order, their interfaces once the first wave resolved the
// names, and the payload of the wave just executed (captured by the core
// batch's OnShip hook, consumed by replicate on the wave goroutine).
type replState struct {
	chain   string
	names   []string
	ifaces  []string
	seq     int
	payload any
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
	rs := &replState{
		chain: fmt.Sprintf("%s#%d", b.peer.ClientID(), chainSeq.Add(1)),
		names: names,
	}
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

// replicate ships the wave that just executed on ds's primary to every
// follower of its roots' shards and blocks until the write quorum holds it.
// It runs on the wave goroutine, after the primary flush succeeded and
// before the stage barrier, so the ack a caller observes — Flush returning,
// futures settling — implies the wave survives the primary's death.
//
// The record is fenced by the ring epoch its owner lists were read at: a
// follower whose node adopted a newer ring rejects it (StaleShipError),
// failing the flush rather than letting a stale owner list smuggle a write
// into a re-placed shard. A returned *QuorumError fails the destination
// WITHOUT the stale-route retry: the primary already applied the wave, so a
// re-send could double-apply.
func (b *Batch) replicate(ctx context.Context, ds *destState) error {
	rs := ds.repl
	if rs == nil || rs.payload == nil {
		return nil // unreplicated destination, or a wave with no wire work
	}
	if rs.ifaces == nil {
		if rs.ifaces = b.rootIfaces(ds); rs.ifaces == nil {
			ds.repl = nil
			return nil
		}
	}
	payload := rs.payload
	rs.payload = nil
	primary := ds.group.endpoint
	owners, followers, epoch := shipTargets(b.dir.Ring(), primary, rs.names)
	if len(followers) == 0 {
		return nil
	}
	rec := &ReplRecord{
		ID:      fmt.Sprintf("%s/%d", rs.chain, rs.seq),
		Chain:   rs.chain,
		Primary: primary,
		Epoch:   epoch,
		Names:   rs.names,
		Ifaces:  rs.ifaces,
		Payload: payload,
	}
	rs.seq++
	b.quorumWaits.Inc()
	start := b.reg.Now()
	// The wait returns as soon as every name is at quorum: under
	// WithQuorum(W<R) the slowest followers keep replicating in the
	// background while the flush acks.
	tally := &quorumTally{names: rs.names, owners: owners, quorum: b.quorum, acks: make(map[string]error)}
	results := b.ship(ctx, rec, followers)
	for n := 0; n < len(followers) && !tally.met(); n++ {
		a := <-results
		tally.acks[a.ep] = a.err
	}
	b.replLag.Observe(b.reg.Now().Sub(start).Nanoseconds())
	if qe := tally.miss(); qe != nil {
		return qe
	}
	return nil
}

// ownerSource is what target selection needs of the shard map (*Ring).
type ownerSource interface {
	OwnersAll(keys []string) ([][]string, uint64)
}

// shipTargets reads every name's owner list at ONE ring epoch — the epoch
// the record is fenced by — and returns the lists, the distinct non-primary
// owners (first-appearance order) and that epoch.
func shipTargets(src ownerSource, primary string, names []string) (owners [][]string, followers []string, epoch uint64) {
	owners, epoch = src.OwnersAll(names)
	for _, list := range owners {
		for _, ep := range list {
			if ep != primary && !slices.Contains(followers, ep) {
				followers = append(followers, ep)
			}
		}
	}
	return owners, followers, epoch
}

// shipAck is one follower's answer to a shipped record.
type shipAck struct {
	ep  string
	err error
}

// ship sends rec to every follower in parallel, each send bounded by
// shipTimeout, and returns the channel their answers arrive on — buffered to
// the fan-out, so stragglers past the quorum ack never block.
func (b *Batch) ship(ctx context.Context, rec *ReplRecord, followers []string) <-chan shipAck {
	results := make(chan shipAck, len(followers))
	// Read once at spawn: a detached straggler outlives replicate, and the
	// package var is only synchronized up to the flush's return.
	timeout := shipTimeout
	for _, ep := range followers {
		go func(ep string) {
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			_, err := b.peer.Call(sctx, ReplicaRef(ep), "Append", rec)
			results <- shipAck{ep: ep, err: err}
		}(ep)
	}
	return results
}

// quorumTally counts a shipped wave's acknowledgements. Quorum is judged per
// NAME over that name's own owner list — the wave spans every root of the
// destination, and each root's shard must hold it.
type quorumTally struct {
	names  []string
	owners [][]string
	// quorum is WithQuorum's W (0 = all), capped per name at its replica count.
	quorum int
	// acks holds each follower's answer so far (the primary never ships to
	// itself, so it never appears).
	acks map[string]error
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
		if err, ok := q.acks[ep]; ok && err == nil {
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
			if err := q.acks[ep]; err != nil {
				ferrs = append(ferrs, fmt.Errorf("%s: %w", ep, err))
			}
		}
		worst = &QuorumError{Name: name, Acked: acked, Required: required, Err: errors.Join(ferrs...)}
	}
	return worst
}
