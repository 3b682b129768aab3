package cluster

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// replicate.go is the ship leg of replication. It runs on the PRIMARY: the
// client's flush request to a replicating destination carries a ship
// directive (shipDirectives: where each root's followers are, as of which
// ring epoch, and the write quorum), the primary vets it before anything
// executes (Replica.admit), executes the wave, and — before it replies,
// holding no lock — wraps its own decoded request in a ReplRecord, sends it
// to the wave's followers in parallel and answers once the quorum holds it
// (Replica.ship). A replicated wave therefore costs the client its primary
// trips and nothing else; the follower trips are server to server. The
// quorum count (quorumTally) and the reading of a follower's answer
// (appendSlots) are testable alone.

// shipTimeout bounds one replication ship (the Append call carrying a wave's
// record to one follower). Ships past the quorum ack keep running after the
// primary replied, so they need a deadline of their own: a straggler stuck on
// a wedged connection (killed mid-ship, partitioned with the frames in
// flight) would otherwise block in Call until the serving peer closes — one
// leaked goroutine per quorum-early wave past that follower. Variable so
// tests can shrink it.
var shipTimeout = 30 * time.Second

// ownerSource is what directive building needs of the shard map (*Ring).
type ownerSource interface {
	OwnersAll(keys []string) (owners [][]string, members []string, epoch uint64)
}

// shipDirectives builds the ship directives of one wave: names[i] are the
// root names of the destination served by primaries[i], in payload order, or
// empty for a destination that does not replicate. The owner lists of ALL of
// them are read in ONE OwnersAll call — one lock, one ring epoch — and that
// epoch fences every directive of the wave: reading them one name (or one
// destination) at a time would let a refresh between two reads pair
// old-epoch followers with the new epoch, which a primary at the new epoch
// accepts. Followers travel as indexes into that epoch's sorted membership.
// A destination nobody follows (a ring of one member) gets nil.
func shipDirectives(src ownerSource, primaries []string, names [][]string, quorum int) []*core.ShipDirective {
	var all []string
	for _, ns := range names {
		all = append(all, ns...)
	}
	if len(all) == 0 {
		return nil
	}
	owners, members, epoch := src.OwnersAll(all)
	out := make([]*core.ShipDirective, len(names))
	for i, ns := range names {
		followers, followed := make([][]int, len(ns)), false
		for k, list := range owners[:len(ns)] {
			for _, ep := range list {
				if at, ok := slices.BinarySearch(members, ep); ok && ep != primaries[i] {
					followers[k] = append(followers[k], at)
				}
			}
			followed = followed || len(followers[k]) > 0
		}
		owners = owners[len(ns):]
		if followed {
			out[i] = &core.ShipDirective{Followers: followers, Epoch: epoch, Quorum: quorum}
		}
	}
	return out
}

// direct gives the wave of every replicating destination in live
// (destState.repl) its ship directive; a pure session close executes nothing,
// so it ships nothing. Caller holds b.mu.
func (b *Batch) direct(live []*destState) {
	if !slices.ContainsFunc(live, func(ds *destState) bool { return ds.repl != nil }) {
		return
	}
	primaries, names := make([]string, len(live)), make([][]string, len(live))
	for i, ds := range live {
		primaries[i] = ds.group.endpoint
		if ds.cb.PendingCalls() > 0 {
			names[i] = ds.repl
		}
	}
	for i, d := range shipDirectives(b.dir.Ring(), primaries, names, b.quorum) {
		if d == nil {
			continue
		}
		// A wave that still addresses its roots by name carries the names
		// itself; once the first wave resolved them the request is
		// id-addressed, and the directive says what the roots are called.
		if slices.ContainsFunc(live[i].group.roots, func(p *Proxy) bool { return !p.lazy() }) {
			d.Names = names[i]
		}
		live[i].cb.Ship(d)
	}
}

// shipChain is the primary's state for one replicating chain — the waves one
// client batch sends one destination — kept by the executor with the chain's
// session and dropped with it. It holds the identity the chain's records
// carry, minted here and never taken from the client.
type shipChain struct {
	// off marks a chain whose first wave found a root with no movable
	// factory: no follower could build its shadow, so the chain flushes
	// unreplicated.
	off bool
	// id links the chain's records through one shadow session on each
	// follower; a record's ID is the wave's sequence number appended to it.
	id string
	// names and ifaces describe the chain's roots in payload order, fixed by
	// its first wave.
	names, ifaces []string

	mu  sync.Mutex
	seq uint64
	// tails[ep] is closed once the chain's latest ship to follower ep has
	// finished: the next wave's ship to ep waits for it, so a follower still
	// digesting wave k past a quorum-early ack never sees wave k+1 first.
	tails map[string]chan struct{}
}

// enqueue mints the next record's id and queues one ship per follower behind
// the chain's previous ship to it: ship i waits for prevs[i], if there is one,
// and closes dones[i] when it has finished.
func (c *shipChain) enqueue(followers []string) (id string, prevs, dones []chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id = c.id + "/" + strconv.FormatUint(c.seq, 10)
	c.seq++
	if c.tails == nil {
		c.tails = make(map[string]chan struct{}, len(followers))
	}
	prevs, dones = make([]chan struct{}, len(followers)), make([]chan struct{}, len(followers))
	for i, ep := range followers {
		prevs[i], dones[i] = c.tails[ep], make(chan struct{})
		c.tails[ep] = dones[i]
	}
	return id, prevs, dones
}

// admit is the executor's ship hook: it vets a wave's directive after the
// roots resolved and before anything executes. Nothing about the directive is
// trusted — it is whatever the wire decoded — so a malformed one, or one
// whose follower indexes fall outside this node's ring, rejects the wave with
// nothing executed and nothing dialed; one fenced by another epoch than this
// node's ring is refused the same way with *StaleShipError, which the client
// treats like a wrong-home refusal (refresh, re-route, one retry).
func (r *Replica) admit(w *core.Wave) (core.ShipFunc, error) {
	d := w.Directive
	names, err := waveNames(w)
	if err != nil {
		return nil, err
	}
	lists, followers, err := r.vetFollowers(d)
	if err != nil {
		return nil, err
	}
	chain, _ := w.Chain.(*shipChain)
	switch {
	case w.First:
		chain = r.newChain(w, names)
		w.Chain = chain
	case chain == nil:
		return nil, &wire.CorruptError{Detail: "ship directive joins a chain whose first wave carried none"}
	case !chain.off && !slices.Equal(names, chain.names):
		return nil, &wire.CorruptError{Detail: "ship directive of a chained wave names other roots than the chain's first"}
	}
	if chain.off || len(followers) == 0 {
		return nil, nil
	}
	return func(ctx context.Context, payload any) (time.Duration, error) {
		return r.ship(ctx, chain, d, lists, followers, payload)
	}, nil
}

// waveNames returns the names of the wave's roots, in payload order: the
// request's own where it addresses a root by name, the directive's where by
// id. Every root of a replicated wave has one.
func waveNames(w *core.Wave) ([]string, error) {
	d, n := w.Directive, len(w.Roots)
	switch {
	case len(d.Followers) != n:
		return nil, &wire.CorruptError{Detail: "ship directive follower lists are not parallel to the roots"}
	case len(d.Names) != 0 && len(d.Names) != n:
		return nil, &wire.CorruptError{Detail: "ship directive root names are not parallel to the roots"}
	}
	names := w.Names
	if len(names) == 0 {
		names = d.Names
	} else if len(d.Names) != 0 {
		names = slices.Clone(names)
		for i, name := range names {
			if name == "" {
				names[i] = d.Names[i]
			}
		}
	}
	if len(names) != n || slices.Contains(names, "") {
		return nil, &wire.CorruptError{Detail: "ship directive leaves a root without a name to replicate under"}
	}
	return names, nil
}

// vetFollowers checks the directive's quorum, fence and follower lists against
// this node's ring view and resolves them: the lists as endpoints, and the
// wave's distinct followers in first-appearance order. The indexes point into
// the sorted membership at the directive's epoch, which this node knows only
// when its view is at that very epoch: behind it, resolving them against its
// own older membership would name other servers, so the wave is a stale ship,
// as it is when the view is ahead. At its own epoch an index out of range, a
// list longer than the membership, or the primary among its own followers is
// a corrupt directive.
func (r *Replica) vetFollowers(d *core.ShipDirective) ([][]string, []string, error) {
	if d.Quorum < 0 {
		return nil, nil, &wire.CorruptError{Detail: "ship directive with a negative write quorum"}
	}
	members, epoch := r.node.view()
	if d.Epoch != epoch {
		return nil, nil, &StaleShipError{RecordEpoch: d.Epoch, NodeEpoch: epoch}
	}
	self := r.peer.Endpoint()
	lists := make([][]string, len(d.Followers))
	var followers []string
	for i, list := range d.Followers {
		if len(list) > len(members) {
			return nil, nil, &wire.CorruptError{Detail: "ship directive lists more followers than the ring has members"}
		}
		lists[i] = make([]string, len(list))
		for k, at := range list {
			if at < 0 || at >= len(members) {
				return nil, nil, &wire.CorruptError{Detail: fmt.Sprintf("ship directive follower index %d is outside a ring of %d members", at, len(members))}
			}
			ep := members[at]
			if ep == self {
				return nil, nil, &wire.CorruptError{Detail: "ship directive lists the primary among its own followers"}
			}
			lists[i][k] = ep
			if !slices.Contains(followers, ep) {
				followers = append(followers, ep)
			}
		}
	}
	return lists, followers, nil
}

// newChain starts the chain of a first wave: its roots' interfaces are read
// off this peer's export table — a root with no movable factory turns the
// chain off — and its id is minted from this peer's process-unique identity
// and the executor's session number.
func (r *Replica) newChain(w *core.Wave, names []string) *shipChain {
	c := &shipChain{names: names, ifaces: make([]string, len(names))}
	for i, id := range w.Roots {
		ref, _ := r.peer.LocalRef(id)
		if _, ok := movableFactory(ref.Iface); !ok {
			c.off = true
			return c
		}
		c.ifaces[i] = ref.Iface
	}
	c.id = r.peer.ClientID() + "#" + strconv.FormatUint(w.Session, 10)
	return c
}

// ship replicates the wave this primary just executed: it wraps payload — the
// primary's own decoded request, directive stripped — in a ReplRecord, sends
// it to every follower in parallel, each send bounded by shipTimeout and
// queued behind the chain's previous ship to that follower, and returns once
// every root's write quorum holds the record — with how long that took — or
// every follower answered: the worst miss is a *QuorumError, which reaches the
// client beside the wave's results and fails its flush. The wave stays
// executed either way, so the client never re-sends it. Under W<R the slowest
// followers keep replicating after the reply left; ctx is the serving peer's,
// so they end with it at the latest. lists are the directive's follower
// lists resolved to endpoints, followers their distinct members
// (vetFollowers).
func (r *Replica) ship(ctx context.Context, c *shipChain, d *core.ShipDirective, lists [][]string, followers []string, payload any) (time.Duration, error) {
	start := r.stats.Now()
	id, prevs, dones := c.enqueue(followers)
	recs := []*ReplRecord{{
		ID:      id,
		Chain:   c.id,
		Primary: r.peer.Endpoint(),
		Epoch:   d.Epoch,
		Names:   c.names,
		Ifaces:  c.ifaces,
		Payload: payload,
	}}

	// Buffered to the fan-out, so stragglers past the quorum ack never block.
	acks := make(chan followerAck, len(followers))
	// Read once at spawn: a detached straggler outlives this call, and the
	// package var is only synchronized up to the reply.
	timeout := shipTimeout
	for i, ep := range followers {
		go func() {
			defer close(dones[i])
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			acks <- followerAck{ep: ep, err: r.sendTo(sctx, ep, prevs[i], recs)}
		}()
	}
	tally := quorumTally{names: c.names, followers: lists, quorum: d.Quorum}
	for n := 0; n < len(followers) && !tally.met(); n++ {
		a := <-acks
		tally.ack(a.ep, a.err)
	}
	lag := r.stats.Now().Sub(start)
	r.lag.Observe(lag.Nanoseconds())
	if qe := tally.miss(); qe != nil {
		return lag, qe
	}
	return lag, nil
}

// sendTo ships recs to follower ep in one Append call, once prev — the
// chain's previous ship to ep, if any — has finished, and returns what the
// follower made of them. It is the one place a record leaves a server.
func (r *Replica) sendTo(ctx context.Context, ep string, prev <-chan struct{}, recs []*ReplRecord) error {
	if prev != nil {
		select {
		case <-prev:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	res, err := r.peer.Call(ctx, ReplicaRef(ep), "Append", recs)
	if err != nil {
		return err
	}
	slots, err := appendSlots(ep, len(recs), res)
	if err != nil {
		return err
	}
	for _, slot := range slots {
		if err := slotError(slot); err != nil {
			return err
		}
	}
	return nil
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

// appendSlots reads the answer of follower ep to an Append of sent records:
// exactly one slot per record.
func appendSlots(ep string, sent int, res []any) ([]any, error) {
	got := -1
	if len(res) == 1 {
		if slots, ok := res[0].([]any); ok {
			if got = len(slots); got == sent {
				return slots, nil
			}
		}
	}
	return nil, &ShipReplyError{Endpoint: ep, Sent: sent, Slots: got}
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

// quorumTally counts the acknowledgements of one wave's record. Quorum is
// judged per NAME over that name's own follower list — the record spans every
// root of the destination, and each root's shard must hold it.
type quorumTally struct {
	names     []string
	followers [][]string
	// quorum is the directive's W (0 = all), capped per name at its replica
	// count.
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
// The primary's copy is each name's first ack: it executed the wave.
func (q *quorumTally) count(i int) (acked, required int) {
	required = 1 + len(q.followers[i])
	if q.quorum > 0 && q.quorum < required {
		required = q.quorum
	}
	acked = 1
	for _, ep := range q.followers[i] {
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

// miss returns the worst quorum miss — the name furthest below its required
// count, with its followers' failures — or nil when quorum is met.
func (q *quorumTally) miss() *QuorumError {
	var worst *QuorumError
	for i, name := range q.names {
		acked, required := q.count(i)
		if acked >= required || (worst != nil && required-acked <= worst.Required-worst.Acked) {
			continue
		}
		worst = &QuorumError{Name: name, Acked: acked, Required: required}
		for _, ep := range q.followers[i] {
			if _, err := q.answer(ep); err != nil {
				worst.Failed = append(worst.Failed, &FollowerError{Endpoint: ep, Err: err})
			}
		}
	}
	return worst
}
