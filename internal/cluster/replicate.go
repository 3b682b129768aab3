package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// replicate.go is the ship leg of replication. It runs on the PRIMARY: the
// client's flush request to a replicating destination carries a ship
// directive (shipDirectives: where each root's followers are, as of which
// ring epoch, and the write quorum), the primary vets it before anything
// executes (Replica.admit), executes the wave, and — before it replies,
// holding no lock — wraps its own decoded request in a ReplRecord, queues it
// on the link to each of the wave's followers and answers once the quorum
// holds it (Replica.ship). A link is the primary's one ordered queue to one
// follower: records and placement Installs leave it in queue order, one call
// at a time, and what queues behind an Append rides the next one. Every wave
// is vetted and named on its own — the executor refuses a directive on a
// request that keeps or continues a session — so neither end keeps state
// between waves. A replicated wave costs the client its primary trips and
// nothing else.

// shipTimeout bounds a shipment — a wave's record or a placement's Install —
// from being queued on a link to being answered. Ships past the quorum ack
// outlive the reply, and one stuck on a wedged connection would otherwise
// hold its link, and all queued behind it, until the serving peer closes. A
// shipment whose deadline passes while queued fails unsent, so a wedged
// follower costs each wave one shipTimeout, not one per wave ahead of it.
// Variable so tests can shrink it.
var shipTimeout = 30 * time.Second

// ownerSource is what directive building needs of the shard map (*Ring).
type ownerSource interface {
	OwnersAll(keys []string) (owners [][]string, members []string, epoch uint64)
}

// shipDirectives builds the ship directives of one wave: names[i] are the
// root names of the destination served by primaries[i], in payload order, or
// empty for a destination that does not replicate. All their owner lists are
// read in ONE OwnersAll call, and that epoch fences every directive of the
// wave: a refresh between two reads would pair old-epoch followers with the
// new epoch, which a primary at the new epoch accepts. Followers travel as
// indexes into that epoch's sorted membership; a destination nobody follows
// gets nil.
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
// (destState.repl) its ship directive. Caller holds b.mu.
func (b *Batch) direct(live []*destState) {
	if !slices.ContainsFunc(live, func(ds *destState) bool { return ds.repl != nil }) {
		return
	}
	primaries, names := make([]string, len(live)), make([][]string, len(live))
	for i, ds := range live {
		primaries[i], names[i] = ds.group.endpoint, ds.repl
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

// UnreplicableError refuses a flush in which a replicated destination
// consumes, in a later wave, a remote result it produced in an earlier one:
// each wave replicates on its own, and a follower replaying the later one has
// no such result to resolve. The flush sends nothing. Recording the consumer
// in its producer's wave, or passing a value instead of the object, avoids it.
type UnreplicableError struct {
	// Endpoint is the destination; Method is the consuming call and Producer
	// the call whose result it consumes.
	Endpoint, Method, Producer string
}

func (e *UnreplicableError) Error() string {
	return fmt.Sprintf("cluster: %s on replicated %s consumes the result of %s from an earlier wave, which a follower cannot replay",
		e.Method, e.Endpoint, e.Producer)
}

// replicates reports whether g's waves replicate: the batch is epoch-aware
// over a replicated ring and every root of g is addressed by cluster-wide
// name. Caller holds b.mu.
func (b *Batch) replicates(g *group) bool {
	return b.dir != nil && b.dir.Replication() > 1 &&
		!slices.ContainsFunc(g.roots, func(p *Proxy) bool { return p.key == "" })
}

// admit is the executor's ship hook: it vets a wave's directive, which is
// whatever the wire decoded, after the roots resolved and before anything
// executes. A malformed one, or one whose follower indexes fall outside this
// node's ring, rejects the wave with nothing executed and nothing dialed; one
// fenced by another epoch is refused so with *StaleShipError, which the
// client treats like a wrong-home refusal (refresh, re-route, one retry). A
// wave with a root no follower could build a shadow of — its interface has
// no movable factory — runs unreplicated. Every wave is named on its own: its
// record's ID is this peer's process-unique identity and the executor's
// number for the wave.
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
	ifaces := make([]string, len(w.Roots))
	for i, id := range w.Roots {
		ref, _ := r.peer.LocalRef(id)
		if _, ok := movableFactory(ref.Iface); !ok {
			return nil, nil
		}
		ifaces[i] = ref.Iface
	}
	if len(followers) == 0 {
		return nil, nil
	}
	rec := &ReplRecord{
		ID:      r.peer.ClientID() + "#" + strconv.FormatUint(w.Session, 10),
		Primary: r.peer.Endpoint(),
		Epoch:   d.Epoch,
		Names:   names,
		Ifaces:  ifaces,
	}
	// Held until ship has put the record on its links: a placement snapshot
	// never holds half of this wave (Replica.Place). The executor calls the
	// ShipFunc whenever admit returned one.
	r.gate.RLock()
	return func(ctx context.Context, payload any) (time.Duration, error) {
		rec.Payload = payload
		return r.ship(ctx, rec, d.Quorum, lists, followers)
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
// at that very epoch; behind or ahead of it the wave is a stale ship. At its
// own epoch an index out of range, a list longer than the membership, or the
// primary among its own followers is a corrupt directive.
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

// ship replicates the wave this primary just executed: rec, whose payload is
// the primary's own decoded request, directive stripped. It queues rec on the
// link to every follower, and returns once every root's write quorum holds
// it — with how long that took — or every follower answered. The
// worst miss is a *QuorumError, which reaches the client beside the wave's
// results and fails its flush; the wave stays executed, so the client never
// re-sends it. lists are the directive's follower lists resolved to
// endpoints, followers their distinct members (vetFollowers).
func (r *Replica) ship(ctx context.Context, rec *ReplRecord, quorum int, lists [][]string, followers []string) (time.Duration, error) {
	start := r.stats.Now()
	// One slot per follower: a link answering past the quorum never blocks.
	acks := make(chan followerAck, len(followers))
	s := &shipment{ctx: ctx, rec: rec, deadline: time.Now().Add(shipTimeout), acks: acks}
	for _, f := range followers {
		r.push(f, s)
	}
	r.gate.RUnlock()
	tally := quorumTally{names: rec.Names, followers: lists, quorum: quorum}
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

// link is a primary's one ordered queue to one follower (see the file
// comment). Waves queue on it in the order they executed, and the gate puts a
// placement's Install after the records its snapshots hold and before the
// rest (Replica.Place). The call out, if any, is the queue's head; an idle
// link holds no goroutine.
type link struct {
	mu     sync.Mutex
	queued []*shipment
}

// shipment is one entry of a link's queue, a wave's record or the arguments
// of an Install, answered on acks by its deadline at the latest. A record's
// shipment is queued on each of its followers' links.
type shipment struct {
	ctx      context.Context
	rec      *ReplRecord
	install  []any
	deadline time.Time
	acks     chan<- followerAck
}

// push queues s on the link to follower f and starts its drain if it is idle.
func (r *Replica) push(f string, s *shipment) {
	v, ok := r.links.Load(f)
	if !ok {
		v, _ = r.links.LoadOrStore(f, &link{})
	}
	l := v.(*link)
	l.mu.Lock()
	idle := len(l.queued) == 0
	l.queued = append(l.queued, s)
	l.mu.Unlock()
	if idle {
		go r.drain(f, l)
	}
}

// drain sends the link's queue to follower f until it is empty, one call at a
// time: the run of records at its head as one Append, an Install alone, so
// what queued behind a call leaves with the next. A call that got no answer
// fails everything queued behind it, unsent: none of it is redialed for.
func (r *Replica) drain(f string, l *link) {
	l.mu.Lock()
	for len(l.queued) > 0 {
		n := 1
		for l.queued[0].rec != nil && n < len(l.queued) && l.queued[n].rec != nil {
			n++
		}
		next := l.queued[:n:n]
		l.mu.Unlock()
		err := r.send(f, next)
		l.mu.Lock()
		if l.queued = l.queued[n:]; err != nil {
			for _, s := range l.queued {
				s.acks <- followerAck{ep: f, err: err}
			}
			l.queued = nil
		}
	}
	l.queued = nil
	l.mu.Unlock()
}

// send makes one call to follower f for next, an Install or a run of records,
// and answers each shipment: one past its deadline unsent, the rest with the
// follower's verdict. It is the one place a record leaves a server; the call
// is bounded by the earliest deadline, and its error returned if unanswered.
func (r *Replica) send(f string, next []*shipment) error {
	var live []*shipment
	var recs []*ReplRecord
	var deadline time.Time
	for _, s := range next {
		if time.Now().After(s.deadline) {
			s.acks <- followerAck{ep: f, err: context.DeadlineExceeded}
			continue
		}
		if live == nil || s.deadline.Before(deadline) {
			deadline = s.deadline
		}
		live, recs = append(live, s), append(recs, s.rec)
	}
	if live == nil {
		return nil
	}
	ctx, cancel := context.WithDeadline(live[0].ctx, deadline)
	defer cancel()
	method, args := "Append", []any{recs}
	if live[0].install != nil {
		method, args = "Install", live[0].install
	}
	res, err := r.peer.Call(ctx, ReplicaRef(f), method, args...)
	var slots []any
	if err == nil && live[0].install == nil {
		slots, err = appendSlots(f, len(recs), res)
	}
	for i, s := range live {
		serr := err
		if slots != nil {
			serr = slotError(slots[i])
		}
		s.acks <- followerAck{ep: f, err: serr}
	}
	if errors.As(err, new(*rmi.RemoteException)) {
		return err
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
	quorum    int           // the directive's W (0 = all), capped per name at its replica count
	acks      []followerAck // the answers so far; the primary never ships to itself
}

// followerAck is one follower's answer to one shipment.
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
