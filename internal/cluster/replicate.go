package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// replicate.go is the ship leg of replication. It runs on the PRIMARY: the
// client's flush request to a replicating destination carries a ship
// directive (direct: the ring epoch and replication degree the client routed
// by, and the write quorum), the primary vets it and picks each root's
// followers off its own ring at that epoch before anything executes
// (Replica.admit) — by the owner walk its placements seed them by — executes
// the wave, and — before it replies, holding no lock — wraps its own decoded
// request in a ReplRecord, queues it on the link to each of the wave's
// followers and answers once the quorum holds it (Replica.ship). A link is
// the primary's one ordered queue to one follower: records, placement
// Installs and Forgets leave it in queue order, one call at a time, and
// what queues behind an Append rides the next one. A link sends each
// shipment at most once — a call that got no answer fails what queued behind
// it, unsent, and nothing is resent — so a follower applies each record it
// is sent once, in queue order, with no record identity to dedupe by. Every
// wave is vetted on its own — the executor refuses a directive on a request
// that keeps or continues a session — so neither end keeps state between
// waves. A replicated wave costs the client its primary trips and nothing
// else.

// shipTimeout bounds a shipment — a wave's record or a placement's Install —
// from being queued on a link to being answered. Ships past the quorum ack
// outlive the reply, and one stuck on a wedged connection would otherwise
// hold its link, and all queued behind it, until the serving peer closes. A
// shipment whose deadline passes while queued fails unsent, so a wedged
// follower costs each wave one shipTimeout, not one per wave ahead of it.
// Variable so tests can shrink it.
var shipTimeout = 30 * time.Second

// direct gives the wave of every replicating destination in live (replicates)
// its ship directive: the ring's epoch and replication degree — R is fixed at
// the ring's construction, so the epoch is the one read — and the write
// quorum. Caller holds b.mu.
func (b *Batch) direct(live []*destState) {
	var d *core.ShipDirective
	for _, ds := range live {
		if !b.replicates(ds.group) {
			continue
		}
		if d == nil {
			ring := b.dir.Ring()
			d = &core.ShipDirective{Epoch: ring.Epoch(), Replication: ring.Replication(), Quorum: b.quorum}
		}
		ds.cb.Ship(d)
	}
}

// CrossWaveError refuses a call that takes a remote result outside the wave
// that produced it: a remote result lives in its wave's requests only, so a
// call that would run in a later wave — staged behind a replicated value, or
// taking the result across servers from a replicated destination — cannot
// reach it. Found at planning, it fails the flush before anything is sent;
// recording the consumer in its producer's wave, or passing a value instead
// of the object, avoids it. A stale-route retry that re-plans a call whose
// remote input a wave that ran already produced settles the call with it too,
// Cause then being the refusal the retry follows.
//
// A replicated wave refuses one more shape with it, Cause ErrCrossRoot: a
// call taking another root of its own destination, or a remote result of
// one. The wave ships to each root's followers as it ran, the object as the
// reference it is inside the request, and a follower of the consumer's root
// that does not follow the other root would replay against a blank shadow of
// it, so the consumer's state after a failover would not be what was acked.
type CrossWaveError struct {
	// Endpoint is the destination; Method is the consuming call and Producer
	// the call whose result it consumes — or, for a root it takes
	// (ErrCrossRoot), the root's name.
	Endpoint, Method, Producer string
	Cause                      error
}

// ErrCrossRoot is the Cause of a *CrossWaveError refusing, on a replicating
// destination, a call that takes another of its roots or a remote result of
// one.
var ErrCrossRoot = errors.New("a replicated wave passes no object from one root to another")

func (e *CrossWaveError) Error() string {
	if e.Cause == ErrCrossRoot {
		return fmt.Sprintf("cluster: %s on %s takes an object of another root (%s): %v", e.Method, e.Endpoint, e.Producer, e.Cause)
	}
	if e.Cause != nil {
		return fmt.Sprintf("cluster: stale-route retry: %s on %s takes the remote result of %s, which lived only in its wave: %v",
			e.Method, e.Endpoint, e.Producer, e.Cause)
	}
	return fmt.Sprintf("cluster: %s on %s takes the remote result of %s in a later wave, and a remote result lives only in its own",
		e.Method, e.Endpoint, e.Producer)
}

// Unwrap exposes the refusal a stale-route retry followed.
func (e *CrossWaveError) Unwrap() error { return e.Cause }

// BoundAwayError fails a replicated destination holding a named root that
// its name's home binds to an object on another server. A wave replicates
// under the names its primary resolves, and no server resolves this one to
// where the object lives, so the destination is sent nothing.
type BoundAwayError struct {
	// Name is the root's name, Ref the object its home binds it to.
	Name string
	Ref  wire.Ref
}

func (e *BoundAwayError) Error() string {
	return fmt.Sprintf("cluster: %q is bound on %s, away from its home, so a replicated wave cannot address it by name",
		e.Name, e.Ref.Endpoint)
}

// replicates reports whether g's waves replicate: the batch is epoch-aware
// over a replicated ring (R > 1) and every root of g has a cluster-wide
// name, which it replicates under. An anonymous or system root has no shard
// identity, so its destination flushes unreplicated. Caller holds b.mu.
func (b *Batch) replicates(g *group) bool {
	return b.dir != nil && b.dir.Replication() > 1 &&
		!slices.ContainsFunc(g.roots, func(p *Proxy) bool { return p.key == "" })
}

// admit is the executor's ship hook: it vets a wave's directive, which is
// whatever the wire decoded, after the roots resolved and before anything
// executes. A malformed one rejects the wave with nothing executed and nothing
// dialed; one fenced by another epoch is refused so with *StaleShipError,
// which the client treats like a wrong-home refusal (refresh, re-route, one
// retry). A wave nobody follows, or with a root no follower could build a
// shadow of — its interface has no movable factory — runs unreplicated.
func (r *Replica) admit(w *core.Wave) (core.ShipFunc, error) {
	d := w.Directive
	names, err := waveNames(w)
	if err != nil {
		return nil, err
	}
	// Held from the view read until ship has put the record on its links: a
	// placement flips the view and cuts its snapshots between waves, never
	// inside one (Replica.Place). The executor calls the ShipFunc whenever
	// admit returned one.
	r.gate.RLock()
	lists, followers, err := r.followers(d, names)
	ifaces := make([]string, len(w.Roots))
	for i, id := range w.Roots {
		ref, _ := r.peer.LocalRef(id)
		if _, ok := movableFactory(ref.Iface); !ok {
			followers = nil
		}
		ifaces[i] = ref.Iface
	}
	if err != nil || len(followers) == 0 {
		r.gate.RUnlock()
		return nil, err
	}
	rec := &ReplRecord{
		Primary: r.peer.Endpoint(),
		Epoch:   d.Epoch,
		Names:   names,
		Ifaces:  ifaces,
	}
	return func(ctx context.Context, payload any) (time.Duration, error) {
		rec.Payload = payload
		return r.ship(ctx, rec, d.Quorum, lists, followers)
	}, nil
}

// waveNames returns the names of the wave's roots, in payload order: every
// root of a replicated wave travels by the name it replicates under.
func waveNames(w *core.Wave) ([]string, error) {
	if len(w.Names) != len(w.Roots) || slices.Contains(w.Names, "") {
		return nil, &wire.CorruptError{Detail: "ship directive on a wave with a root not addressed by name"}
	}
	return w.Names, nil
}

// followers checks the directive's replication degree, quorum and fence, and
// picks each name's followers: its owners at the directive's R on this node's
// ring, this primary excluded — the walk Place seeds them by — and the wave's
// distinct followers in first-appearance order. The client routed by the ring
// at its epoch, which this node holds only at that very epoch; behind or
// ahead of it the wave is a stale ship.
func (r *Replica) followers(d *core.ShipDirective, names []string) ([][]string, []string, error) {
	switch {
	case d.Replication < 2:
		return nil, nil, &wire.CorruptError{Detail: fmt.Sprintf("ship directive at replication %d", d.Replication)}
	case d.Quorum < 0:
		return nil, nil, &wire.CorruptError{Detail: "ship directive with a negative write quorum"}
	}
	ring, epoch := r.viewRing()
	if d.Epoch != epoch {
		return nil, nil, &StaleShipError{RecordEpoch: d.Epoch, NodeEpoch: epoch}
	}
	self := r.peer.Endpoint()
	lists := make([][]string, len(names))
	var followers []string
	for i, name := range names {
		for _, ep := range ring.ownersAt(name, d.Replication) {
			if ep == self {
				continue
			}
			lists[i] = append(lists[i], ep)
			if !slices.Contains(followers, ep) {
				followers = append(followers, ep)
			}
		}
	}
	return lists, followers, nil
}

// viewRing returns this node's ring view — its members at its epoch — as a
// Ring to walk owners on, and that epoch. The point table depends on the
// members alone, so it is built once per view, not once per wave.
func (r *Replica) viewRing() (*Ring, uint64) {
	members, epoch := r.node.view()
	if v := r.view.Load(); v != nil && v.epoch == epoch && slices.Equal(v.members, members) {
		return v.ring, epoch
	}
	v := &ringView{members: members, epoch: epoch, ring: NewRing(members)}
	r.view.Store(v)
	return v.ring, epoch
}

// ringView is the Ring a primary built of one node view (viewRing).
type ringView struct {
	members []string
	epoch   uint64
	ring    *Ring
}

// ship replicates the wave this primary just executed: rec, whose payload is
// the primary's own decoded request, directive stripped. It queues rec on the
// link to every follower, and returns once every root's write quorum holds
// it — with how long that took — or every follower answered. The
// worst miss is a *QuorumError, which reaches the client beside the wave's
// results and fails its flush; the wave stays executed, so the client never
// re-sends it. lists are each name's followers, followers their distinct
// members (Replica.followers).
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
	// missed holds the names of Installs that failed here: the follower may
	// lack their history, so a record naming one fails unsent, never acked,
	// until an Install of the name lands or the primary's next full fence
	// clears the set (Replica.place).
	missed map[string]bool
}

// errMissed fails a record naming a name its follower's Install missed.
var errMissed = errors.New("cluster: the follower missed its placement; its records fail until a placement reaches it")

// shipment is one entry of a link's queue, a wave's record or a call of
// method with args (an Install or a Forget), answered on acks by its deadline
// at the latest. A record's shipment is queued on each of its followers'
// links.
type shipment struct {
	ctx      context.Context
	rec      *ReplRecord
	method   string
	args     []any
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
// time: the run of records at its head as one Append, any other call alone,
// so what queued behind a call leaves with the next. A call that got no answer
// fails everything queued behind it, unsent: none of it is redialed for. An
// Install's names are missed while it failed last (link.missed).
func (r *Replica) drain(f string, l *link) {
	l.mu.Lock()
	for len(l.queued) > 0 {
		n := 1
		for l.queued[0].rec != nil && n < len(l.queued) && l.queued[n].rec != nil {
			n++
		}
		next := l.queued[:n:n]
		var out []*shipment
		for _, s := range next {
			if s.rec != nil && slices.ContainsFunc(s.rec.Names, func(name string) bool { return l.missed[name] }) {
				s.acks <- followerAck{ep: f, err: errMissed}
			} else {
				out = append(out, s)
			}
		}
		l.mu.Unlock()
		var err error
		if len(out) > 0 {
			err = r.send(f, out)
		}
		l.mu.Lock()
		if next[0].method == "Install" {
			if err != nil && l.missed == nil {
				l.missed = make(map[string]bool)
			}
			for _, name := range next[0].args[2].([]string) {
				if err == nil {
					delete(l.missed, name)
				} else {
					l.missed[name] = true
				}
			}
		}
		if l.queued = l.queued[n:]; errors.As(err, new(*rmi.RemoteException)) {
			for _, s := range l.queued {
				s.acks <- followerAck{ep: f, err: err}
			}
			l.queued = nil
		}
	}
	l.queued = nil
	l.mu.Unlock()
}

// send makes one call to follower f for next, a run of records or one call,
// and answers each shipment: one past its deadline unsent, the rest with the
// follower's verdict. It is the one place a record leaves a server; the call
// is bounded by the earliest deadline. It returns the call's error — an
// Install's refusal, or no answer — and an Install expired unsent as
// context.DeadlineExceeded.
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
		return context.DeadlineExceeded
	}
	ctx, cancel := context.WithDeadline(live[0].ctx, deadline)
	defer cancel()
	method, args := "Append", []any{recs}
	if live[0].rec == nil {
		method, args = live[0].method, live[0].args
	}
	res, err := r.peer.Call(ctx, ReplicaRef(f), method, args...)
	var slots []any
	if err == nil && live[0].rec != nil {
		slots, err = appendSlots(f, len(recs), res)
	}
	for i, s := range live {
		serr := err
		if slots != nil {
			serr = slotError(slots[i])
		}
		s.acks <- followerAck{ep: f, err: serr}
	}
	return err
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
