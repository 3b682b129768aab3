package cluster

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
)

// push.go is the client's half of the values that cross servers inside a
// wave (the servers' half is core/push.go): which servers a producer pushes
// its value to (waiting, under the run's flushID), telling the servers that
// wait for a value whose producer's request failed (notify), the calls a
// refused request left waiting (waitedOn), and the consumers that ran on a
// value whose producer the client then saw fail (propagate).

// flushID is the id the run's requests push values under: random, so the
// flushes of every client of a server rendezvous apart, with the top bit set,
// so every id takes the same ten bytes on the wire. Caller holds b.mu.
func (r *run) flushID() uint64 {
	if r.flush == 0 {
		r.flush = rand.Uint64() | 1<<63
	}
	return r.flush
}

// waiting are the servers where a call of c's wave in another request than
// c's waits for c's value — c's own server among them when a stale-route
// retry put a second request there. Caller holds b.mu.
func waiting(c *recordedCall) []string {
	var eps []string
	for _, k := range c.consumers {
		if ep := k.group.endpoint; !k.out.done && k.stage == c.stage && k.group != c.group && !slices.Contains(eps, ep) {
			eps = append(eps, ep)
		}
	}
	return eps
}

// notify tells the servers waiting for the values of sb's value calls that
// they will not come: sb's request failed with err. Their consumers there
// fail with err at once, not at the rendezvous bound. (A request that did run
// and pushed before it failed makes this a duplicate, which changes nothing.)
// The notices are best effort and nobody waits for them: each is bounded on
// its own. Caller holds b.mu.
func (r *run) notify(ctx context.Context, sb *subBatch, err error) {
	for _, c := range sb.calls {
		if c.kind != kindValue || c.sent == nil {
			continue
		}
		flush, tag, peer := r.flushID(), int64(c.index), r.b.peer
		for _, ep := range waiting(c) {
			go func() {
				pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), core.DefaultSessionTTL/4)
				defer cancel()
				_ = core.PushValue(pctx, peer, ep, flush, tag, nil, err)
			}()
		}
	}
}

// waitedOn returns the calls of subs outside the rejected sub-batches that
// waited, inside the wave, for a value of a rejected one — directly, or
// through another such call: their servers failed them for want of it, before
// they executed (notify), and the stale-route retry runs them again. Caller
// holds b.mu.
func waitedOn(subs []*subBatch, rejected []rejection) []*recordedCall {
	if len(rejected) == 0 {
		return nil
	}
	refused := make(map[*recordedCall]bool)
	for _, rj := range rejected {
		for _, c := range rj.sb.calls {
			refused[c] = !c.out.done
		}
	}
	var calls []*recordedCall
	for _, sb := range subs {
		calls = append(calls, sb.calls...)
	}
	var waited []*recordedCall
	for _, c := range byIndex(calls) {
		if !c.out.done && !refused[c] && slices.ContainsFunc(c.inputs(), func(in input) bool {
			return !in.staged && (refused[in.producer] || slices.Contains(waited, in.producer))
		}) {
			waited = append(waited, c)
		}
	}
	return waited
}

// propagate fails every call of subs that ran on a value whose producer
// failed after all: a destination that failed after its call ran — its reply
// lost — may have pushed the value on first. The consumer's future rethrows
// the producer's error, as every dependent's does (§3.3). Caller holds b.mu.
func propagate(subs []*subBatch) {
	var calls []*recordedCall
	for _, sb := range subs {
		calls = append(calls, sb.calls...)
	}
	for _, c := range byIndex(calls) {
		if !c.out.done || c.out.err != nil {
			continue
		}
		for _, a := range c.args {
			if x, ok := a.(*Future); ok && x.done && x.err != nil {
				settle(c, nil, x.err)
				break
			}
		}
	}
}

// lostPush reports whether err is a pushed value that never reached its
// consumer: the consumer's call failed for want of it, and so does the flush.
func lostPush(err error) bool {
	var timeout *core.PushTimeoutError
	var full *core.RendezvousFullError
	return errors.As(err, &timeout) || errors.As(err, &full)
}
