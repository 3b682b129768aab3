package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/rmi"
	"repro/internal/wire"
)

// push.go: values that cross servers inside one flush. A cluster flush sends
// every destination its part in one wave; a value call whose result another
// destination consumes carries a push list (invocationData.Push), and right
// after it ran its executor sends the value — or the failure that kept it from
// producing one — to each consumer's executor (Push). There the consumer's
// call waits for it in a rendezvous table keyed by (flush id, producer tag),
// whichever of the two arrives first. Recording order is a topological order
// and every destination replays in it, so every wait points backward in the
// recording and the earliest waiting call waits on one that has run or will:
// nothing deadlocks, and pushWait bounds what a lost push costs.

// pushWait bounds a rendezvous: how long a consumer waits for a pushed value,
// and how long a value pushed ahead of its consumer is kept for it.
const pushWait = 5 * time.Second

// maxRendezvous caps the entries one executor's rendezvous table holds: a
// flood of pushes nobody consumes is refused, not queued.
const maxRendezvous = 4096

// PushTimeoutError fails a call whose pushed argument did not arrive within
// the rendezvous bound: the producer's server never pushed it (it died, or
// never received its part of the flush), or the push was lost.
type PushTimeoutError struct {
	Tag  int64
	Wait time.Duration
}

func (e *PushTimeoutError) Error() string {
	return fmt.Sprintf("brmi: pushed value %d did not arrive within %v", e.Tag, e.Wait)
}

// RendezvousFullError refuses a push, or a consumer's wait, when the
// executor's rendezvous table already holds Cap entries.
type RendezvousFullError struct {
	Cap int
}

func (e *RendezvousFullError) Error() string {
	return fmt.Sprintf("brmi: rendezvous table full (%d entries)", e.Cap)
}

// Pushed is a call argument standing for the value that the call tagged Tag,
// on another destination of the same cluster flush, pushes to this one (see
// Batch.PushTo and Batch.SetFlush): the serving peer waits for it, a bounded
// time, and hands the call a copy — or, if the producer failed, fails the
// call with the producer's error, unexecuted.
type Pushed struct {
	Tag int64
}

// SetFlush makes the next flush one destination's part of the cluster flush
// id: its pushes, and the Pushed arguments it waits for, rendezvous under it.
func (b *Batch) SetFlush(id uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.flushID = id
}

// PushTo makes the unflushed value call behind f send its result, as soon as
// it ran, to the serving peers at endpoints, under tag: other destinations of
// the same flush, whose calls take it as Pushed{Tag: tag}.
func (b *Batch) PushTo(f *Future, tag int64, endpoints []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if f == nil || f.st == nil || f.st.b != b {
		return ErrForeignProxy
	}
	i := f.st.seq - b.recBase
	if f.st.cursor != nil || i < 0 || i >= int64(len(b.calls)) {
		return fmt.Errorf("brmi: push of a value that is not an unflushed call of this batch outside a cursor run")
	}
	inv := &b.calls[i]
	inv.Tag = tag
	for _, ep := range endpoints {
		at := slices.Index(b.peers, ep)
		if at < 0 {
			at = len(b.peers)
			b.peers = append(b.peers, ep)
		}
		inv.Push = append(inv.Push, int64(at))
	}
	return nil
}

// rendezvousKey names one pushed value: the flush, and the producer's tag.
type rendezvousKey struct {
	flush uint64
	tag   int64
}

// rendezvous is one entry of the table: a value pushed ahead of its consumer,
// or a consumer waiting for its value. ready closes once val/err are set —
// by the push, or by the bound.
type rendezvous struct {
	ready chan struct{}
	val   any
	err   error
	set   bool
	stop  func() bool // cancels the bound
}

// received is what one run's Pushed arguments got: kept so a second consumer
// of the same value in the request is answered without a second wait.
type received struct {
	val any
	err error
}

// Push is the consumer's end of a value crossing servers inside a flush: a
// producer's executor calls it on the consumer's once the producer call ran.
// The value waits for the consumer's request at most pushWait; a duplicate of
// a value already here changes nothing.
func (e *Executor) Push(_ context.Context, p *valuePush) error {
	if p == nil || p.Flush == 0 {
		return &wire.CorruptError{Detail: "value push outside a flush"}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rv, err := e.rendezvousLocked(rendezvousKey{p.Flush, p.Tag})
	if err != nil {
		return err
	}
	e.fillLocked(rv, p.Value, p.Err)
	return nil
}

// rendezvousLocked finds key's entry or makes one, bounded: the entry fills
// with *PushTimeoutError and leaves the table once pushWait has passed, unless
// its consumer took it first. Caller holds e.mu.
func (e *Executor) rendezvousLocked(key rendezvousKey) (*rendezvous, error) {
	if rv := e.rv[key]; rv != nil {
		return rv, nil
	}
	if len(e.rv) >= maxRendezvous {
		return nil, &RendezvousFullError{Cap: maxRendezvous}
	}
	if e.rv == nil {
		e.rv = make(map[rendezvousKey]*rendezvous)
	}
	rv := &rendezvous{ready: make(chan struct{})}
	e.rv[key] = rv
	rv.stop = e.reg.AfterIdle(pushWait, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.fillLocked(rv, nil, &PushTimeoutError{Tag: key.tag, Wait: pushWait})
		e.dropLocked(key, rv)
	})
	return rv, nil
}

// fillLocked settles rv once. Caller holds e.mu.
func (e *Executor) fillLocked(rv *rendezvous, val any, err error) {
	if rv.set {
		return
	}
	rv.val, rv.err, rv.set = val, err, true
	close(rv.ready)
}

// dropLocked removes key's entry if it is still rv. Caller holds e.mu.
func (e *Executor) dropLocked(key rendezvousKey, rv *rendezvous) {
	if e.rv[key] == rv {
		delete(e.rv, key)
	}
}

// await takes the value pushed under key, waiting for it if it has not
// arrived, and removes the entry.
func (e *Executor) await(ctx context.Context, key rendezvousKey) (any, error) {
	e.mu.Lock()
	rv, err := e.rendezvousLocked(key)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	select {
	case <-rv.ready:
	case <-ctx.Done():
		e.mu.Lock()
		e.fillLocked(rv, nil, ctx.Err())
		e.mu.Unlock()
	}
	e.mu.Lock()
	e.dropLocked(key, rv)
	e.mu.Unlock()
	rv.stop()
	return rv.val, rv.err
}

// forget drops the entries req's Pushed arguments would have taken: values
// pushed for a consumer that never ran — skipped, or aborted — die with its
// wave rather than at the bound.
func (e *Executor) forget(req *batchRequest) {
	if req.Flush == 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range req.Calls {
		for _, a := range req.Calls[i].Args {
			key := rendezvousKey{req.Flush, a.Seq}
			if rv := e.rv[key]; a.Pushed && rv != nil {
				e.dropLocked(key, rv)
				rv.stop()
			}
		}
	}
}

// pushedArg resolves a Pushed argument of the running request: from what an
// earlier consumer in it received, else from the rendezvous. A request that
// names no flush — a replica's replay among them — has nothing to wait for,
// and the argument is unresolved.
func (e *Executor) pushedArg(ctx context.Context, st *execState, tag int64) (any, error) {
	got, ok := st.received[tag]
	if !ok {
		if st.flush == 0 {
			return nil, &UnresolvedRefError{Seq: tag}
		}
		got.val, got.err = e.await(ctx, rendezvousKey{st.flush, tag})
		if st.received == nil {
			st.received = make(map[int64]received, 4)
		}
		st.received[tag] = got
	}
	if got.err != nil {
		return nil, got.err
	}
	return st.splice(got.val)
}

// push sends what call produced — res's value, or its failure — to every
// destination on the call's push list. Another server gets it in a call of
// its own that the replay does not wait for; a push outlives the request that
// made it by at most pushWait, and one that fails leaves its consumer to fail
// at the bound. The serving peer itself — a second request of the flush here,
// which a stale-route retry can send — gets it in its rendezvous table at
// once.
func (e *Executor) push(ctx context.Context, st *execState, call *invocationData, res *callResult) {
	p := &valuePush{Flush: st.flush, Tag: call.Tag, Value: res.Value, Err: res.Err}
	for _, at := range call.Push {
		e.pushes.Inc()
		if ep := st.peers[at]; ep == e.peer.Endpoint() {
			_ = e.Push(ctx, p) // a full table leaves the consumer to fail typed at its own wait
			continue
		}
		ref := rmi.SystemRef(st.peers[at], rmi.BatchObjID, rmi.BatchIface)
		go func() {
			pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), pushWait)
			defer cancel()
			_, _ = e.peer.Call(pctx, ref, "Push", p)
		}()
	}
}

// PushValue pushes, from the client, what the call tagged tag of flush ended
// with — val, or failure — to the executor at endpoint, where a consumer may be
// waiting for it: the cluster layer's notice that a producer's request failed.
func PushValue(ctx context.Context, peer *rmi.Peer, endpoint string, flush uint64, tag int64, val any, failure error) error {
	w, err := peer.ToWire(val)
	if err != nil {
		w, failure = nil, err
	}
	_, err = peer.Call(ctx, rmi.SystemRef(endpoint, rmi.BatchObjID, rmi.BatchIface), "Push", &valuePush{Flush: flush, Tag: tag, Value: w, Err: failure})
	return err
}

// shadowPayload is what a replicating primary ships of a request: the request
// minus its ship directive, and outside any flush — its followers replay it
// where nothing is pushed to them — so a Pushed argument travels as the
// literal this wave received, and nothing is pushed again. One whose producer
// failed stays a reference, which a replay cannot resolve: it skips the
// consumer, as the producer's failure did here.
func shadowPayload(req *batchRequest, got map[int64]received) *batchRequest {
	p := *req
	p.Ship = nil
	if req.Flush == 0 {
		return &p
	}
	p.Flush, p.Peers = 0, nil
	p.Calls = slices.Clone(req.Calls)
	for i := range p.Calls {
		c := &p.Calls[i]
		c.Tag, c.Push = 0, nil
		if !slices.ContainsFunc(c.Args, func(a batchArg) bool { return a.Pushed }) {
			continue
		}
		c.Args = slices.Clone(c.Args)
		for j, a := range c.Args {
			if r, ok := got[a.Seq]; a.Pushed && ok && r.err == nil {
				c.Args[j] = batchArg{Val: r.val}
			}
		}
	}
	return &p
}
