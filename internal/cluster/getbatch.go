package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
)

// Streaming bulk reads across the cluster (the Get-Batch workload).
//
// GetBatch turns N named reads into ONE stream request per home server,
// and the request carries the NAMES: each name routes by the local ring
// (Directory.Home, no network), the groups ship as one name-addressed
// core.GetBatch stream each, in parallel, and the serving executor resolves
// every name in its own registry before reading it. A read of N names over
// D distinct homes costs D round trips — 1 at N=1 — and GetBatch itself
// returns without touching the network. The returned Stream is the
// client-side assembler: it merges the per-destination streams back into
// exact request order, delivering entry i while later entries are still in
// flight.
//
// Two per-entry outcomes send a position round again; the in-order
// assembler simply waits for the late indexes:
//
//   - *core.ElsewhereError: the name is bound at its home to an object on
//     another endpoint. The position is re-read id-addressed there, one
//     second-hop stream per such endpoint.
//   - *rmi.WrongHomeError: the name migrated after this directory last saw
//     the ring. One coalesced, epoch-bounded Directory.Refresh, then the
//     positions are re-issued by name at their new homes — once per
//     GetBatch, counted in cluster.lookup_retries.
//
// Every name is read at its ring home — with replicated shards, the
// primary — so a read sees every write the primary acked.

// StreamEntry is one delivered result of a cluster GetBatch: the request
// position, the name read, and its value or per-name failure. A failed
// destination fails its own entries; other destinations keep streaming.
type StreamEntry struct {
	Index int
	Name  string
	Value any
	Err   error
}

// GetBatchOption configures a cluster GetBatch.
type GetBatchOption func(*getBatchOpts)

type getBatchOpts struct {
	method string
}

// WithGetMethod reads each object through the named no-argument accessor
// instead of its Movable snapshot.
func WithGetMethod(method string) GetBatchOption {
	return func(o *getBatchOpts) { o.method = method }
}

// readPlan is one round of streams: the positions still to read, grouped
// by the endpoint each is read at, in request order within a group.
type readPlan struct {
	byDest map[string]*destBatch
	dests  []*destBatch
}

// destBatch is the per-destination slice of a round: the stream request
// (parallel ObjIDs, Names and global Indexes, as add builds it) and whether
// any position in it is addressed by name, and any by id.
type destBatch struct {
	endpoint  string
	req       core.GetBatchRequest
	named, id bool
}

// add appends request position index to endpoint's group: id-addressed
// when objID is non-zero, else addressed by name.
func (pl *readPlan) add(endpoint string, index int, objID uint64, name string) {
	db := pl.byDest[endpoint]
	if db == nil {
		if pl.byDest == nil {
			pl.byDest = make(map[string]*destBatch)
		}
		db = &destBatch{endpoint: endpoint}
		pl.byDest[endpoint] = db
		pl.dests = append(pl.dests, db)
	}
	if objID != 0 {
		name = ""
		db.id = true
	} else {
		db.named = true
	}
	db.req.ObjIDs = append(db.req.ObjIDs, objID)
	db.req.Names = append(db.req.Names, name)
	db.req.Indexes = append(db.req.Indexes, int64(index))
}

// trim drops from the request the addressing slice no position uses — the
// parallel form is for a stream that mixes ids and names — and returns the
// per-position ids, zero where the position goes by name.
func (db *destBatch) trim() (ids []uint64) {
	ids = db.req.ObjIDs
	if !db.named {
		db.req.Names = nil // id-addressed throughout: the three-field wire form
	}
	if !db.id {
		db.req.ObjIDs = nil // named throughout: no column of zeros
	}
	return ids
}

// reroutes collects, across one round's parallel streams, the positions
// whose entry said "not here": second hops by id and wrong-home retries by
// name.
type reroutes struct {
	mu    sync.Mutex
	hops  []hop
	wrong []int
	epoch uint64 // newest epoch a wrong-home entry announced
}

// hop is one position bound elsewhere: where, per its home's registry.
type hop struct {
	index int
	at    *core.ElsewhereError
}

// Stream delivers a cluster GetBatch strictly in request order. Entries
// arriving out of global order (a fast destination running ahead) buffer
// until the gap fills; cluster.getbatch_buffer gauges that backlog.
type Stream struct {
	peer   *rmi.Peer
	dir    *Directory
	names  []string
	method string

	cancel context.CancelFunc
	depth  *stats.Gauge
	wg     sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond // signaled on deliver and Close
	buf    map[int]*StreamEntry
	next   int
	closed bool
}

// GetBatch issues one ordered bulk read of names across the cluster. It
// plans and reads in the background and returns at once; the caller must
// drain the stream to io.EOF or Close it. Resolution failures (unknown
// name, no route) surface as that entry's Err, not as a global failure.
func GetBatch(ctx context.Context, p *rmi.Peer, d *Directory, names []string, opts ...GetBatchOption) (*Stream, error) {
	var o getBatchOpts
	for _, op := range opts {
		op(&o)
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Stream{
		peer:   p,
		dir:    d,
		names:  names,
		method: o.method,
		cancel: cancel,
		buf:    make(map[int]*StreamEntry),
	}
	s.cond = sync.NewCond(&s.mu)
	if reg := p.Stats(); reg != nil {
		s.depth = reg.Gauge("cluster.getbatch_buffer")
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run(sctx)
	}()
	return s, nil
}

// run reads every position: one round of name-addressed streams to the
// homes, then a round per kind of reroute the entries ask for. A position
// is re-issued by name at most once and hops by id at most once, so the
// rounds are bounded.
func (s *Stream) run(ctx context.Context) {
	var plan readPlan
	for i, name := range s.names {
		home, err := s.dir.Home(name)
		if err != nil {
			s.deliver(&StreamEntry{Index: i, Name: name, Err: err})
			continue
		}
		plan.add(home, i, 0, name)
	}

	var retried map[int]bool // positions already re-issued by name
	for len(plan.dests) > 0 {
		var rr reroutes
		_ = fanOut(plan.dests, func(_ int, db *destBatch) error {
			s.runDest(ctx, db, retried, &rr)
			return nil
		})
		plan = readPlan{}
		for _, h := range rr.hops {
			plan.add(h.at.Ref.Endpoint, h.index, h.at.Ref.ObjID, h.at.Name)
		}
		if len(rr.wrong) == 0 {
			continue
		}
		if retried == nil {
			retried = make(map[int]bool, len(rr.wrong))
		}
		rerr := s.dir.refreshTo(ctx, rr.epoch)
		if rerr == nil {
			s.dir.lookupRetries.Inc()
		}
		for _, i := range rr.wrong {
			retried[i] = true
			name := s.names[i]
			if rerr != nil {
				s.deliver(&StreamEntry{Index: i, Name: name, Err: fmt.Errorf("cluster: getbatch %q: wrong home (ring refresh failed: %w)", name, rerr)})
			} else if home, err := s.dir.Home(name); err != nil {
				s.deliver(&StreamEntry{Index: i, Name: name, Err: err})
			} else {
				plan.add(home, i, 0, name)
			}
		}
	}
}

// runDest drains one destination's sub-stream into the assembler. The
// per-server stream is ordered, so core.GetBatchStream pairs its entries with
// the sub-batch's indexes; a destination failing mid-stream fails exactly its
// undelivered remainder. Entries that say "not here" go to rr instead of
// the assembler.
func (s *Stream) runDest(ctx context.Context, db *destBatch, retried map[int]bool, rr *reroutes) {
	indexes := db.req.Indexes
	failFrom := func(cursor int, err error) {
		for _, gi := range indexes[cursor:] {
			s.deliver(&StreamEntry{Index: int(gi), Name: s.names[gi], Err: err})
		}
	}
	db.req.Method = s.method
	ids := db.trim()
	gs, err := core.GetBatch(ctx, s.peer, db.endpoint, &db.req)
	if err != nil {
		failFrom(0, err)
		return
	}
	defer gs.Close()
	for cursor, want := range indexes {
		entry, err := gs.Next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("cluster: getbatch: %s ended after %d of %d entries", db.endpoint, cursor, len(indexes))
			}
			failFrom(cursor, err)
			return
		}
		i := int(want)
		if entry.Err != nil {
			byName := ids[cursor] == 0
			if rr.file(i, byName, retried[i], entry.Err) {
				continue
			}
			if byName {
				entry.Err = lookupError(s.names[i], db.endpoint, entry.Err)
			}
		}
		s.deliver(&StreamEntry{Index: i, Name: s.names[i], Value: entry.Value, Err: entry.Err})
	}
}

// file takes position i when its entry's failure is one of the two "not
// here" answers — bound elsewhere (name-addressed positions only), or
// wrong home (unless already re-issued once) — and reports whether it did.
func (rr *reroutes) file(i int, byName, retried bool, err error) bool {
	var elsewhere *core.ElsewhereError
	var wrong *rmi.WrongHomeError
	switch {
	case byName && errors.As(err, &elsewhere):
		rr.mu.Lock()
		rr.hops = append(rr.hops, hop{index: i, at: elsewhere})
		rr.mu.Unlock()
		return true
	case !retried && errors.As(err, &wrong):
		rr.mu.Lock()
		rr.wrong = append(rr.wrong, i)
		if wrong.NewEpoch > rr.epoch {
			rr.epoch = wrong.NewEpoch
		}
		rr.mu.Unlock()
		return true
	}
	return false
}

// lookupError gives a name-addressed position's resolution failure the
// shape Directory.Lookup gives it: the name and the home that was asked,
// wrapping the registry's typed error. Other failures pass through.
func lookupError(name, home string, err error) error {
	var notBound *registry.NotBoundError
	var wrong *rmi.WrongHomeError
	if errors.As(err, &notBound) || errors.As(err, &wrong) {
		return fmt.Errorf("cluster: lookup %q at %s: %w", name, home, err)
	}
	return err
}

// deliver hands one entry to the assembler.
func (s *Stream) deliver(e *StreamEntry) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.buf[e.Index] = e
	s.depth.Set(int64(len(s.buf)))
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Next returns the next entry in request order, blocking while its
// destination is still streaming; io.EOF after the last. Per-name failures
// arrive as the entry's Err, never as Next's.
func (s *Stream) Next() (*StreamEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, rmi.ErrClosed
		}
		if s.next >= len(s.names) {
			return nil, io.EOF
		}
		if e, ok := s.buf[s.next]; ok {
			delete(s.buf, s.next)
			s.next++
			s.depth.Set(int64(len(s.buf)))
			return e, nil
		}
		s.cond.Wait()
	}
}

// Close abandons the stream, canceling every in-flight destination.
// Safe to call repeatedly and after EOF.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.buf = make(map[int]*StreamEntry)
	s.depth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return nil
}
