// Package dgc implements lease-based distributed garbage collection for
// exported remote objects, mirroring the role of java.rmi.dgc in the RMI
// substrate the paper builds on.
//
// Servers grant time-limited leases to clients that hold remote references
// ("dirty" calls); clients renew leases periodically and release them
// ("clean" calls) when a stub is discarded. When the last live lease on an
// auto-exported object disappears, the table reports the object as
// collectable so the export table can drop it.
//
// As in Java's DGC protocol, dirty and clean calls carry per-client sequence
// numbers: a dirty that was issued before a clean but arrives after it must
// not resurrect the lease. Cleans leave a tombstone recording the clean's
// sequence number; tombstones age out after one lease period.
package dgc

import (
	"sync"
	"time"
)

// DefaultLease is the lease duration granted when none is configured.
const DefaultLease = 30 * time.Second

// Table tracks leases per exported object. Safe for concurrent use.
type Table struct {
	lease time.Duration
	now   func() time.Time // injectable clock for tests

	mu      sync.Mutex
	objects map[uint64]*objLeases
	stopped bool
	done    chan struct{}
	wg      sync.WaitGroup

	onCollect func(objID uint64)
}

// objLeases is the lease state of one exported object.
type objLeases struct {
	clients   map[string]*leaseEntry
	collected bool // onCollect already fired for this object
}

// leaseEntry is one client's lease (or clean tombstone) on one object.
type leaseEntry struct {
	expiry  time.Time // lease expiry, or tombstone retention deadline
	seq     uint64
	cleaned bool
}

// Option configures a Table.
type Option func(*Table)

// WithLease sets the lease duration granted to clients.
func WithLease(d time.Duration) Option {
	return func(t *Table) { t.lease = d }
}

// NewTable creates a lease table. onCollect is invoked (without the table
// lock held) when an object's last live lease disappears; it may be nil.
func NewTable(onCollect func(objID uint64), opts ...Option) *Table {
	t := &Table{
		lease:     DefaultLease,
		now:       time.Now,
		objects:   make(map[uint64]*objLeases),
		done:      make(chan struct{}),
		onCollect: onCollect,
	}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Lease returns the configured lease duration.
func (t *Table) Lease() time.Duration { return t.lease }

// Dirty grants or renews clientID's lease on each object in objIDs and
// returns the granted duration. A dirty whose sequence number does not
// exceed a prior clean's is stale and ignored for that object.
func (t *Table) Dirty(clientID string, seq uint64, objIDs []uint64) time.Duration {
	expiry := t.now().Add(t.lease)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range objIDs {
		o, ok := t.objects[id]
		if !ok {
			o = &objLeases{clients: make(map[string]*leaseEntry, 1)}
			t.objects[id] = o
		}
		e, ok := o.clients[clientID]
		if !ok {
			o.clients[clientID] = &leaseEntry{expiry: expiry, seq: seq}
			o.collected = false
			continue
		}
		if e.cleaned && seq <= e.seq {
			continue // stale dirty racing a newer clean
		}
		if seq >= e.seq {
			e.seq = seq
		}
		e.cleaned = false
		e.expiry = expiry
		o.collected = false
	}
	return t.lease
}

// Clean drops clientID's lease on each object in objIDs, leaving a
// tombstone so stale dirties cannot resurrect it. Objects whose last live
// lease disappears are reported to onCollect once.
func (t *Table) Clean(clientID string, seq uint64, objIDs []uint64) {
	tombstoneUntil := t.now().Add(t.lease)
	var collectable []uint64
	t.mu.Lock()
	for _, id := range objIDs {
		o, ok := t.objects[id]
		if !ok {
			continue
		}
		e, ok := o.clients[clientID]
		if !ok {
			o.clients[clientID] = &leaseEntry{expiry: tombstoneUntil, seq: seq, cleaned: true}
		} else {
			if seq < e.seq {
				continue // stale clean
			}
			e.seq = seq
			e.cleaned = true
			e.expiry = tombstoneUntil
		}
		if t.liveCountLocked(id) == 0 && !o.collected {
			o.collected = true
			collectable = append(collectable, id)
		}
	}
	t.mu.Unlock()
	t.collect(collectable)
}

// ForceClean unconditionally drops clientID's lease, ignoring sequence
// numbers and leaving no tombstone. Used for the marshal-grace handoff,
// where the synthetic holder never re-dirties.
func (t *Table) ForceClean(clientID string, objIDs []uint64) {
	var collectable []uint64
	t.mu.Lock()
	for _, id := range objIDs {
		o, ok := t.objects[id]
		if !ok {
			continue
		}
		if _, held := o.clients[clientID]; !held {
			continue
		}
		delete(o.clients, clientID)
		if t.liveCountLocked(id) == 0 && !o.collected {
			o.collected = true
			collectable = append(collectable, id)
		}
		if len(o.clients) == 0 {
			delete(t.objects, id)
		}
	}
	t.mu.Unlock()
	t.collect(collectable)
}

// liveCountLocked counts unexpired, uncleaned leases on id. Caller holds mu.
func (t *Table) liveCountLocked(id uint64) int {
	o, ok := t.objects[id]
	if !ok {
		return 0
	}
	now := t.now()
	n := 0
	for _, e := range o.clients {
		if !e.cleaned && e.expiry.After(now) {
			n++
		}
	}
	return n
}

// HolderCount returns the number of live leases on objID.
func (t *Table) HolderCount(objID uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.liveCountLocked(objID)
}

// Sweep drops expired leases and aged-out tombstones, returning the objects
// newly left without any live lease.
func (t *Table) Sweep() []uint64 {
	now := t.now()
	var collectable []uint64
	t.mu.Lock()
	for id, o := range t.objects {
		for client, e := range o.clients {
			if !e.expiry.After(now) {
				delete(o.clients, client) // expired lease or aged tombstone
			}
		}
		if t.liveCountLocked(id) == 0 && !o.collected {
			o.collected = true
			collectable = append(collectable, id)
		}
		if len(o.clients) == 0 {
			delete(t.objects, id)
		}
	}
	t.mu.Unlock()
	t.collect(collectable)
	return collectable
}

func (t *Table) collect(ids []uint64) {
	if t.onCollect == nil {
		return
	}
	for _, id := range ids {
		t.onCollect(id)
	}
}

// Start launches a background sweeper that runs every interval until Stop.
func (t *Table) Start(interval time.Duration) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				t.Sweep()
			case <-t.done:
				return
			}
		}
	}()
}

// Stop terminates the sweeper and waits for it. Idempotent.
func (t *Table) Stop() {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		t.wg.Wait()
		return
	}
	t.stopped = true
	t.mu.Unlock()
	close(t.done)
	t.wg.Wait()
}
