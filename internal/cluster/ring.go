// Package cluster layers multi-server sharding on top of the single-server
// BRMI core: a consistent-hash shard map that routes object names to peer
// endpoints, a cluster-aware naming layer over internal/registry, and a
// cluster Batch whose one recording session may span proxies living on
// different servers. A flush is a record → plan → execute pipeline:
// recording accepts cross-server dataflow (a result produced on server A may
// feed a call bound for server B), the planner schedules the dependency DAG
// into stages, and the executor runs one parallel per-destination fan-out
// per stage — never one trip per call. A result crosses servers inside the
// wave: its producer's server pushes it to its consumer's — a value as a
// copy, a remote result as its exported reference — so a recording whose
// results cross servers any number of times costs one wave, one round trip
// per distinct destination. A value whose producer's wave must first prove
// durable or may run twice goes through the client a wave later; a remote
// result lives only in its wave. See DESIGN.md, "Cluster staging rules".
//
// Membership is elastic: the shard map carries a monotonically increasing
// epoch bumped on every Add/Remove, and a Rebalancer migrates the moved
// objects (bindings, plus snapshot/restore state for Movable types) between
// homes in batched round trips. Calls routed with a stale epoch fail with
// rmi.WrongHomeError and epoch-aware flushes re-route and retry once (see
// DESIGN.md, "Elastic membership").
package cluster

import (
	"slices"
	"sort"
	"strconv"
	"sync"
)

// virtualNodes is how many points each endpoint occupies on the ring. More
// points smooth the key distribution at the cost of a larger sorted table;
// 128 keeps the imbalance across a handful of servers within a few percent.
const virtualNodes = 128

// Ring is a consistent-hash shard map over peer endpoints. Keys (object
// names) are routed to the endpoint owning the first ring point at or after
// the key's hash. Adding an endpoint moves only the keys that land on the
// new endpoint; every other key keeps its home, which is the property that
// makes incremental cluster growth cheap.
//
// The point table is a pure function of the member set: every membership
// change rebuilds it canonically (members in sorted order), so any sequence
// of Add/Remove calls ending at member set S routes exactly like a fresh
// NewRing(S) — point-hash collisions can never skew the table based on the
// order members happened to arrive.
//
// Every membership change also bumps the ring's epoch, the version number
// the cluster's re-sharding protocol uses to detect stale routing.
//
// Ring is safe for concurrent use.
type Ring struct {
	mu          sync.RWMutex
	replication int
	epoch       uint64
	points      []uint64          // sorted hash points
	owners      map[uint64]string // point -> endpoint
	members     map[string]bool
	endpoint    []string // sorted member list, kept for Endpoints
}

// RingOption configures a Ring.
type RingOption func(*Ring)

// WithReplication sets the replication degree R: Owners returns the primary
// plus up to R-1 distinct followers per key (default 1, no replication).
func WithReplication(r int) RingOption {
	return func(rg *Ring) {
		if r > 0 {
			rg.replication = r
		}
	}
}

// NewRing creates a ring containing the given endpoints, at epoch 0.
func NewRing(endpoints []string, opts ...RingOption) *Ring {
	r := &Ring{
		replication: 1,
		members:     make(map[string]bool),
	}
	for _, o := range opts {
		o(r)
	}
	for _, ep := range endpoints {
		r.members[ep] = true
	}
	r.rebuild()
	return r
}

// Add inserts an endpoint into the ring and bumps the epoch. Adding an
// existing member is a no-op (the epoch does not move).
func (r *Ring) Add(endpoint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[endpoint] {
		return
	}
	r.members[endpoint] = true
	r.rebuild()
	r.epoch++
}

// Remove deletes an endpoint from the ring and bumps the epoch. Keys it
// owned redistribute to the remaining members; points other members lost to
// hash collisions against the removed endpoint are restored by the rebuild.
// Removing a non-member is a no-op.
func (r *Ring) Remove(endpoint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[endpoint] {
		return
	}
	delete(r.members, endpoint)
	r.rebuild()
	r.epoch++
}

// Reset replaces the member set and adopts the given epoch, used when a
// stale client refreshes its shard map from a cluster node's authoritative
// ring state. The adoption is atomic and monotonic: a snapshot at or below
// the ring's current epoch is ignored, so concurrent refreshes that raced
// to different nodes can never regress the ring to older membership.
func (r *Ring) Reset(endpoints []string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return
	}
	r.members = make(map[string]bool, len(endpoints))
	for _, ep := range endpoints {
		r.members[ep] = true
	}
	r.rebuild()
	r.epoch = epoch
}

// Epoch returns the ring's membership version: 0 at construction, +1 per
// Add/Remove that changed the member set.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// vnodeHash computes a point from a "endpoint#i" vnode label. It is a
// package variable only so tests can substitute a colliding hash and
// exercise the rebuild's canonical collision resolution.
var vnodeHash = hashOf[[]byte]

// rebuild recomputes the point table from the member set. Members are
// processed in sorted order and a collided point stays with its first
// claimant, so the result depends only on the set — never on the Add/Remove
// history. Caller holds r.mu.
func (r *Ring) rebuild() {
	r.endpoint = make([]string, 0, len(r.members))
	for ep := range r.members {
		r.endpoint = append(r.endpoint, ep)
	}
	sort.Strings(r.endpoint)
	r.points = r.points[:0]
	r.owners = make(map[uint64]string, len(r.members)*virtualNodes)
	var label []byte // "endpoint#i", rebuilt in place per vnode
	for _, ep := range r.endpoint {
		label = append(append(label[:0], ep...), '#')
		n := len(label)
		for i := 0; i < virtualNodes; i++ {
			label = strconv.AppendInt(label[:n], int64(i), 10)
			h := vnodeHash(label)
			// Collisions across 64-bit points are vanishingly rare; when one
			// happens the first owner in canonical order keeps the point,
			// which only skews the distribution by one vnode.
			if _, taken := r.owners[h]; taken {
				continue
			}
			r.owners[h] = ep
			r.points = append(r.points, h)
		}
	}
	slices.Sort(r.points)
}

// Route returns the endpoint owning key, or "" for an empty ring.
func (r *Ring) Route(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.owners[r.points[i]]
}

// Replication returns the configured replication degree R (≥1).
func (r *Ring) Replication() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.replication
}

// Owners returns the ordered owner list for key — the primary (identical to
// Route) followed by up to R-1 distinct followers, collected by walking the
// ring clockwise from the key's hash point — and the ring epoch the list was
// read at (atomically, so a concurrent Reset cannot pair a new owner list
// with an old epoch). Fewer than R members yields one entry per member. An
// empty ring yields nil.
func (r *Ring) Owners(key string) ([]string, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.walk(key, r.replication), r.epoch
}

// ownersAt is Owners at replication degree replication instead of the ring's
// own: the one owner walk by which a primary picks, from the ring it holds,
// both the followers a wave ships to (Replica.admit) and those a placement
// seeds (Replica.Place).
func (r *Ring) ownersAt(key string, replication int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.walk(key, replication)
}

// walk collects key's first want distinct owners clockwise from its hash
// point, or every member when there are fewer. Caller holds r.mu.
func (r *Ring) walk(key string, want int) []string {
	if len(r.points) == 0 {
		return nil
	}
	want = min(want, len(r.members))
	out := make([]string, 0, want)
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	for scanned := 0; scanned < len(r.points) && len(out) < want; scanned++ {
		if i == len(r.points) {
			i = 0 // wrap around
		}
		ep := r.owners[r.points[i]]
		if !slices.Contains(out, ep) {
			out = append(out, ep)
		}
		i++
	}
	return out
}

// Contains reports whether endpoint is a current member.
func (r *Ring) Contains(endpoint string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[endpoint]
}

// Endpoints returns the current members, sorted.
func (r *Ring) Endpoints() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.endpoint))
	copy(out, r.endpoint)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// hashKey is 64-bit FNV-1a with a murmur-style finalizer. FNV alone leaves
// keys that differ only in trailing characters (obj-00, obj-01, ...) in a
// narrow band of the 64-bit space, which parks whole key families on one
// ring arc; the finalizer's avalanche spreads them. Deterministic across
// processes, unlike Go's map hash.
func hashKey(s string) uint64 { return hashOf(s) }

// hashOf is hashKey over a key's bytes in either form, so a vnode label built
// in a reused buffer hashes without becoming a string.
func hashOf[T string | []byte](s T) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	x := uint64(offset64)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= prime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
