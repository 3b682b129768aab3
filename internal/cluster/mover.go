package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// mover.go is the one snapshot-moving mechanism under the rebalancer. The
// paper's claim — K remote operations cost one round trip — is applied to
// the control plane itself by a single primitive, trip: one core.Batch to
// one endpoint carrying one call per name. Migration, replica seeding,
// failover promotion and orphan rescue are compositions of five trip kinds
// over one Snapshot/Restore contract (Movable). Get-Batch's streaming read
// shares the contract but not the trip, and lives in getbatch.go.

// tripKind names one batched round trip of the control plane.
type tripKind string

const (
	tripSnapshot tripKind = "snapshot" // read movable state off the server holding it
	tripArrive   tripKind = "arrive"   // adopt moving names at their new home
	tripPlace    tripKind = "place"    // install snapshots as shadows at one follower
	tripDepart   tripKind = "depart"   // tombstone moved names at their old home
	tripPromote  tripKind = "promote"  // turn one holder's shadows authoritative
)

// item is one name's call within a trip: the method's arguments and, for a
// call on the named object itself rather than on the endpoint's service,
// the object as an extra batch root.
type item struct {
	name string
	root wire.Ref
	args []any
}

// trip runs one batched round trip: method is recorded once per item on a
// single core.Batch rooted at the service `at`, the batch is flushed, and
// every item's future is checked. It returns the items' results in order.
// An empty trip costs nothing. This is the control plane's only flush, and
// the only place the test probe is consulted.
func (r *Rebalancer) trip(ctx context.Context, kind tripKind, at wire.Ref, method string, items []item) ([]any, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if r.probe != nil {
		names := make([]string, len(items))
		for i, it := range items {
			names[i] = it.name
		}
		if err := r.probe(kind, at.Endpoint, names); err != nil {
			return nil, err
		}
	}
	b := core.New(r.dir.peer, at)
	futs := make([]*core.Future, len(items))
	for i, it := range items {
		target := b.Root()
		if !it.root.IsZero() {
			var err error
			if target, err = b.AddRoot(it.root); err != nil {
				return nil, fmt.Errorf("%s %q: %w", kind, it.name, err)
			}
		}
		futs[i] = target.Call(method, it.args...)
	}
	if err := b.Flush(ctx); err != nil {
		return nil, fmt.Errorf("%s batch at %s: %w", kind, at.Endpoint, err)
	}
	out := make([]any, len(items))
	for i, f := range futs {
		v, err := f.Get()
		if err != nil {
			return nil, fmt.Errorf("%s %q at %s: %w", kind, items[i].name, at.Endpoint, err)
		}
		out[i] = v
	}
	return out, nil
}

// move is one name travelling between servers, with the reference it is
// bound to at its current holder. movable marks a user object hosted on the
// holder whose type has a registered movable factory — its state travels;
// otherwise only the binding moves. state is the snapshot, once read.
type move struct {
	name    string
	ref     wire.Ref
	movable bool
	state   any
}

// movableAt reports whether ref is a user object hosted on endpoint whose
// type has a registered movable factory — i.e. its state can be snapshotted
// off that server.
func movableAt(ref wire.Ref, endpoint string) bool {
	if ref.Endpoint != endpoint || ref.ObjID < rmi.FirstUserObjID {
		return false
	}
	_, ok := movableFactory(ref.Iface)
	return ok
}

// snapshot reads the state of every movable move off src in one multi-root
// trip — one root per object.
func (r *Rebalancer) snapshot(ctx context.Context, src string, moves []move) error {
	var items []item
	var at []int
	for i, m := range moves {
		if m.movable {
			items = append(items, item{name: m.name, root: m.ref})
			at = append(at, i)
		}
	}
	states, err := r.trip(ctx, tripSnapshot, NodeRef(src), "Snapshot", items)
	if err != nil {
		return err
	}
	for j, i := range at {
		moves[i].state = states[j]
	}
	return nil
}

// seed installs the snapshots of primary's movable moves as shadows at the
// followers routing assigns each name: one place trip per follower,
// followers in parallel. Names routing homes elsewhere, and names of an
// unreplicated ring, have no followers here and are skipped.
func (r *Rebalancer) seed(ctx context.Context, primary string, moves []move, routing *Ring, epoch uint64) error {
	byFollower := make(map[string][]item)
	for _, m := range moves {
		owners, _ := routing.Owners(m.name)
		if !m.movable || len(owners) < 2 || owners[0] != primary {
			continue
		}
		for _, f := range owners[1:] {
			byFollower[f] = append(byFollower[f], item{name: m.name, args: []any{m.name, m.ref.Iface, m.state, primary, epoch}})
		}
	}
	return fanOut(sortedKeys(byFollower), func(_ int, f string) error {
		_, err := r.trip(ctx, tripPlace, ReplicaRef(f), "Install", byFollower[f])
		return err
	})
}

// sortedKeys returns m's keys in order, so fan-outs are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// manifests reads each endpoint's name table: one Manifest round trip per
// server, in parallel.
func (r *Rebalancer) manifests(ctx context.Context, endpoints []string) ([][]Binding, error) {
	out := make([][]Binding, len(endpoints))
	err := fanOut(endpoints, func(i int, ep string) error {
		res, err := r.dir.peer.Call(ctx, NodeRef(ep), "Manifest")
		if err != nil {
			return fmt.Errorf("cluster: manifest %s: %w", ep, err)
		}
		if len(res) == 0 || res[0] == nil {
			return nil
		}
		generic, ok := res[0].([]any)
		if !ok {
			return fmt.Errorf("cluster: manifest %s: unexpected result %T", ep, res[0])
		}
		for _, v := range generic {
			b, ok := v.(*Binding)
			if !ok {
				return fmt.Errorf("cluster: manifest %s: unexpected element %T", ep, v)
			}
			out[i] = append(out[i], *b)
		}
		return nil
	})
	return out, err
}

// boundNames is the set of names bound on any of the endpoints.
func (r *Rebalancer) boundNames(ctx context.Context, endpoints []string) (map[string]bool, error) {
	tables, err := r.manifests(ctx, endpoints)
	bound := make(map[string]bool)
	for _, t := range tables {
		for _, b := range t {
			bound[b.Name] = true
		}
	}
	return bound, err
}

// flow is the moves of one (source, destination) pair.
type flow struct {
	src, dst string
	moves    []move
}

// plan reads each source's name table and groups the names routing homes
// elsewhere into per-(source, destination) flows.
func (r *Rebalancer) plan(ctx context.Context, sources []string, routing *Ring) ([]flow, int, error) {
	tables, err := r.manifests(ctx, sources)
	if err != nil {
		return nil, 0, err
	}
	var flows []flow
	index := make(map[[2]string]int)
	moved := 0
	for i, src := range sources {
		for _, b := range tables[i] {
			dst := routing.Route(b.Name)
			if dst == "" || dst == src {
				continue
			}
			k, ok := index[[2]string{src, dst}]
			if !ok {
				k = len(flows)
				index[[2]string{src, dst}] = k
				flows = append(flows, flow{src: src, dst: dst})
			}
			flows[k].moves = append(flows[k].moves, move{name: b.Name, ref: b.Ref, movable: movableAt(b.Ref, src)})
			moved++
		}
	}
	return flows, moved, nil
}

// migrate runs every flow of the plan, flows in parallel. The remaining
// gauge counts down as flows land, so an ops view polled mid-rebalance sees
// the drain advance; the moved counter accumulates across rebalances.
func (r *Rebalancer) migrate(ctx context.Context, flows []flow, routing *Ring, epoch uint64) error {
	for _, f := range flows {
		r.migRemaining.Add(int64(len(f.moves)))
	}
	return fanOut(flows, func(_ int, f flow) error {
		err := r.migratePair(ctx, f, routing, epoch)
		r.migRemaining.Add(-int64(len(f.moves)))
		if err != nil {
			return fmt.Errorf("cluster: migrate %s -> %s: %w", f.src, f.dst, err)
		}
		r.migMoved.Add(uint64(len(f.moves)))
		return nil
	})
}

// migratePair moves one flow in three trips plus one per follower: snapshot
// at the source, arrive at the destination (idempotent: an already-adopted
// copy is kept), seed the destination's followers, depart the source
// (wrong-home forwards and export tombstones). The order is apply's step 4:
// until the depart lands both homes hold the name — stale-ring writes in
// that window land on the old copy and are superseded by the tombstone —
// whereas tombstoning first would destroy the only copy of the state if the
// arrive trip failed. Seeding comes before the depart because the old
// shard's shadows are keyed under the old primary, invisible to an election
// for the new one: a state-loss kill of the destination after the depart
// would otherwise hold the only copy of every moved name.
func (r *Rebalancer) migratePair(ctx context.Context, f flow, routing *Ring, epoch uint64) error {
	if err := r.snapshot(ctx, f.src, f.moves); err != nil {
		return err
	}
	arrive := make([]item, len(f.moves))
	depart := make([]item, len(f.moves))
	for i, m := range f.moves {
		arrive[i] = item{name: m.name, args: []any{m.name, m.ref.Iface, m.movable, m.state, m.ref}}
		depart[i] = item{name: m.name, args: []any{m.name, epoch}}
	}
	if _, err := r.trip(ctx, tripArrive, NodeRef(f.dst), "Arrive", arrive); err != nil {
		return err
	}
	if err := r.seed(ctx, f.dst, f.moves, routing, epoch); err != nil {
		return err
	}
	_, err := r.trip(ctx, tripDepart, NodeRef(f.src), "Depart", depart)
	return err
}

// placeReplicas (re)seeds the followers of every movable name that sits at
// its routing home on one of the members: one snapshot trip per primary, one
// place trip per (primary, follower) pair, K names per trip. It is a full,
// idempotent re-install, so a retried rebalance converges just like
// migration does. A mis-homed name (mid-migration on a retry) is seeded by
// the flow that finally homes it. Names whose type has no movable factory
// cannot be snapshotted and are not replicated (symmetrically, the primary's
// newChain turns off a chain whose root cannot move).
func (r *Rebalancer) placeReplicas(ctx context.Context, members []string, routing *Ring, epoch uint64) error {
	if routing.Replication() <= 1 {
		return nil
	}
	tables, err := r.manifests(ctx, members)
	if err != nil {
		return err
	}
	return fanOut(members, func(i int, src string) error {
		var placed []move
		for _, b := range tables[i] {
			if owners, _ := routing.Owners(b.Name); len(owners) >= 2 && owners[0] == src && movableAt(b.Ref, src) {
				placed = append(placed, move{name: b.Name, ref: b.Ref, movable: true})
			}
		}
		err := r.snapshot(ctx, src, placed)
		if err == nil {
			err = r.seed(ctx, src, placed, routing, epoch)
		}
		if err != nil {
			return fmt.Errorf("cluster: place replicas of %s: %w", src, err)
		}
		return nil
	})
}

// candidate is one holder's shadow of a name, with its election credentials.
type candidate struct {
	holder, primary string
	ni              NameInfo
}

// elect is the one promotion election. Every member reports its replica of
// primary's shard — or, when primary is empty, of every shard it holds — and
// each shadowed name is won by its best candidate (betterCandidate). Names
// bound on any member (or, for a rescue, on the shadow's own primary) are
// alive — migrated away before the crash, promoted by an earlier partial
// run, or simply healthy — and are filtered out, so a stale shadow never
// overwrites fresher authoritative state and retries converge. Each winning
// holder then binds its shadows into its registry (Replica.Promote,
// idempotent per name), one promote trip per holder in sorted order, from
// where the caller's migration homes them. Returns how many names were
// promoted.
func (r *Rebalancer) elect(ctx context.Context, members []string, primary string, epoch uint64) (int, error) {
	var mu sync.Mutex
	best := make(map[string]candidate)
	err := fanOut(members, func(_ int, ep string) error {
		shards := []string{primary}
		if primary == "" {
			var err error
			if shards, err = r.replicaShards(ctx, ep); err != nil {
				return fmt.Errorf("cluster: elect: shards at %s: %w", ep, err)
			}
		}
		for _, p := range shards {
			si, err := r.shardInfoAt(ctx, ep, p)
			if err != nil {
				return fmt.Errorf("cluster: elect: shard %s at %s: %w", p, ep, err)
			}
			mu.Lock()
			for _, ni := range si.Names {
				if cur, ok := best[ni.Name]; !ok || betterCandidate(ep, ni, cur.holder, cur.ni) {
					best[ni.Name] = candidate{holder: ep, primary: p, ni: ni}
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil || len(best) == 0 {
		return 0, err
	}
	bound, err := r.boundNames(ctx, members)
	if err != nil {
		return 0, err
	}
	if primary == "" {
		// A rescued shadow's own primary may be alive outside the ring — a
		// member whose removal was broadcast but never drained still binds
		// its names, and promoting over it would fork them. Ask it too; one
		// that does not answer is presumed dead, which is the orphan this
		// election exists for. Names bound on a member are settled already
		// (their stale shadows outlive a failover), so a healthy cluster
		// asks nobody.
		var outside []string
		for name, c := range best {
			if !bound[name] && !slices.Contains(members, c.primary) && !slices.Contains(outside, c.primary) {
				outside = append(outside, c.primary)
			}
		}
		held, _ := r.boundNames(ctx, outside)
		maps.Copy(bound, held)
	}
	byHolder := make(map[string][]item)
	promoted := 0
	for _, name := range sortedKeys(best) {
		if c := best[name]; !bound[name] {
			byHolder[c.holder] = append(byHolder[c.holder], item{name: name, args: []any{c.primary, []string{name}, epoch}})
			promoted++
		}
	}
	return promoted, fanOut(sortedKeys(byHolder), func(_ int, ep string) error {
		_, err := r.trip(ctx, tripPromote, ReplicaRef(ep), "Promote", byHolder[ep])
		return err
	})
}

// betterCandidate reports whether candidate (ep, ni) beats (curEp, cur) in
// the per-name promotion election: seeded first (a snapshot-installed
// shadow holds the name's full pre-replication history; a lazily created
// one starts from zero state mid-stream), then newest SEED epoch — the
// record epoch alone can lie: a shadow seeded long ago catches a stray
// union-shipped record at the current epoch and would tie the true
// follower while missing every wave in between. Then most records applied
// since that seed, then newest record epoch, then lowest endpoint for
// determinism.
func betterCandidate(ep string, ni NameInfo, curEp string, cur NameInfo) bool {
	if ni.Seeded != cur.Seeded {
		return ni.Seeded
	}
	if ni.SeedEpoch != cur.SeedEpoch {
		return ni.SeedEpoch > cur.SeedEpoch
	}
	if ni.Applied != cur.Applied {
		return ni.Applied > cur.Applied
	}
	if ni.Epoch != cur.Epoch {
		return ni.Epoch > cur.Epoch
	}
	return ep < curEp
}

// replicaShards lists the non-empty replica shards held at endpoint, by
// their primary endpoints.
func (r *Rebalancer) replicaShards(ctx context.Context, endpoint string) ([]string, error) {
	res, err := r.dir.peer.Call(ctx, ReplicaRef(endpoint), "Shards")
	if err != nil || len(res) != 1 {
		return nil, err
	}
	// The wire layer decodes a []string result as []any of strings.
	return core.Convert[[]string](res[0])
}

// shardInfoAt reads endpoint's view of primary's shard. Never nil on a nil
// error.
func (r *Rebalancer) shardInfoAt(ctx context.Context, endpoint, primary string) (*ShardInfo, error) {
	res, err := r.dir.peer.Call(ctx, ReplicaRef(endpoint), "ShardInfo", primary)
	if err != nil {
		return nil, err
	}
	if len(res) == 1 {
		if si, ok := res[0].(*ShardInfo); ok && si != nil {
			return si, nil
		}
	}
	return &ShardInfo{Primary: primary}, nil
}

// broadcast pushes the ring state (members at epoch) to every recipient
// node in parallel. Recipients may include servers outside the new
// membership — a removed server keeps answering stragglers, so it needs the
// fresh state too.
func (r *Rebalancer) broadcast(ctx context.Context, recipients, members []string, epoch uint64) error {
	snap := &RingSnapshot{Members: members, Epoch: epoch}
	return fanOut(recipients, func(_ int, ep string) error {
		if _, err := r.dir.peer.Call(ctx, NodeRef(ep), "SetRing", snap); err != nil {
			return fmt.Errorf("cluster: set ring on %s: %w", ep, err)
		}
		return nil
	})
}
