package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
	"repro/internal/wire"
)

// Rebalancer changes a live cluster's membership: AddServer grows it,
// RemoveServer drains a live member, FailoverServer recovers a dead one from
// its replicas. All three are the same procedure (change) with different
// preconditions, and the procedure moves state with one mechanism (mover.go):
// per endpoint, K objects travel in one batched round trip — K objects move
// in 3 round trips, not 3K. Old homes are left with wrong-home tombstones
// (registry forwards + export tombstones) carrying the new epoch, so stale
// callers fail with rmi.WrongHomeError, refresh their shard map, and
// re-route.
//
// Every operation is idempotent and retryable: a run that failed partway (a
// node transiently unreachable, say) is completed by calling it again, and
// a call on an already-converged cluster moves nothing.
//
// The rebalancer assumes every name in each member's registry is
// directory-routed (bound via Directory.Bind); names bound outside the ring
// discipline would be relocated like any other.
type Rebalancer struct {
	dir *Directory
	// probe is the fault-injection seam of the cluster tests (installed via
	// export_test.go, nil in production): trip consults it before every
	// batched round trip, and an error aborts the operation at exactly that
	// point, leaving the partial state a real fault there would.
	probe func(kind tripKind, endpoint string, names []string) error

	// Migration progress metrics (nil no-ops when uninstrumented).
	migMoved     *stats.Counter // cluster.migration_moved
	migRemaining *stats.Gauge   // cluster.migration_remaining
}

// NewRebalancer creates a rebalancer over the directory's ring and servers.
func NewRebalancer(dir *Directory) *Rebalancer {
	r := &Rebalancer{dir: dir}
	if reg := dir.peer.Stats(); reg != nil {
		r.migMoved = reg.Counter("cluster.migration_moved")
		r.migRemaining = reg.Gauge("cluster.migration_remaining")
	}
	return r
}

// RebalanceStats summarizes one membership change.
type RebalanceStats struct {
	// Epoch is the ring epoch after the change.
	Epoch uint64
	// Moved is how many names changed home.
	Moved int
	// Pairs is how many (source, destination) migration flows ran.
	Pairs int
	// Promoted is how many names were recovered from follower shadows:
	// failover elections (FailoverServer) and orphan rescues (AddServer).
	Promoted int
}

// change is one membership change, as the three operations describe it to
// the shared procedure.
type change struct {
	target *Ring  // the membership being installed …
	epoch  uint64 // … and its epoch (the live ring's, on an already-adopted retry)
	// preseed lists the live members whose names are seeded at target's
	// follower sets before the broadcast; empty skips the step (nothing to
	// read off a dead member, no follower set changing on a retry).
	preseed []string
	// notify lists the broadcast recipients; empty skips the broadcast (the
	// membership was already adopted cluster-wide).
	notify []string
	// elect runs the promotion election over target's members: for the
	// shard of the dead primary `shard`, or for every shard held when shard
	// is empty (orphan rescue).
	elect bool
	shard string
	// sources lists the members whose name tables are planned for moves.
	sources []string
	// commit applies the change to the live ring; nil on a retry.
	commit func()
}

// apply is the one membership-change procedure. Its order IS the safety
// argument, so it is stated here once:
//
//  1. Pre-seed followers at the CURRENT epoch, before the broadcast flips
//     routing. A change can reassign a key's follower slot, and until the
//     new follower holds a seeded shadow the key's primary is a single
//     point of state loss — in exactly the window where the change itself
//     may die. Non-moving names are still serving at their primaries, so
//     they install cleanly; moving names are seeded by their migration flow
//     (step 4). The current epoch, because an aborted change must not leave
//     future-stamped shadows that could outrank a live follower in a later
//     election.
//  2. Broadcast before the first tombstone. Tombstones point stale callers
//     at the nodes for a fresh ring, so every node (a draining member
//     included — it keeps answering stragglers) must know the new membership
//     by the time the first tombstone exists. For a failover the broadcast
//     is also the fence: a replication ship routed by the old owner list is
//     rejected (StaleShipError) instead of racing the election.
//  3. Elect: names that survive only as replica shadows are re-bound at
//     their best-credentialed holder (mover.go, elect), so step 4 drains
//     them to their ring homes like any other name.
//  4. Migrate copy-then-tombstone, and place before depart: each flow
//     snapshots at the source, arrives at the destination, seeds the
//     destination's followers, and only then departs the source
//     (migratePair). A failure at any point leaves every name readable
//     somewhere. The plan is whatever is still mis-homed on the sources, so
//     a retry moves exactly the leftovers.
//  5. Re-seed every follower set under the new membership at the new epoch:
//     a follower that became responsible for a key it never followed would
//     otherwise build its shadow lazily from zero state at the next shipped
//     record, silently missing all history written before the change.
//  6. Commit the live ring last. The directory keeps serving the old routes
//     while the target ring is migrated against, and with copy-then-tombstone
//     a name stays reachable at its old home until its new home holds it, so
//     clients on the old ring never hit a NotBound window. (A client that
//     explicitly refreshes mid-migration adopts the broadcast ring early and
//     can transiently see NotBound for a not-yet-arrived name — see
//     DESIGN.md, "In-flight windows".)
func (r *Rebalancer) apply(ctx context.Context, c change) (*RebalanceStats, error) {
	members := c.target.Endpoints()
	if len(c.preseed) > 0 {
		if err := r.placeReplicas(ctx, c.preseed, c.target, r.dir.Ring().Epoch()); err != nil {
			return nil, err
		}
	}
	if len(c.notify) > 0 {
		if err := r.broadcast(ctx, c.notify, members, c.epoch); err != nil {
			return nil, err
		}
	}
	promoted := 0
	if c.elect && c.target.Replication() > 1 { // unreplicated rings hold no shadows
		var err error
		if promoted, err = r.elect(ctx, members, c.shard, c.epoch); err != nil {
			return nil, err
		}
	}
	flows, moved, err := r.plan(ctx, c.sources, c.target)
	if err != nil {
		return nil, err
	}
	if err := r.migrate(ctx, flows, c.target, c.epoch); err != nil {
		return nil, err
	}
	if err := r.placeReplicas(ctx, members, c.target, c.epoch); err != nil {
		return nil, err
	}
	if c.commit != nil {
		c.commit()
	}
	return &RebalanceStats{Epoch: c.epoch, Moved: moved, Pairs: len(flows), Promoted: promoted}, nil
}

// withMembers derives the ring a membership change installs: ring's
// parameters over a different member set.
func (r *Ring) withMembers(members []string) *Ring {
	return NewRing(members, WithReplication(r.Replication()))
}

// without removes ep from endpoints, in place.
func without(endpoints []string, ep string) []string {
	return slices.DeleteFunc(endpoints, func(e string) bool { return e == ep })
}

// AddServer grows the cluster: the endpoint joins the ring (bumping the
// epoch) and the keys the new ring routes to it are migrated there. The
// endpoint must already be serving with a registry, a BRMI executor, and a
// cluster node service. Calling it for an existing member does not bump the
// epoch but still re-broadcasts the ring, rescues orphans, migrates whatever
// is mis-homed on any member and re-seeds every follower — it is the
// cluster's "converge on the current membership" call.
func (r *Rebalancer) AddServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	// Adopt the cluster's authoritative epoch before minting the next one:
	// a rebalancer whose directory was built fresh against a long-lived
	// cluster would otherwise broadcast an epoch every node rejects.
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	// elect over every shard held is the orphan rescue: names may survive
	// only as shadows — their primary was killed while every seeded follower
	// was outside the ring, where a failover election cannot see them — and
	// this very call may be re-admitting the holder.
	c := change{target: ring, epoch: ring.Epoch(), preseed: ring.Endpoints(), elect: true}
	if !ring.Contains(endpoint) {
		c.target = ring.withMembers(append(ring.Endpoints(), endpoint))
		c.epoch++
		c.commit = func() { ring.Add(endpoint) }
	}
	c.notify = c.target.Endpoints()
	// Scan every member, not just the pre-change set: on a retry, the plan
	// is whatever is still mis-homed.
	c.sources = c.notify
	return r.apply(ctx, c)
}

// RemoveServer shrinks the cluster: every name homed on the live endpoint is
// migrated to its new home under the shrunken ring, then the endpoint leaves
// the ring. Removing a non-member is a no-op once the server is confirmed
// drained: a prior RemoveServer may have failed after the broadcast was
// adopted, so the leftover drain runs against the current ring — and the
// endpoint's manifest must be readable, because a transient error could hide
// stranded, tombstone-less names behind a success return.
func (r *Rebalancer) RemoveServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	if !ring.Contains(endpoint) {
		st, err := r.apply(ctx, change{target: ring, epoch: ring.Epoch(), sources: []string{endpoint}})
		if err != nil {
			return nil, fmt.Errorf("cluster: remove %s: cannot confirm the removed server is drained: %w", endpoint, err)
		}
		return st, nil
	}
	if ring.Size() == 1 {
		return nil, errors.New("cluster: cannot remove the last server")
	}
	if err := r.guardOrphanedReplicas(ctx, endpoint, ring); err != nil {
		return nil, err
	}
	survivors := without(ring.Endpoints(), endpoint)
	return r.apply(ctx, change{
		target:  ring.withMembers(survivors),
		epoch:   ring.Epoch() + 1,
		preseed: ring.Endpoints(),
		notify:  append(survivors, endpoint),
		sources: []string{endpoint},
		commit:  func() { ring.Remove(endpoint) },
	})
}

// FailoverServer removes a DEAD member from the cluster, recovering its
// shard from the survivors' replicas. It is the state-loss counterpart of
// RemoveServer, which drains a live member and must be preferred whenever
// the server still answers. There is nothing to read off the dead member, so
// the change is: fence (broadcast the shrunken membership at epoch+1), elect
// the best survivor shadow of each of its names, and let the ordinary
// migration home the promoted names. A dead server already out of the ring
// means a prior failover got at least as far as the broadcast; the remaining
// steps re-run at the current epoch.
//
// Acked waves survive under W=all: an acked wave is on every follower of its
// keys, and placement snapshots are taken only after the fence, so whichever
// candidate wins the election holds the wave. Under WithQuorum(W<R) the
// guarantee weakens to "survives while at least one of the W acking holders
// does" — the election still picks the longest seeded log, which holds every
// acked wave whenever any surviving follower does.
func (r *Rebalancer) FailoverServer(ctx context.Context, dead string) (*RebalanceStats, error) {
	// The poll tolerates the dead member (it fails only when NO node answers).
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	ring := r.dir.Ring()
	c := change{target: ring, epoch: ring.Epoch(), elect: true, shard: dead}
	if ring.Contains(dead) {
		if ring.Size() == 1 {
			return nil, errors.New("cluster: cannot fail over the last server")
		}
		c.target = ring.withMembers(without(ring.Endpoints(), dead))
		c.epoch++
		c.commit = func() { ring.Remove(dead) }
	}
	c.notify = c.target.Endpoints()
	c.sources = c.notify
	return r.apply(ctx, c)
}

// OrphanedShardError refuses a planned removal that would discard the last
// in-ring replicas of a dead shard. The removal is unsafe, not merely
// inconvenient: the departing member holds shadow copies of names whose
// primary already left the ring without failing over, and once the member
// is out the failover election (which consults ring survivors only) can no
// longer see those copies — an acked flush would be lost. Fail over the
// dead primary first, then retry the removal.
type OrphanedShardError struct {
	Endpoint string   // the member whose removal was refused
	Primary  string   // the dead shard whose replicas it holds
	Names    []string // shadowed names with no live binding in the ring
}

func (e *OrphanedShardError) Error() string {
	return fmt.Sprintf("cluster: cannot remove %s: it holds the only in-ring replicas of dead shard %s (%v); fail over %s first",
		e.Endpoint, e.Primary, e.Names, e.Primary)
}

func init() {
	wire.MustRegisterError("cluster.OrphanedShard", &OrphanedShardError{})
}

// guardOrphanedReplicas aborts the removal of endpoint while it shadows a
// shard whose primary is gone from the ring and whose names are not bound
// on any member — un-failed-over state this member may be the last in-ring
// holder of (see OrphanedShardError). Names that ARE bound somewhere —
// including on the departing member itself, whose bound names this removal
// migrates off — are stale leftovers of an already-recovered shard and never
// block removal, so a guard trip always clears once the owed failover
// promotes and re-homes the shard's names.
func (r *Rebalancer) guardOrphanedReplicas(ctx context.Context, endpoint string, ring *Ring) error {
	shards, err := r.replicaShards(ctx, endpoint)
	if err != nil {
		return fmt.Errorf("cluster: remove %s: list replica shards: %w", endpoint, err)
	}
	names := make(map[string]string) // shadowed name -> its dead primary
	for _, p := range shards {
		if p == endpoint || ring.Contains(p) {
			continue
		}
		si, err := r.shardInfoAt(ctx, endpoint, p)
		if err != nil {
			return fmt.Errorf("cluster: remove %s: inspect shard %s: %w", endpoint, p, err)
		}
		for _, ni := range si.Names {
			names[ni.Name] = p
		}
	}
	if len(names) == 0 {
		return nil
	}
	bound, err := r.boundNames(ctx, ring.Endpoints())
	if err != nil {
		return fmt.Errorf("cluster: remove %s: check orphaned shards: %w", endpoint, err)
	}
	oerr := &OrphanedShardError{Endpoint: endpoint}
	for name, p := range names {
		if !bound[name] && (oerr.Primary == "" || p < oerr.Primary) {
			oerr.Primary = p
		}
	}
	if oerr.Primary == "" {
		return nil
	}
	for name, p := range names {
		if !bound[name] && p == oerr.Primary {
			oerr.Names = append(oerr.Names, name)
		}
	}
	sort.Strings(oerr.Names)
	return oerr
}
