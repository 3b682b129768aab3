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
// in 3 round trips, not 3K — and no object's state crosses the client: a
// source hands its moving objects to their new home, and a primary places
// its followers, server to server over the replication service, which every
// member must therefore run (StartReplica), replicated ring or not. Old
// homes are left with wrong-home tombstones (registry forwards + export
// tombstones) carrying the new epoch, so stale callers fail with
// rmi.WrongHomeError, refresh their shard map, and re-route.
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
	// seed lists the members that seed target's followers before any node is
	// fenced (a removal's survivors; see Replica.Seed).
	seed []string
	// notify lists the nodes fenced with target; an electing change notifies
	// exactly target's members.
	notify []string
	// elect runs the promotion election over target's members: for the
	// shard of the dead primary `shard`, or for every shard held when shard
	// is empty (orphan rescue).
	elect bool
	shard string
	// sources lists the members whose name tables are planned for moves.
	sources []string
	// leaving is the member a removal drains, surveyed first for shards only
	// it still replicates (guardOrphanedReplicas); empty for any other change.
	leaving string
	// commit applies the change to the live ring; nil for a change that mints
	// no epoch.
	commit func()
}

// apply is the one membership-change procedure. Its order IS the safety
// argument, so it is stated here once:
//
//  1. A removal seeds first: its survivors seed their names' followers under
//     the shrunken ring at the current epoch (Replica.Seed), before any node
//     adopts it. Once one node is fenced the leaving member drops out of
//     every failover election, shadows and all, so a primary that dies
//     before its own fence must already have placed the followers that
//     replace it.
//  2. Fence every node before the first tombstone. Tombstones point stale
//     callers at the nodes for a fresh ring, so every node (a draining
//     member included — it keeps answering stragglers) must know the new
//     membership by the time the first tombstone exists. A member of a
//     replicated ring adopts it in its own placement (Replica.Place): in one
//     hold of its gate it flips its ring, snapshots the names it homes and
//     queues each follower's Install on that follower's ordered link, so
//     every wave it admits afterwards routes under the new view and queues
//     behind the Installs — nothing slips between the seed and the flip. A
//     shadow stamped with the new epoch exists only where its primary
//     already ships at that epoch, so an aborted change leaves none that
//     could outrank a live follower in a later election: the winner is the
//     current one. A node that places nothing — one leaving the ring, or
//     any on an unreplicated ring — gets SetRing. For a failover the fence
//     also rejects a ship routed by the old owner list (StaleShipError)
//     instead of racing the election.
//  3. Elect: names that survive only as replica shadows are re-bound at
//     their best-credentialed holder, which places those it homes in the
//     same trip (mover.go, elect), so step 4 drains the rest to their ring
//     homes like any other name.
//  4. Migrate copy-then-tombstone, and place before depart: each flow's
//     source hands its movable names to their new home over its ordered
//     link, the destination promotes them and seeds their followers from
//     there (in the arrive trip), and only then the source departs
//     (migratePair). A failure at any point leaves every name readable
//     somewhere. The plan is whatever is still mis-homed on the sources, so
//     a retry moves exactly the leftovers.
//  5. Commit the live ring last. The directory keeps serving the old routes
//     while the target ring is migrated against, and with copy-then-tombstone
//     a name stays reachable at its old home until its new home holds it, so
//     clients on the old ring never hit a NotBound window. (A client that
//     explicitly refreshes mid-migration adopts the fenced ring early and
//     can transiently see NotBound for a not-yet-arrived name — see
//     DESIGN.md, "In-flight windows".)
//
// An Install that fails after its primary flipped fails the trip typed, and
// the link to that follower remembers the names it missed: the primary's
// writes to them there fail, never acked, until the retry's placement lands;
// the retry converges. Each step is one client phase, one trip per node in
// parallel. An electing change (AddServer and FailoverServer on a replicated
// ring) reads each member's name table and replicas in its place trip, after
// the fence, so a refused fence places nothing and skips the reads; a change
// that moves and promotes nothing costs that one trip per member, whose name
// tables the plan reuses — plus the ring refresh before it when the change
// mints an epoch, or when its fence was refused (converge).
func (r *Rebalancer) apply(ctx context.Context, c change) (*RebalanceStats, error) {
	if c.leaving != "" {
		if err := r.guardOrphanedReplicas(ctx, c.leaving, r.dir.Ring()); err != nil {
			return nil, err
		}
	}
	if err := r.preseed(ctx, c.seed, c.target, r.dir.Ring().Epoch()); err != nil {
		return nil, err
	}
	elect := c.elect && c.target.Replication() > 1 // unreplicated rings hold no shadows
	views, err := r.fence(ctx, c.notify, c.target, c.epoch, elect, c.shard)
	if err != nil {
		return nil, err
	}
	promoted := 0
	// The sources' name tables, as the place trips read them; a promotion
	// changes them, so plan reads them again then.
	var tables [][]*Binding
	if elect {
		if promoted, tables, err = r.elect(ctx, c.notify, c.shard, views, c.target, c.epoch); err != nil {
			return nil, err
		}
		if promoted > 0 || !slices.Equal(c.sources, c.notify) {
			tables = nil
		}
	}
	flows, moved, err := r.plan(ctx, c.sources, tables, c.target)
	if err != nil {
		return nil, err
	}
	if err := r.migrate(ctx, flows, c.target, c.epoch); err != nil {
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

// converge derives a membership change from the directory's ring (build) and
// applies it. A change that mints no epoch runs at once on the ring as it
// stands: its fence is its refresh, because a fence at the directory's epoch
// can only be refused — a node ahead refuses it typed, before anything is
// placed — and a node behind that adopts it completes a fence some node
// already holds. On any failure but a same-epoch conflict (*RingRefusedError),
// which no refresh cures, it takes the epoch-minting path once: refresh,
// derive the change again, apply. That path refreshes first, always: a stale
// rebalancer fencing the epoch after its own could meet a cluster already
// there with another member set, and split it — the nodes still behind
// adopting its ring, the rest refusing it — at one epoch.
func (r *Rebalancer) converge(ctx context.Context, build func(ring *Ring) (change, error)) (*RebalanceStats, error) {
	if c, err := build(r.dir.Ring()); err == nil && c.commit == nil {
		st, err := r.apply(ctx, c)
		var refused *RingRefusedError
		if err == nil || errors.As(err, &refused) && refused.Conflict() {
			return st, err
		}
	}
	if err := r.dir.Refresh(ctx); err != nil {
		return nil, err
	}
	c, err := build(r.dir.Ring())
	if err != nil {
		return nil, err
	}
	return r.apply(ctx, c)
}

// AddServer grows the cluster: the endpoint joins the ring (bumping the
// epoch) and the keys the new ring routes to it are migrated there. The
// endpoint must already be serving with a registry, a BRMI executor, and a
// cluster node service. Calling it for an existing member does not bump the
// epoch but still fences every member with the ring, re-seeding its
// followers, rescues orphans and migrates whatever is mis-homed on any
// member — it is the cluster's "converge on the current membership" call,
// and it skips the ring refresh unless its fence is refused (converge). A
// join refreshes first: it adopts the cluster's authoritative epoch before
// minting the next one, as a rebalancer whose directory was built fresh
// against a long-lived cluster would otherwise fence at an epoch every node
// rejects, or split a cluster already there.
func (r *Rebalancer) AddServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	return r.converge(ctx, func(ring *Ring) (change, error) {
		// elect over every shard held is the orphan rescue: names may
		// survive only as shadows — their primary was killed while every
		// seeded follower was outside the ring, where a failover election
		// cannot see them — and this very call may be re-admitting the
		// holder.
		c := change{target: ring, epoch: ring.Epoch(), elect: true}
		if !ring.Contains(endpoint) {
			c.target = ring.withMembers(append(ring.Endpoints(), endpoint))
			c.epoch++
			c.commit = func() { ring.Add(endpoint) }
		}
		c.notify = c.target.Endpoints()
		// Scan every member, not just the pre-change set: on a retry, the
		// plan is whatever is still mis-homed.
		c.sources = c.notify
		return c, nil
	})
}

// RemoveServer shrinks the cluster: every name homed on the live endpoint is
// migrated to its new home under the shrunken ring, then the endpoint leaves
// the ring. Removing a non-member is a no-op once the server is confirmed
// drained: a prior RemoveServer may have failed after its fence was
// adopted, so the leftover drain runs against the current ring — and the
// endpoint's manifest must be readable, because a transient error could hide
// stranded, tombstone-less names behind a success return — and the fences are
// sent again, since the failed run may have died before they all landed.
// Like a re-add, that confirmation skips the ring refresh unless its fence
// is refused (converge); a removal refreshes first.
func (r *Rebalancer) RemoveServer(ctx context.Context, endpoint string) (*RebalanceStats, error) {
	st, err := r.converge(ctx, func(ring *Ring) (change, error) {
		if !ring.Contains(endpoint) {
			return change{target: ring, epoch: ring.Epoch(), notify: append(ring.Endpoints(), endpoint), sources: []string{endpoint}}, nil
		}
		if ring.Size() == 1 {
			return change{}, errors.New("cluster: cannot remove the last server")
		}
		survivors := without(ring.Endpoints(), endpoint)
		return change{
			target:  ring.withMembers(survivors),
			epoch:   ring.Epoch() + 1,
			seed:    survivors,
			notify:  append(survivors, endpoint),
			sources: []string{endpoint},
			leaving: endpoint,
			commit:  func() { ring.Remove(endpoint) },
		}, nil
	})
	if err != nil && !r.dir.Ring().Contains(endpoint) {
		return nil, fmt.Errorf("cluster: remove %s: cannot confirm the removed server is drained: %w", endpoint, err)
	}
	return st, err
}

// FailoverServer removes a DEAD member from the cluster, recovering its
// shard from the survivors' replicas. It is the state-loss counterpart of
// RemoveServer, which drains a live member and must be preferred whenever
// the server still answers. There is nothing to read off the dead member, so
// the change is: fence (each survivor places its names under the shrunken
// membership at epoch+1), elect the best survivor shadow of each of its
// names, and let the ordinary migration home the promoted names. A dead
// server already out of the ring means a prior failover got at least as far
// as a fence; the remaining steps re-run at the current epoch, skipping the
// ring refresh unless the fence is refused (converge). The refresh's poll
// tolerates the dead member: it fails only when NO node answers.
//
// Acked waves survive under W=all: an acked wave is on every follower of its
// keys, and a survivor's placement snapshots are cut in the same hold of its
// gate that flips its ring — after every wave it admitted under the old view,
// before any under the new — so whichever candidate wins the election holds
// the wave. Under WithQuorum(W<R) the
// guarantee weakens to "survives while at least one of the W acking holders
// does" — the election still picks the longest seeded log, which holds every
// acked wave whenever any surviving follower does.
func (r *Rebalancer) FailoverServer(ctx context.Context, dead string) (*RebalanceStats, error) {
	return r.converge(ctx, func(ring *Ring) (change, error) {
		c := change{target: ring, epoch: ring.Epoch(), elect: true, shard: dead}
		if ring.Contains(dead) {
			if ring.Size() == 1 {
				return change{}, errors.New("cluster: cannot fail over the last server")
			}
			c.target = ring.withMembers(without(ring.Endpoints(), dead))
			c.epoch++
			c.commit = func() { ring.Remove(dead) }
		}
		c.notify = c.target.Endpoints()
		c.sources = c.notify
		return c, nil
	})
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
// promotes and re-homes the shard's names. An answer the survey cannot read
// fails the removal (*ReplyError): read as empty, it would clear the guard.
func (r *Rebalancer) guardOrphanedReplicas(ctx context.Context, endpoint string, ring *Ring) error {
	res, err := r.trip(ctx, tripSurvey, ReplicaRef(endpoint), []item{{name: endpoint, method: "Survey", args: []any{""}}})
	var shards []*ShardInfo
	if err == nil {
		shards, err = decodeShards(endpoint, "", res[0])
	}
	if err != nil {
		return fmt.Errorf("cluster: remove %s: inspect replica shards: %w", endpoint, err)
	}
	names := make(map[string]string) // shadowed name -> its dead primary
	for _, si := range shards {
		if si.Primary == endpoint || ring.Contains(si.Primary) {
			continue
		}
		for _, ni := range si.Names {
			names[ni.Name] = si.Primary
		}
	}
	if len(names) == 0 {
		return nil
	}
	tables, err := r.manifests(ctx, ring.Endpoints())
	if err != nil {
		return fmt.Errorf("cluster: remove %s: check orphaned shards: %w", endpoint, err)
	}
	bound := boundIn(tables)
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
