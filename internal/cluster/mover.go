package cluster

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// mover.go is the one snapshot-moving mechanism under the rebalancer. The
// paper's claim — K remote operations cost one round trip — is applied to
// the control plane itself by a single primitive, trip: one core.Batch to
// one endpoint carrying one call per name. Migration, replica placement,
// failover promotion and orphan rescue are compositions of six trip kinds
// over one Snapshot/Restore contract (Movable), and no state crosses the
// client in any of them: a server snapshots its own names and installs them
// where they go, one Install per recipient on its ordered link. A primary
// places its followers so (Replica.Place) — and placement is the fence: a
// member adopts a new ring in the same hold that seeds its followers, in a
// place trip that also reads what the election needs. A migration's source
// hands its moving names to their new home so (Replica.Seed), and the home
// promotes them as a failover promotes a dead primary's shadows. Over four
// members a replicated placement, first or settled, mints no epoch, so its
// fence is its ring refresh: 4 client calls and 2 RTT (apply, converge). An R=2
// scale-out from three members to four, which mints one and refreshes first,
// costs 16. Get-Batch's streaming read shares the contract but not the trip,
// and lives in getbatch.go.

// tripKind names one batched round trip of the control plane.
type tripKind string

const (
	tripHand    tripKind = "hand"    // a flow's source installs its movable names at their new home
	tripArrive  tripKind = "arrive"  // adopt moving names at their new home, then place them from there
	tripPlace   tripKind = "place"   // fence one member with its placement, then read what the election needs
	tripSurvey  tripKind = "survey"  // read a leaving member's replica shards
	tripDepart  tripKind = "depart"  // tombstone moved names at their old home, which releases their shadows
	tripPromote tripKind = "promote" // turn one holder's shadows authoritative, then place those it homes
)

// item is one call within a trip: the method, its arguments and, for a call
// on an object other than the trip's root, that object as an extra batch
// root. name is what the call is about, for errors and the test probe.
type item struct {
	name   string
	root   wire.Ref
	method string
	args   []any
}

// trip runs one batched round trip: each item's method is recorded on a
// single core.Batch rooted at the service `at`, the batch is flushed, and
// every item's future is checked. It returns the items' results in order.
// An empty trip costs nothing. This is the control plane's only flush, and
// the only place the test probe is consulted.
func (r *Rebalancer) trip(ctx context.Context, kind tripKind, at wire.Ref, items []item) ([]any, error) {
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
		if !it.root.IsZero() && it.root != at {
			var err error
			if target, err = b.AddRoot(it.root); err != nil {
				return nil, fmt.Errorf("%s %q: %w", kind, it.name, err)
			}
		}
		futs[i] = target.Call(it.method, it.args...)
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

// ReplyError reports a control call answered with a value its method never
// returns. The rebalancer refuses to read such an answer as empty: an empty
// name table or shard list is exactly what lets a removal discard the last
// copies of a shard.
type ReplyError struct {
	Endpoint string
	Method   string
	Got      string // what came back where the answer belongs
}

func (e *ReplyError) Error() string {
	return fmt.Sprintf("cluster: %s at %s answered %s", e.Method, e.Endpoint, e.Got)
}

// move is one name travelling between servers, with the reference it is
// bound to at its current holder. movable marks a user object hosted on the
// holder whose type has a registered movable factory — its state travels;
// otherwise only the binding moves.
type move struct {
	name    string
	ref     wire.Ref
	movable bool
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

// placeItem is the call asking primary to adopt routing at epoch and seed the
// followers it assigns its names — the named ones, or every one it is the
// routing home of when names is nil (Replica.Place).
func placeItem(primary string, routing *Ring, epoch uint64, names []string) item {
	return item{name: primary, root: ReplicaRef(primary), method: "Place",
		args: []any{routing.Endpoints(), ownerCount(routing), epoch, names}}
}

// preseed has each primary seed, at epoch, the followers routing assigns its
// names without adopting routing (Replica.Seed): one place trip each, in
// parallel. Nothing has followers below two owners.
func (r *Rebalancer) preseed(ctx context.Context, primaries []string, routing *Ring, epoch uint64) error {
	if ownerCount(routing) <= 1 {
		return nil
	}
	return fanOut(primaries, func(_ int, p string) error {
		it := placeItem(p, routing, epoch, nil)
		it.method = "Seed"
		if _, err := r.trip(ctx, tripPlace, ReplicaRef(p), []item{it}); err != nil {
			return fmt.Errorf("cluster: seed replicas of %s: %w", p, err)
		}
		return nil
	})
}

// fenceItem is the call handing ep the ring routing at epoch: a placement of
// every name it homes when it is a member with followers to seed, a bare
// SetRing when it places nothing.
func fenceItem(ep string, routing *Ring, epoch uint64) item {
	if ownerCount(routing) > 1 && routing.Contains(ep) {
		return placeItem(ep, routing, epoch, nil)
	}
	return item{name: ep, method: "SetRing", args: []any{&RingSnapshot{Members: routing.Endpoints(), Epoch: epoch}}}
}

// ownerCount is how many owners routing gives each name: R, or every member of
// a ring a removal shrank below R. Below 2 no name has a follower.
func ownerCount(routing *Ring) int {
	return min(routing.Replication(), routing.Size())
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
func (r *Rebalancer) manifests(ctx context.Context, endpoints []string) ([][]*Binding, error) {
	out := make([][]*Binding, len(endpoints))
	err := fanOut(endpoints, func(i int, ep string) error {
		res, err := r.dir.peer.Call(ctx, NodeRef(ep), "Manifest")
		if err != nil {
			return fmt.Errorf("cluster: manifest %s: %w", ep, err)
		}
		if len(res) != 1 {
			return &ReplyError{Endpoint: ep, Method: "Manifest", Got: fmt.Sprintf("%d results", len(res))}
		}
		out[i], err = decodeManifest(ep, res[0])
		return err
	})
	return out, err
}

// decodeList reads endpoint's answer to method: a list of *T, each element
// one valid accepts. Nil is the empty list.
func decodeList[T any](ep, method string, v any, valid func(*T) bool) ([]*T, error) {
	if v == nil {
		return nil, nil
	}
	generic, ok := v.([]any)
	if !ok {
		return nil, &ReplyError{Endpoint: ep, Method: method, Got: fmt.Sprintf("a %T", v)}
	}
	out := make([]*T, len(generic))
	for i, e := range generic {
		x, ok := e.(*T)
		if !ok || x == nil || !valid(x) {
			return nil, &ReplyError{Endpoint: ep, Method: method, Got: fmt.Sprintf("an unreadable %T in its list", e)}
		}
		out[i] = x
	}
	return out, nil
}

// decodeManifest reads endpoint's answer to Manifest.
func decodeManifest(ep string, v any) ([]*Binding, error) {
	return decodeList(ep, "Manifest", v, func(*Binding) bool { return true })
}

// decodeShards reads endpoint's answer to Survey(primary): shard infos, each
// naming its primary — primary itself when one was asked for.
func decodeShards(ep, primary string, v any) ([]*ShardInfo, error) {
	return decodeList(ep, "Survey", v, func(si *ShardInfo) bool {
		return si.Primary != "" && (primary == "" || si.Primary == primary)
	})
}

// boundIn is the set of names bound in any of the tables.
func boundIn(tables [][]*Binding) map[string]bool {
	bound := make(map[string]bool)
	for _, t := range tables {
		for _, b := range t {
			bound[b.Name] = true
		}
	}
	return bound
}

// memberView is one member's name table and replicas, as its place trip read
// them.
type memberView struct {
	manifest []*Binding
	shards   []*ShardInfo
}

// fence hands every recipient the ring routing at epoch, recipients in
// parallel (fenceItem). A member that places adopts it in its place trip,
// and a node that places nothing — leaving the ring, or on a ring with no
// followers — in a plain SetRing call. With read, every trip goes on to read
// the member's name table and its replicas of primary's shard — of every
// shard it holds when primary is empty — so a member is surveyed after its
// own fence, and a refused fence aborts the trip before the reads.
func (r *Rebalancer) fence(ctx context.Context, recipients []string, routing *Ring, epoch uint64, read bool, primary string) ([]memberView, error) {
	views := make([]memberView, len(recipients))
	err := fanOut(recipients, func(i int, ep string) error {
		items := []item{fenceItem(ep, routing, epoch)}
		if read {
			items = append(items, item{name: ep, method: "Manifest"},
				item{name: primary, root: ReplicaRef(ep), method: "Survey", args: []any{primary}})
		}
		var res []any
		var err error
		if len(items) == 1 && items[0].method == "SetRing" {
			_, err = r.dir.peer.Call(ctx, NodeRef(ep), "SetRing", items[0].args...)
		} else if res, err = r.trip(ctx, tripPlace, NodeRef(ep), items); err == nil && read {
			if views[i].manifest, err = decodeManifest(ep, res[1]); err == nil {
				views[i].shards, err = decodeShards(ep, primary, res[2])
			}
		}
		if err != nil {
			return fmt.Errorf("cluster: fence %s: %w", ep, err)
		}
		return nil
	})
	return views, err
}

// flow is the moves of one (source, destination) pair.
type flow struct {
	src, dst string
	moves    []move
}

// plan groups the names routing homes elsewhere into per-(source,
// destination) flows. tables are the sources' name tables when the caller
// has them current; nil reads them, one Manifest per source.
func (r *Rebalancer) plan(ctx context.Context, sources []string, tables [][]*Binding, routing *Ring) ([]flow, int, error) {
	if tables == nil {
		var err error
		if tables, err = r.manifests(ctx, sources); err != nil {
			return nil, 0, err
		}
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

// migratePair moves one flow in three trips. Hand: the source installs the
// movable names at the destination alone — a seed over the one-member ring of
// it at replication 1 — and answers once the Install is acked (Replica.Seed):
// it rides the source's ordered link behind the records queued before it, so
// the destination then holds every wave the source ran on them. The names'
// other owners are the destination's followers, which its own placement in
// the arrive trip seeds. Arrive: the
// destination promotes the handed shadows (Replica.Promote, idempotent: an
// adopted copy is kept) and binds the other names where their objects stay
// (Node.Arrive), then places the promoted names at its followers in the same
// batch. Depart: the source leaves wrong-home forwards and export tombstones
// and, on a replicated ring, releases the names' shadows under its shard at
// the other members (Replica.Release). The order is apply's step 4: until
// the depart lands both homes hold the name — stale-ring writes in that
// window land on the old copy and are superseded by the tombstone — whereas
// tombstoning first would destroy the only copy of the state if the arrive
// trip failed. Placement comes before the depart because the old shard's
// shadows are keyed under the old primary, invisible to an election for the
// new one: a state-loss kill of the destination after the depart would
// otherwise hold the only copy of every moved name. A failed promote aborts
// the batch before the placement.
func (r *Rebalancer) migratePair(ctx context.Context, f flow, routing *Ring, epoch uint64) error {
	arrive := make([]item, 0, len(f.moves)+2)
	depart := make([]item, len(f.moves), len(f.moves)+1)
	names := make([]string, len(f.moves))
	var handed []string
	for i, m := range f.moves {
		if m.movable {
			handed = append(handed, m.name)
		} else {
			arrive = append(arrive, item{name: m.name, method: "Arrive", args: []any{m.name, m.ref}})
		}
		depart[i] = item{name: m.name, method: "Depart", args: []any{m.name, epoch}}
		names[i] = m.name
	}
	if len(handed) > 0 {
		hand := item{name: f.src, root: ReplicaRef(f.src), method: "Seed",
			args: []any{[]string{f.dst}, 1, epoch, handed}}
		if _, err := r.trip(ctx, tripHand, ReplicaRef(f.src), []item{hand}); err != nil {
			return err
		}
		arrive = append(arrive, item{name: f.src, root: ReplicaRef(f.dst), method: "Promote", args: []any{f.src, handed, epoch}})
		if ownerCount(routing) > 1 {
			arrive = append(arrive, placeItem(f.dst, routing, epoch, handed))
		}
	}
	if _, err := r.trip(ctx, tripArrive, NodeRef(f.dst), arrive); err != nil {
		return err
	}
	if routing.Replication() > 1 {
		depart = append(depart, item{name: f.src, root: ReplicaRef(f.src), method: "Release", args: []any{names}})
	}
	_, err := r.trip(ctx, tripDepart, NodeRef(f.src), depart)
	return err
}

// candidate is one holder's shadow of a name, with its election credentials.
type candidate struct {
	holder, primary string
	ni              NameInfo
}

// elect is the one promotion election over the members' place-trip views —
// their name tables and their replicas of one dead primary's shard, or of
// every shard held — in which each shadowed name is won by its best candidate
// (betterCandidate). Names bound on any member (or, for a rescue, on the
// shadow's own primary) are alive — migrated away before the crash, promoted
// by an earlier partial run, or simply healthy — and are filtered out, so a
// stale shadow never overwrites fresher authoritative state and retries
// converge. Each winning holder then binds its shadows into its registry
// (Replica.Promote, idempotent per name) and places those routing homes
// there, one promote trip per holder in sorted order; the caller's migration
// homes the rest, placing them on arrival. Returns how many names were
// promoted and the members' name tables as the views hold them — before any
// promotion.
func (r *Rebalancer) elect(ctx context.Context, members []string, primary string, views []memberView, routing *Ring, epoch uint64) (int, [][]*Binding, error) {
	tables := make([][]*Binding, len(views))
	best := make(map[string]candidate)
	for i, v := range views {
		tables[i] = v.manifest
		for _, si := range v.shards {
			for _, ni := range si.Names {
				if cur, ok := best[ni.Name]; !ok || betterCandidate(members[i], ni, cur.holder, cur.ni) {
					best[ni.Name] = candidate{holder: members[i], primary: si.Primary, ni: ni}
				}
			}
		}
	}
	if len(best) == 0 {
		return 0, tables, nil
	}
	bound := boundIn(tables)
	if primary == "" {
		// A rescued shadow's own primary may be alive outside the ring — a
		// member whose removal was fenced but never drained still binds
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
		held, _ := r.manifests(ctx, outside)
		maps.Copy(bound, boundIn(held))
	}
	byHolder := make(map[string][]item)
	homed := make(map[string][]string)
	promoted := 0
	for _, name := range sortedKeys(best) {
		if c := best[name]; !bound[name] {
			byHolder[c.holder] = append(byHolder[c.holder], item{name: name, method: "Promote", args: []any{c.primary, []string{name}, epoch}})
			if routing.Route(name) == c.holder {
				homed[c.holder] = append(homed[c.holder], name)
			}
			promoted++
		}
	}
	return promoted, tables, fanOut(sortedKeys(byHolder), func(_ int, ep string) error {
		items := byHolder[ep]
		if ownerCount(routing) > 1 && len(homed[ep]) > 0 {
			items = append(items, placeItem(ep, routing, epoch, homed[ep]))
		}
		_, err := r.trip(ctx, tripPromote, ReplicaRef(ep), items)
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
