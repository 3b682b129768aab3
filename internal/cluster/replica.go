package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ReplRecord is one replicated flush wave as its primary ships it: the
// primary's own decoded batch request, re-addressed by root NAME so a
// follower can replay it against shadow state (see replicate.go and
// DESIGN.md, "Replication & failover"). A record is self-contained: the
// follower replays it on its own. It carries no identity: its primary's link
// sends it once, so the follower applies it once.
type ReplRecord struct {
	// Primary is the endpoint the wave executed on — the shard the record
	// belongs to.
	Primary string
	// Epoch is the ring epoch the wave was routed at, and its followers
	// picked at. The primary refused the wave unexecuted if its own ring was
	// at another; followers reject records older than theirs: a stale owner
	// list must not smuggle writes into a shard re-placed since.
	Epoch uint64
	// Names and Ifaces describe the wave's batch roots in payload order:
	// Names[0] is the primary root, Names[1+i] is extra root i.
	Names  []string
	Ifaces []string
	// Payload is the executed core batch request (*brmi.req) as the primary
	// decoded it, minus its ship directive.
	Payload any
}

// ShardInfo summarizes one follower's replica of a shard, reported during
// failover so the rebalancer can pick the promotion source per name: the
// seeded shadow at the newest epoch with the most applied records wins.
type ShardInfo struct {
	Primary string
	Names   []NameInfo
}

// NameInfo is one shadow's promotion credentials. Election is per NAME, not
// per shard, because a replicated record ships to the union of its roots'
// followers: a follower holding a name's shadow only because the name shared
// a destination batch with a key it does follow may have created that shadow
// lazily mid-stream (Seeded false, Applied low) and must lose the election
// to the name's true follower, whose shadow was snapshot-installed at
// placement and replayed every record since.
type NameInfo struct {
	Name string
	// Seeded is true when the shadow was installed from an authoritative
	// snapshot (replica placement), not created lazily at first replay.
	Seeded bool
	// SeedEpoch is the ring epoch of the newest authoritative install. It
	// outranks Epoch in the election: a shadow seeded at epoch 1 that later
	// catches one union-shipped record at epoch 6 reports Epoch 6 but missed
	// every epoch-2..5 wave — only the install epoch proves the baseline.
	SeedEpoch uint64
	// Epoch is the newest ring epoch of any install or record applied to
	// this shadow.
	Epoch uint64
	// Applied counts the records replayed onto this shadow since its last
	// install — its position past the snapshot in the shard's per-name log.
	Applied int64
}

// StaleShipError reports a ship directive, replicated record or install
// fenced by a ring epoch that disagrees with the node it reached. From a
// PRIMARY it refuses a wave before anything executed, so a flush at first
// contact refreshes its ring and retries once (canRetryStale). From a
// follower it arrives inside a *QuorumError: the wave already executed on the
// primary, so the flush fails (no ack) rather than retrying — a re-send could
// double-apply.
type StaleShipError struct {
	RecordEpoch uint64
	NodeEpoch   uint64
}

func (e *StaleShipError) Error() string {
	return fmt.Sprintf("cluster: stale replication ship: fenced by ring epoch %d, node at epoch %d", e.RecordEpoch, e.NodeEpoch)
}

func init() {
	wire.MustRegister("cluster.replRecord", &ReplRecord{})
	wire.MustRegister("cluster.shardInfo", &ShardInfo{})
	wire.MustRegister("cluster.nameInfo", &NameInfo{})
	wire.MustRegisterError("cluster.StaleShip", &StaleShipError{})
	wire.MustRegisterError("cluster.Quorum", &QuorumError{})
	wire.MustRegisterError("cluster.FollowerError", &FollowerError{})
	wire.MustRegisterError("cluster.ShipReply", &ShipReplyError{})
}

// ReplicaRef builds the well-known reference of the replication service at
// endpoint.
func ReplicaRef(endpoint string) wire.Ref {
	return rmi.SystemRef(endpoint, rmi.ReplicaObjID, rmi.ReplicaIface)
}

// shadowObj is one name's shadow copy on a follower: a movable instance
// kept out of the registry (invisible to lookups and manifests) that
// replays the primary's batch log. seeded/epoch/applied are the promotion
// credentials reported by ShardInfo (see NameInfo).
type shadowObj struct {
	obj   rmi.Remote
	ref   wire.Ref
	iface string

	seeded    bool
	seedEpoch uint64
	epoch     uint64
	applied   int64
	// home marks a shadow installed at the name's ring home: handed here by
	// the server binding it, so its promotion counts as an arrival.
	home bool
}

// Replica is the per-server shard replication service, exported at the
// reserved rmi.ReplicaObjID, and the ship hook of the server's batch executor
// (replicate.go). Append is the follower's end of log shipping: it replays
// each shipped wave onto its shard's shadow state through the local batch
// executor, in the order its primary's link sent them — same dependency
// propagation and exception policy as the primary run, each record on its
// own, keeping no session between records. Place is replica
// (re)placement at a primary, driven by the rebalancer: it snapshots the
// primary's names and Installs them at their followers. Promote turns shadow
// state authoritative after the primary died: the chosen names are bound in
// the local registry, from where the ordinary migration moves each home.
type Replica struct {
	rmi.RemoteBase

	peer *rmi.Peer
	reg  *registry.Service
	node *Node
	exec *core.Executor

	// lag is observed on the primary once per shipped wave: from the end of
	// its execution to its quorum (or its last follower's answer).
	stats      *stats.Registry
	lag        *stats.Histogram // cluster.replication_lag
	ships      *stats.Counter   // cluster.replica_ships: Append calls served
	appends    *stats.Counter   // cluster.replica_appends: records applied
	installs   *stats.Counter   // cluster.replica_installs
	promotions *stats.Counter   // cluster.promotions

	mu     sync.Mutex
	shards map[string]map[string]*shadowObj // primary -> name -> its shadow

	// A wave holds gate shared from reading the ring view in admit until its
	// record is queued, a placement exclusively while it flips the view,
	// snapshots and queues its Installs (Place).
	gate  sync.RWMutex
	links sync.Map // follower endpoint -> *link

	view atomic.Pointer[ringView] // the ring of the node view waves last read
}

// StartReplica exports a shard replication service on p at the reserved
// replica id and installs it as exec's ship hook: node fences epochs and vets
// directives, reg takes promotions, exec replays shadows.
func StartReplica(p *rmi.Peer, reg *registry.Service, node *Node, exec *core.Executor) (*Replica, error) {
	if reg == nil || node == nil || exec == nil {
		return nil, errors.New("cluster: replica requires registry, node, and executor")
	}
	r := &Replica{
		peer:   p,
		reg:    reg,
		node:   node,
		exec:   exec,
		shards: make(map[string]map[string]*shadowObj),
	}
	if s := p.Stats(); s != nil {
		r.stats = s
		r.lag = s.Histogram("cluster.replication_lag")
		r.ships = s.Counter("cluster.replica_ships")
		r.appends = s.Counter("cluster.replica_appends")
		r.installs = s.Counter("cluster.replica_installs")
		r.promotions = s.Counter("cluster.promotions")
	}
	if _, err := p.ExportSystem(rmi.ReplicaObjID, r, rmi.ReplicaIface); err != nil {
		return nil, fmt.Errorf("cluster: start replica: %w", err)
	}
	exec.SetShipHook(r.admit)
	return r, nil
}

// shardFor returns the shadows of primary's shard, creating it on first
// sight. Caller holds r.mu.
func (r *Replica) shardFor(primary string) map[string]*shadowObj {
	sh := r.shards[primary]
	if sh == nil {
		sh = make(map[string]*shadowObj)
		r.shards[primary] = sh
	}
	return sh
}

// shadowFor returns name's shadow in sh, constructing a zero-state instance
// on first sight. Caller holds r.mu.
func (r *Replica) shadowFor(sh map[string]*shadowObj, name, iface string) (*shadowObj, error) {
	if sd := sh[name]; sd != nil {
		return sd, nil
	}
	factory, ok := movableFactory(iface)
	if !ok {
		return nil, fmt.Errorf("cluster: replicate %q: no movable factory registered for %q", name, iface)
	}
	obj := factory()
	ref, err := r.peer.Export(obj, iface)
	if err != nil {
		return nil, fmt.Errorf("cluster: replicate %q: export shadow: %w", name, err)
	}
	sd := &shadowObj{obj: obj, ref: ref, iface: iface}
	sh[name] = sd
	return sd, nil
}

// Append is the follower's end of a ship: the records a primary sends this
// server, applied in slice order. It answers one slot per record — nil, or
// why THAT record was refused — so one bad record never fails its siblings.
// A slot's error keeps its type across the wire (*StaleShipError still
// satisfies errors.As at the primary, and at the client the primary answers).
func (r *Replica) Append(ctx context.Context, recs []*ReplRecord) []error {
	r.ships.Inc()
	slots := make([]error, len(recs))
	for i, rec := range recs {
		slots[i] = r.apply(ctx, rec)
	}
	return slots
}

// apply replays one record onto its shard's shadows. Each record is applied
// as it arrives: its primary's link sent it once, in queue order. A record
// whose epoch is behind this node's ring epoch is rejected with
// StaleShipError (the owner list that routed it is stale). Nothing about rec
// is trusted: it is whatever the wire decoded, and a record refused leaves no
// shadow it built behind.
func (r *Replica) apply(ctx context.Context, rec *ReplRecord) error {
	switch {
	case rec == nil || rec.Primary == "" || len(rec.Names) == 0 || rec.Payload == nil:
		return errors.New("cluster: replica append: malformed record")
	case len(rec.Ifaces) != len(rec.Names):
		return errors.New("cluster: replica append: names/ifaces length mismatch")
	}
	if cur := r.node.Epoch(); rec.Epoch < cur {
		return &StaleShipError{RecordEpoch: rec.Epoch, NodeEpoch: cur}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shardFor(rec.Primary)
	shadows := make([]*shadowObj, len(rec.Names))
	// built lists the shadows this record created. A refused record drops
	// them: left behind, one would stand in a later election with nothing
	// replayed onto it.
	var built []string
	refuse := func(err error) error {
		for _, name := range built {
			r.drop(sh, name)
		}
		return err
	}
	for i, name := range rec.Names {
		if sh[name] == nil {
			built = append(built, name)
		}
		sd, err := r.shadowFor(sh, name, rec.Ifaces[i])
		if err != nil {
			return refuse(err)
		}
		shadows[i] = sd
	}
	extras := make([]uint64, 0, len(shadows)-1)
	for _, sd := range shadows[1:] {
		extras = append(extras, sd.ref.ObjID)
	}
	if _, err := r.exec.ReplayShadow(ctx, rec.Payload, shadows[0].ref.ObjID, extras); err != nil {
		return refuse(fmt.Errorf("cluster: replica append: %w", err))
	}
	for _, sd := range shadows {
		sd.applied++
		sd.epoch = max(sd.epoch, rec.Epoch)
	}
	r.appends.Inc()
	return nil
}

// Install seeds (or overwrites) the shadows of names under primary's shard
// from authoritative snapshots — one follower's share of a replica placement
// (Place): states[i] is the snapshot of names[i], an object of interface
// ifaces[i]. Placement after every membership change re-seeds each name's
// followers from its primary, which keeps a freshly responsible follower's
// shadow complete: a lazily created one would miss the history before it. A
// name moves between shards atomically: an install under one primary drops
// the name's shadow under every other.
func (r *Replica) Install(primary string, epoch uint64, names, ifaces []string, states []any) error {
	if primary == "" || len(ifaces) != len(names) || len(states) != len(names) {
		return &wire.CorruptError{Detail: "replica install: names, interfaces and states are not parallel"}
	}
	if cur := r.node.Epoch(); epoch < cur {
		return &StaleShipError{RecordEpoch: epoch, NodeEpoch: cur}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, name := range names {
		if err := r.install(name, ifaces[i], states[i], primary, epoch); err != nil {
			return err
		}
	}
	return nil
}

// install seeds one name's shadow. Caller holds r.mu.
func (r *Replica) install(name, iface string, state any, primary string, epoch uint64) error {
	if name == "" {
		return &wire.CorruptError{Detail: "replica install: a name without a name"}
	}
	factory, ok := movableFactory(iface)
	if !ok {
		return fmt.Errorf("cluster: install %q: no movable factory registered for %q", name, iface)
	}
	for p, sh := range r.shards {
		if p != primary {
			r.drop(sh, name)
		}
	}
	sh := r.shardFor(primary)
	sd := sh[name]
	if sd != nil && sd.iface != iface {
		r.drop(sh, name)
		sd = nil
	}
	if sd == nil {
		obj := factory()
		ref, err := r.peer.Export(obj, iface)
		if err != nil {
			return fmt.Errorf("cluster: install %q: export shadow: %w", name, err)
		}
		sd = &shadowObj{obj: obj, ref: ref, iface: iface}
	}
	m, ok := sd.obj.(Movable)
	if !ok {
		return fmt.Errorf("cluster: install %q: %q built a non-Movable %T", name, iface, sd.obj)
	}
	// The snapshot arrived in its primary's queue order — after every record
	// it holds, before every record it misses — so it is restored even over
	// a shadow seeded at this epoch, which may miss what its primary ran
	// unreplicated since. A newer seed epoch resets applied, the shadow's
	// position PAST its seed in the election; a re-seed keeps it.
	if err := m.Restore(state); err != nil {
		return fmt.Errorf("cluster: install %q: restore: %w", name, err)
	}
	if !sd.seeded || sd.seedEpoch < epoch {
		sd.applied = 0
	}
	sd.seeded = true
	sd.seedEpoch = max(sd.seedEpoch, epoch)
	sd.epoch = max(sd.epoch, epoch)
	ring, _ := r.viewRing()
	sd.home = ring.Route(name) == r.peer.Endpoint()
	sh[name] = sd
	r.installs.Inc()
	return nil
}

// Place is the primary's end of replica placement, and its fence: it adopts
// the ring (members at epoch, refused as Node.SetRing refuses a stale or
// conflicting one) and seeds the followers that ring assigns at replication
// each of its names — the named ones, or every one bound here when names is
// nil (snapshots). It snapshots each movable object it hosts for a name and
// sends every follower one Install of its share, followers in parallel: the
// caller pays one round trip for the whole placement. Nothing about the call
// is trusted: a replication degree outside [2, members], a duplicated member,
// a member list without this server, an epoch behind this node's ring or a
// named name not bound here is refused before anything is adopted or
// installed.
//
// The ring flips, the snapshots are read and each Install is queued on its
// follower's link in one exclusive hold of the gate, between this primary's
// waves, never inside one: an Install sits after the records its snapshots
// hold and before those they miss, so a follower neither replays a wave twice
// nor loses one under the snapshot, and every wave admitted afterwards picks
// its followers off the new ring and queues behind the Installs. No lock is
// held while the Installs are out: every member may be placing into every
// other at once.
func (r *Replica) Place(ctx context.Context, members []string, replication int, epoch uint64, names []string) error {
	return r.place(ctx, members, replication, epoch, names, true)
}

// Seed is Place without the fence: it seeds the owners the ring gives the
// names at epoch and adopts nothing. A removal runs it on every survivor at
// the current epoch before any node is fenced: once one is, a failover
// election no longer sees the leaving member's shadows, so a primary that
// dies before its own fence must already have seeded the followers that
// replace it. A migration's source runs it over the one-member ring of the
// moving names' new home at replication 1, to hand them there alone
// (Rebalancer.migratePair): once the Install is acked, so is every record
// queued ahead of it. So Seed accepts a ring without this server and a
// replication of 1.
func (r *Replica) Seed(ctx context.Context, members []string, replication int, epoch uint64, names []string) error {
	return r.place(ctx, members, replication, epoch, names, false)
}

// place is Place, or Seed when fence is false.
func (r *Replica) place(ctx context.Context, members []string, replication int, epoch uint64, names []string, fence bool) error {
	self := r.peer.Endpoint()
	sorted := slices.Sorted(slices.Values(members))
	switch {
	case len(members) > maxPlaceMembers:
		return &wire.CorruptError{Detail: fmt.Sprintf("placement over %d members, more than %d", len(members), maxPlaceMembers)}
	case replication < 1 || replication > len(members) || fence && replication < 2:
		return &wire.CorruptError{Detail: fmt.Sprintf("placement at replication %d over %d members", replication, len(members))}
	case len(slices.Compact(sorted)) != len(members):
		return &wire.CorruptError{Detail: "placement lists a member twice"}
	case fence && !slices.Contains(members, self):
		return &wire.CorruptError{Detail: fmt.Sprintf("placement at %s over a ring without it", self)}
	}
	if cur := r.node.Epoch(); epoch < cur {
		return &StaleShipError{RecordEpoch: epoch, NodeEpoch: cur}
	}
	bound := r.reg.Snapshot()
	if names != nil {
		bound = make(map[string]wire.Ref, len(names))
		for _, name := range names {
			ref, err := r.reg.Lookup(name)
			if err != nil {
				return err // typed, and it names the name
			}
			bound[name] = ref
		}
	}
	r.gate.Lock()
	if fence {
		if err := r.node.SetRing(&RingSnapshot{Members: members, Epoch: epoch}); err != nil {
			r.gate.Unlock()
			return err
		}
		if names == nil {
			// Every name bound here is installed again below, at each of
			// its owners under the view just adopted; a miss of those
			// Installs marks its names again.
			r.links.Range(func(_, v any) bool {
				l := v.(*link)
				l.mu.Lock()
				l.missed = nil
				l.mu.Unlock()
				return true
			})
		}
	}
	byFollower, err := r.snapshots(NewRing(members), replication, bound)
	if err != nil {
		r.gate.Unlock()
		return err
	}
	// Bounded like a ship: a follower wedged mid-call must not hold the
	// placement, and its caller, forever.
	acks, deadline := make(chan followerAck, len(byFollower)), time.Now().Add(shipTimeout)
	for f, sh := range byFollower {
		r.push(f, &shipment{ctx: ctx, method: "Install", args: []any{self, epoch, sh.names, sh.ifaces, sh.states}, deadline: deadline, acks: acks})
	}
	r.gate.Unlock()
	// The answer is the first failed follower's, in endpoint order, typed for
	// the wire.
	var failed *FollowerError
	for range byFollower {
		if a := <-acks; a.err != nil && (failed == nil || a.ep < failed.Endpoint) {
			failed = &FollowerError{Endpoint: a.ep, Err: a.err}
		}
	}
	if failed != nil {
		return failed
	}
	return nil
}

// Release tells every other member of this primary's ring view that names
// left its shard (Forget), each on its link behind the records already queued
// there, and does not wait. The shadows a name leaves behind at its old
// primary's followers are stale, and a failover election for that primary
// must not find one: the name may be bound on a member whose removal died
// after its fence, where no election looks.
func (r *Replica) Release(ctx context.Context, names []string) {
	self := r.peer.Endpoint()
	r.gate.Lock()
	defer r.gate.Unlock()
	members, _ := r.node.view()
	acks, deadline := make(chan followerAck, len(members)), time.Now().Add(shipTimeout)
	for _, m := range members {
		if m != self {
			r.push(m, &shipment{ctx: ctx, method: "Forget", args: []any{self, names}, deadline: deadline, acks: acks})
		}
	}
}

// Forget drops this follower's shadows of names under primary's shard: they
// left it (Release).
func (r *Replica) Forget(primary string, names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		r.drop(r.shards[primary], name)
	}
}

// drop removes name's shadow from sh and unexports it, unless it is the
// object bound for name here: a shadow nobody binds is reachable by no one,
// and a membership change drops some at every follower. Caller holds r.mu.
func (r *Replica) drop(sh map[string]*shadowObj, name string) {
	sd := sh[name]
	if sd == nil {
		return
	}
	delete(sh, name)
	if bound, err := r.reg.Lookup(name); err == nil && bound == sd.ref {
		return
	}
	r.peer.Unexport(sd.ref)
}

// snapshots reads the state of every movable object bound here, grouped by
// the owners the ring gives its name at replication other than this server.
// A name the ring homes elsewhere waits to migrate, and until it does this
// copy is its only one: its home holds a shadow of it too, so a failover of
// this server finds it in the ring. A shadow this server keeps of a name it
// holds is stale, and is dropped. Called with gate held exclusively, so no
// wave is half applied to what it reads.
func (r *Replica) snapshots(ring *Ring, replication int, bound map[string]wire.Ref) (map[string]*installShare, error) {
	self := r.peer.Endpoint()
	byFollower := make(map[string]*installShare)
	for _, name := range sortedKeys(bound) {
		ref := bound[name]
		if !movableAt(ref, self) {
			continue
		}
		r.mu.Lock()
		for _, sh := range r.shards {
			r.drop(sh, name)
		}
		r.mu.Unlock()
		obj, _ := r.peer.LocalObject(ref.ObjID)
		m, ok := obj.(Movable)
		if !ok {
			return nil, fmt.Errorf("cluster: place %q: object %d is no longer a movable export here", name, ref.ObjID)
		}
		state, err := m.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: place %q: snapshot: %w", name, err)
		}
		for _, f := range ring.ownersAt(name, replication) {
			if f == self {
				continue
			}
			share := byFollower[f]
			if share == nil {
				share = &installShare{}
				byFollower[f] = share
			}
			share.names = append(share.names, name)
			share.ifaces = append(share.ifaces, ref.Iface)
			share.states = append(share.states, state)
		}
	}
	return byFollower, nil
}

// installShare is one follower's share of a placement: the names it is to
// shadow, their interfaces and their snapshots.
type installShare struct {
	names, ifaces []string
	states        []any
}

// maxPlaceMembers bounds the ring a placement call makes its primary build
// (virtualNodes points per member).
const maxPlaceMembers = 1024

// Survey reports this follower's replicas for the rebalancer's election and
// removal guard: primary's shard alone, or every shard still holding shadow
// state when primary is empty, in primary order.
func (r *Replica) Survey(primary string) []*ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*ShardInfo
	for _, p := range sortedKeys(r.shards) {
		if (primary == "" || p == primary) && len(r.shards[p]) > 0 {
			out = append(out, r.shardInfo(p))
		}
	}
	return out
}

// shardInfo reports this follower's replica of primary's shard: its shadowed
// names and their credentials. Caller holds r.mu.
func (r *Replica) shardInfo(primary string) *ShardInfo {
	info := &ShardInfo{Primary: primary}
	sh := r.shards[primary]
	if sh == nil {
		return info
	}
	info.Names = make([]NameInfo, 0, len(sh))
	for name, sd := range sh {
		info.Names = append(info.Names, NameInfo{
			Name:      name,
			Seeded:    sd.seeded,
			SeedEpoch: sd.seedEpoch,
			Epoch:     sd.epoch,
			Applied:   sd.applied,
		})
	}
	sort.Slice(info.Names, func(i, j int) bool { return info.Names[i].Name < info.Names[j].Name })
	return info
}

// Promote turns the named shadows of primary's shard authoritative: each is
// bound into the local registry (overwriting any wrong-home forward) and
// leaves the shard, so a record primary ships afterwards builds a shadow of
// its own instead of replaying onto the live object. A failover promotes a
// dead primary's shadows, a migration the ones its source just handed here
// (Seed). Promotion is idempotent per name — a name already resolving to a
// local object is left alone, and its stale shadow dropped — so a retried
// change neither loses nor duplicates state. A name with neither is refused
// before anything is bound: its state is not here, and a caller about to
// tombstone its old home would lose it. Returns the names promoted by THIS
// call.
func (r *Replica) Promote(primary string, names []string, epoch uint64) ([]string, error) {
	if cur := r.node.Epoch(); epoch < cur {
		return nil, &StaleShipError{RecordEpoch: epoch, NodeEpoch: cur}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	shadows := r.shards[primary]
	held := make([]bool, len(names))
	for i, name := range names {
		existing, err := r.reg.Lookup(name)
		held[i] = err == nil && existing.Endpoint == r.peer.Endpoint()
		if !held[i] && shadows[name] == nil {
			return nil, fmt.Errorf("cluster: promote %q: no shadow of it under %s", name, primary)
		}
	}
	var promoted []string
	for i, name := range names {
		sd := shadows[name]
		if sd == nil {
			continue
		}
		if held[i] {
			r.drop(shadows, name)
			continue
		}
		r.reg.Rebind(name, sd.ref)
		promoted = append(promoted, name)
		if sd.home {
			r.node.arrivals.Inc()
		} else {
			r.promotions.Inc()
		}
		delete(shadows, name)
	}
	sort.Strings(promoted)
	return promoted, nil
}
