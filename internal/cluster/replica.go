package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// ReplRecord is one replicated flush wave as its primary ships it: the
// primary's own decoded batch request, re-addressed by root NAME so a
// follower can replay it against shadow state. The primary builds the record
// once the wave executed and sends it to the wave's followers before it
// answers the client (see replicate.go and DESIGN.md, "Replication &
// failover"). ID, Chain and Primary are minted at the primary; nothing of a
// record's identity comes from the client.
type ReplRecord struct {
	// ID uniquely identifies this wave for idempotent appends.
	ID string
	// Chain identifies the (client batch, destination) pipeline so a
	// follower chains consecutive waves through one shadow session, exactly
	// like the primary's KeepSession chain.
	Chain string
	// Primary is the endpoint the wave executed on — the shard the record
	// belongs to.
	Primary string
	// Epoch is the ring epoch the wave's follower lists were read at — one
	// read for the whole wave, so every record of a wave carries the same
	// one. The primary refused the wave unexecuted if its own ring was newer;
	// followers reject records older than theirs: a stale owner list must not
	// smuggle writes into a shard that was re-placed since.
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
	Epoch   uint64 // newest epoch at which the shard accepted a record or install
	Len     int64  // records appended to the shard's ordered log
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
	// outranks Epoch in the election: a shadow last snapshot-seeded at epoch
	// 1 that later catches a single union-shipped record at epoch 6 reports
	// Epoch 6 but missed every epoch-2..5 wave the name's true follower
	// replayed — only the install epoch proves the baseline is current.
	SeedEpoch uint64
	// Epoch is the newest ring epoch of any install or record applied to
	// this shadow.
	Epoch uint64
	// Applied counts the records replayed onto this shadow since its last
	// install — its position past the snapshot in the shard's per-name log.
	Applied int64
}

// StaleShipError reports a ship directive, replicated record or install
// fenced by a ring epoch that disagrees with the node it reached: the sender's
// owner list is stale (or, for a directive naming a follower the node does not
// know yet, the node's is). From a PRIMARY it refuses a wave before anything
// executed, so a flush at first contact refreshes its ring and retries once
// (canRetryStale). From a follower it arrives inside a *QuorumError: the wave
// already executed on the primary, so the flush fails (no ack) rather than
// retrying — a re-send could double-apply.
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
}

// shard is the ordered replication log of one primary endpoint as seen by
// this follower: applied record count, idempotence set, and the shadow
// objects the log applies to.
type shard struct {
	epoch   uint64
	length  int64
	seen    map[string]bool
	shadows map[string]*shadowObj
}

// Replica is the per-server shard replication service, exported at the
// reserved rmi.ReplicaObjID, and the ship hook of the server's batch executor
// (replicate.go): as a PRIMARY it forwards every wave whose flush carried a
// ship directive to the wave's followers before the flush is answered. The
// rest is the follower side. Append is the log-shipping path: it appends
// each shipped batch command to its per-shard ordered log and applies it to
// shadow state through the local batch executor (shadow replay — same
// order, dependency propagation, and exception policy as the primary run).
// Install seeds or overwrites one name's shadow from a snapshot — replica
// (re)placement, driven by the rebalancer's migration machinery. Promote
// turns shadow state authoritative after the primary died: the chosen
// names are exported into the local registry, from where the ordinary
// copy-then-tombstone migration moves each to its ring home.
type Replica struct {
	rmi.RemoteBase

	peer *rmi.Peer
	reg  *registry.Service
	node *Node
	exec *core.Executor

	// lag is observed on the primary, once per shipped wave: from the end of
	// its execution to the moment its quorum was met (or the last follower
	// answered).
	stats      *stats.Registry
	lag        *stats.Histogram // cluster.replication_lag
	ships      *stats.Counter   // cluster.replica_ships: Append calls served
	appends    *stats.Counter   // cluster.replica_appends: records applied
	installs   *stats.Counter   // cluster.replica_installs
	promotions *stats.Counter   // cluster.promotions

	mu     sync.Mutex
	shards map[string]*shard
	chains map[string]uint64 // chain id -> open shadow session
}

// StartReplica exports a shard replication service on p at the reserved
// replica id and installs it as exec's ship hook. It needs the node (for the
// epoch fence and the membership a directive is vetted against), the registry
// (for promotion), and the local batch executor (for shadow replay).
func StartReplica(p *rmi.Peer, reg *registry.Service, node *Node, exec *core.Executor) (*Replica, error) {
	if reg == nil || node == nil || exec == nil {
		return nil, errors.New("cluster: replica requires registry, node, and executor")
	}
	r := &Replica{
		peer:   p,
		reg:    reg,
		node:   node,
		exec:   exec,
		shards: make(map[string]*shard),
		chains: make(map[string]uint64),
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

func (r *Replica) shardFor(primary string) *shard {
	sh := r.shards[primary]
	if sh == nil {
		sh = &shard{seen: make(map[string]bool), shadows: make(map[string]*shadowObj)}
		r.shards[primary] = sh
	}
	return sh
}

// shadowFor returns name's shadow under sh, constructing a zero-state
// instance on first sight. A shadow whose export id is no longer live is
// discarded first: promotion hands the shadow object to the registry, and
// the ordinary migration that then homes the name elsewhere unexports it
// and leaves a wrong-home tombstone — replaying into that tombstone would
// fail every later ship for the name. Caller holds r.mu.
func (r *Replica) shadowFor(sh *shard, name, iface string) (*shadowObj, error) {
	if sd := sh.shadows[name]; sd != nil {
		if _, live := r.peer.LocalObject(sd.ref.ObjID); live {
			return sd, nil
		}
		delete(sh.shadows, name)
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
	sh.shadows[name] = sd
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

// apply appends one record to its shard's log and replays it onto shadow
// state. Records are idempotent by ID; a record whose epoch is behind this
// node's ring epoch is rejected with StaleShipError (the owner list that
// routed it is stale). Nothing about rec is trusted: it is whatever the wire
// decoded.
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
	if sh.seen[rec.ID] {
		return nil
	}
	shadows := make([]*shadowObj, len(rec.Names))
	for i, name := range rec.Names {
		sd, err := r.shadowFor(sh, name, rec.Ifaces[i])
		if err != nil {
			return err
		}
		shadows[i] = sd
	}
	extras := make([]uint64, 0, len(shadows)-1)
	for _, sd := range shadows[1:] {
		extras = append(extras, sd.ref.ObjID)
	}
	sess, _, err := r.exec.ReplayShadow(ctx, rec.Payload, shadows[0].ref.ObjID, extras, r.chains[rec.Chain])
	if err != nil {
		return fmt.Errorf("cluster: replica append %q: %w", rec.ID, err)
	}
	if sess == 0 {
		delete(r.chains, rec.Chain)
	} else {
		r.chains[rec.Chain] = sess
	}
	sh.seen[rec.ID] = true
	sh.length++
	if rec.Epoch > sh.epoch {
		sh.epoch = rec.Epoch
	}
	for _, sd := range shadows {
		sd.applied++
		if rec.Epoch > sd.epoch {
			sd.epoch = rec.Epoch
		}
	}
	r.appends.Inc()
	return nil
}

// Install seeds (or overwrites) name's shadow under primary's shard from an
// authoritative snapshot — replica placement. The rebalancer calls it after
// every membership change, re-seeding each name's followers from its
// primary, which is what keeps a freshly responsible follower's shadow
// complete (a lazily created zero-state shadow would silently miss history
// written before this follower owned the key). Name moves between shards
// atomically: an install under one primary drops the name's shadow under
// every other.
func (r *Replica) Install(name, iface string, state any, primary string, epoch uint64) error {
	if name == "" || primary == "" {
		return errors.New("cluster: replica install: malformed request")
	}
	if cur := r.node.Epoch(); epoch < cur {
		return &StaleShipError{RecordEpoch: epoch, NodeEpoch: cur}
	}
	factory, ok := movableFactory(iface)
	if !ok {
		return fmt.Errorf("cluster: install %q: no movable factory registered for %q", name, iface)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, sh := range r.shards {
		if p != primary {
			delete(sh.shadows, name)
		}
	}
	sh := r.shardFor(primary)
	sd := sh.shadows[name]
	if sd != nil {
		// A promoted-then-migrated shadow's export died with the move (see
		// shadowFor); restoring onto it would re-seed a tombstoned id.
		if _, live := r.peer.LocalObject(sd.ref.ObjID); !live {
			sd = nil
		}
	}
	if sd != nil && sd.iface == iface && sd.seeded && sd.seedEpoch >= epoch {
		// Already seeded at this epoch (or newer) and kept current by
		// appends since. Overwriting it would race in-flight ships: the
		// snapshot is read from the primary AFTER it applied a wave, so it
		// can subsume a record that has not reached this follower yet —
		// replaying that record on top of the snapshot double-applies it,
		// and the seen-set can't help on a first arrival. Only stale seeds
		// (older epoch) carry history this shadow may have missed.
		if epoch > sh.epoch {
			sh.epoch = epoch
		}
		return nil
	}
	if sd == nil || sd.iface != iface {
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
	if err := m.Restore(state); err != nil {
		return fmt.Errorf("cluster: install %q: restore: %w", name, err)
	}
	sd.seeded = true
	if epoch > sd.seedEpoch {
		sd.seedEpoch = epoch
	}
	if epoch > sd.epoch {
		sd.epoch = epoch
	}
	// The snapshot supersedes everything replayed before it: applied now
	// counts the shadow's position PAST this install, so a stale follower
	// re-seeded at the same epoch as the true follower still loses to the
	// one that replayed more records since.
	sd.applied = 0
	sh.shadows[name] = sd
	if epoch > sh.epoch {
		sh.epoch = epoch
	}
	r.installs.Inc()
	return nil
}

// Shards lists the primaries of every shard on this follower that still
// holds shadow state. The rebalancer's removal guard uses it to spot
// orphaned shards — replicas of a primary no longer in the ring — before a
// planned removal discards them (see Rebalancer.RemoveServer).
func (r *Replica) Shards() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.shards))
	for p, sh := range r.shards {
		if len(sh.shadows) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ShardInfo reports this follower's replica of primary's shard: log epoch,
// log length, and the shadowed names. The rebalancer's failover compares
// these across survivors to pick the promotion source.
func (r *Replica) ShardInfo(primary string) *ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := &ShardInfo{Primary: primary}
	sh := r.shards[primary]
	if sh == nil {
		return info
	}
	info.Epoch = sh.epoch
	info.Len = sh.length
	info.Names = make([]NameInfo, 0, len(sh.shadows))
	for name, sd := range sh.shadows {
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
// bound into the local registry (overwriting any wrong-home forward), from
// where the ordinary migration flow moves it to its ring home. Promotion is
// idempotent per name — a name already resolving to a local object is left
// alone, so a failover retried after a partial run neither loses nor
// duplicates state. Returns the names promoted by THIS call.
func (r *Replica) Promote(primary string, names []string, epoch uint64) ([]string, error) {
	if cur := r.node.Epoch(); epoch < cur {
		return nil, &StaleShipError{RecordEpoch: epoch, NodeEpoch: cur}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[primary]
	if sh == nil {
		return nil, nil
	}
	var promoted []string
	for _, name := range names {
		sd := sh.shadows[name]
		if sd == nil {
			continue
		}
		if existing, err := r.reg.Lookup(name); err == nil && existing.Endpoint == r.peer.Endpoint() {
			continue // already promoted by an earlier (partially failed) run
		}
		r.reg.Rebind(name, sd.ref)
		promoted = append(promoted, name)
		r.promotions.Inc()
	}
	sort.Strings(promoted)
	return promoted, nil
}
