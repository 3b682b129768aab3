package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Movable is implemented by remote object types whose state can migrate
// between servers when the cluster membership changes. Snapshot returns a
// wire-encodable value capturing the object's state; Restore applies a
// snapshot to a freshly constructed instance on the new home server. Both
// are ordinary remote methods, so the rebalancer moves K objects in one
// batched round trip per direction instead of one per object.
//
// Types that do not implement Movable (or whose factory is not registered,
// see RegisterMovable) still participate in re-sharding: their binding moves
// to the new home server while the object itself stays where it was
// exported, so lookups keep resolving — only locality is lost.
type Movable interface {
	Snapshot() (any, error)
	Restore(state any) error
}

// movableFactories maps interface names to constructors for migrated
// instances. It is process-global, like the wire type registry: every node
// of a deployment registers the same set at init time, so any server can
// reconstruct any movable type.
var (
	movableMu        sync.RWMutex
	movableFactories = make(map[string]func() rmi.Remote)
)

// RegisterMovable associates an interface name with a constructor used to
// rebuild migrated objects of that type on their new home server. The
// constructed object must implement Movable. Registering the same interface
// again replaces the factory.
func RegisterMovable(iface string, factory func() rmi.Remote) {
	movableMu.Lock()
	defer movableMu.Unlock()
	movableFactories[iface] = factory
}

func movableFactory(iface string) (func() rmi.Remote, bool) {
	movableMu.RLock()
	defer movableMu.RUnlock()
	f, ok := movableFactories[iface]
	return f, ok
}

// RingSnapshot is a node's view of the cluster membership: the member
// endpoints and the epoch they correspond to.
type RingSnapshot struct {
	Members []string
	Epoch   uint64
}

// Binding is one entry of a node's local name table, as reported by
// Node.Manifest.
type Binding struct {
	Name string
	Ref  wire.Ref
}

func init() {
	wire.MustRegister("cluster.ringSnapshot", &RingSnapshot{})
	wire.MustRegister("cluster.binding", &Binding{})
}

// NodeRef builds the well-known reference of the cluster node service at
// endpoint.
func NodeRef(endpoint string) wire.Ref {
	return rmi.SystemRef(endpoint, rmi.NodeObjID, rmi.NodeIface)
}

// Node is the per-server cluster membership and migration service, exported
// at the reserved rmi.NodeObjID. It carries the server's authoritative copy
// of the ring state (refreshed by the rebalancer's broadcast after every
// membership change, queried by stale clients re-routing after a
// WrongHomeError) and the server side of object migration: Manifest lists
// the local name table, Depart releases objects moving away, Arrive adopts
// objects moving in.
type Node struct {
	rmi.RemoteBase

	peer *rmi.Peer
	reg  *registry.Service

	mu      sync.Mutex
	members []string
	epoch   uint64

	// Migration traffic counters (nil no-ops when uninstrumented).
	arrivals *stats.Counter // cluster.arrivals
	departs  *stats.Counter // cluster.departs
}

// StartNode exports a cluster node service on p at the reserved node id.
// members seeds the node's view of the cluster (epoch 0); the rebalancer's
// SetRing broadcast keeps it current afterwards.
func StartNode(p *rmi.Peer, reg *registry.Service, members []string) (*Node, error) {
	if reg == nil {
		return nil, errors.New("cluster: node requires a registry service")
	}
	n := &Node{peer: p, reg: reg, members: append([]string(nil), members...)}
	sort.Strings(n.members)
	if r := p.Stats(); r != nil {
		n.arrivals = r.Counter("cluster.arrivals")
		n.departs = r.Counter("cluster.departs")
		r.Func("cluster.ring_epoch", func() int64 {
			n.mu.Lock()
			defer n.mu.Unlock()
			return int64(n.epoch)
		})
	}
	if _, err := p.ExportSystem(rmi.NodeObjID, n, rmi.NodeIface); err != nil {
		return nil, fmt.Errorf("cluster: start node: %w", err)
	}
	return n, nil
}

// Epoch returns the node's current ring epoch. The replication service uses
// it as the fence rejecting stale-owner-list ships.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// view returns the node's sorted member list and its epoch, read together.
// The slice is shared: SetRing replaces it, nothing writes into it.
func (n *Node) view() ([]string, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.members, n.epoch
}

// RingState returns this node's view of the cluster membership.
func (n *Node) RingState() *RingSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return &RingSnapshot{Members: append([]string(nil), n.members...), Epoch: n.epoch}
}

// SetRing adopts a newer ring state. A broadcast behind this node's epoch
// is rejected LOUDLY — a silent drop would let a rebalancer with a stale
// directory believe its membership change propagated when every node
// ignored it. Re-broadcasts of the current epoch with identical membership
// are accepted (rebalance retries); a conflicting member set at the same
// epoch is an error.
func (n *Node) SetRing(s *RingSnapshot) error {
	if s == nil {
		return errors.New("cluster: set ring: nil snapshot")
	}
	members := append([]string(nil), s.Members...)
	sort.Strings(members)
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case s.Epoch < n.epoch:
		return fmt.Errorf("cluster: stale ring broadcast: epoch %d is behind this node's epoch %d — refresh the directory before rebalancing", s.Epoch, n.epoch)
	case s.Epoch == n.epoch && len(n.members) > 0:
		if !slices.Equal(members, n.members) {
			return fmt.Errorf("cluster: conflicting ring broadcast at epoch %d: %v here vs %v offered", s.Epoch, n.members, members)
		}
		return nil
	}
	n.members = members
	n.epoch = s.Epoch
	return nil
}

// Manifest returns the node's local name table: every name bound in this
// server's registry with the reference it resolves to. The rebalancer reads
// it to compute the moved key set in one round trip per server.
func (n *Node) Manifest() []Binding {
	bindings := n.reg.Snapshot()
	names := make([]string, 0, len(bindings))
	for name := range bindings {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Binding, len(names))
	for i, name := range names {
		out[i] = Binding{Name: name, Ref: bindings[name]}
	}
	return out
}

// Depart releases name from this server because the ring at epoch routes it
// elsewhere: the local binding is replaced by a wrong-home forward, and if
// the bound object is migrating — it lives on this very server and its type
// is movable, so a restored copy supersedes it at the new home — its export
// is replaced by a tombstone (rmi.Peer.ForwardObject), so calls routed here
// with a stale shard map fail with rmi.WrongHomeError instead of a dangling
// success. A non-movable object keeps its export: only its binding moves,
// and the reference re-bound at the new home still points here. Departing a
// name that already left is a no-op, making migration retries idempotent.
func (n *Node) Depart(name string, epoch uint64) error {
	ref, err := n.reg.Lookup(name)
	if err != nil {
		var wrong *rmi.WrongHomeError
		if errors.As(err, &wrong) {
			return nil // already departed
		}
		return err
	}
	n.departs.Inc()
	n.reg.Forward(name, epoch)
	// An export aliased by several names is tombstoned only when the last
	// of them departs: until then the staying names must keep resolving to
	// a live object (the migrated copy and the original fork in that case —
	// aliasing movable objects across ring keys is inherently ambiguous,
	// see DESIGN.md).
	if movableAt(ref, n.peer.Endpoint()) && !n.reg.Bound(ref) {
		n.peer.ForwardObject(ref.ObjID, name, epoch)
	}
	return nil
}

// Arrive adopts name on this server. For a movable object (the rebalancer
// decided movability explicitly; state is whatever Snapshot returned, nil
// included) a fresh instance is constructed, restored from the snapshot,
// and exported here; otherwise the existing reference is re-bound as-is —
// the binding migrates, the object stays put. Either way the local registry
// becomes name's authoritative home.
//
// A movable arrival for a name already bound to a local object is a no-op:
// the migration runs copy-then-tombstone, so a retried flow must not
// overwrite an adopted copy (possibly already mutated by routed traffic)
// with a re-read of the old home's stale state.
func (n *Node) Arrive(name string, iface string, movable bool, state any, ref wire.Ref) error {
	n.arrivals.Inc()
	if movable {
		if existing, err := n.reg.Lookup(name); err == nil && existing.Endpoint == n.peer.Endpoint() {
			return nil // already adopted by an earlier (partially failed) run
		}
		factory, ok := movableFactory(iface)
		if !ok {
			return fmt.Errorf("cluster: arrive %q: no movable factory registered for %q", name, iface)
		}
		obj := factory()
		m, ok := obj.(Movable)
		if !ok {
			return fmt.Errorf("cluster: arrive %q: factory for %q built a non-Movable %T", name, iface, obj)
		}
		if err := m.Restore(state); err != nil {
			return fmt.Errorf("cluster: arrive %q: restore: %w", name, err)
		}
		newRef, err := n.peer.Export(obj, iface)
		if err != nil {
			return fmt.Errorf("cluster: arrive %q: export: %w", name, err)
		}
		n.reg.Rebind(name, newRef)
		return nil
	}
	if ref.IsZero() {
		return fmt.Errorf("cluster: arrive %q: no state and no reference", name)
	}
	n.reg.Rebind(name, ref)
	return nil
}
