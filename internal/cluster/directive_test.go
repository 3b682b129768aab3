package cluster_test

// The ship directive at the primary: it arrives from outside the server, so
// the primary vets it before it executes anything and before it dials anyone,
// and a directive fenced by a ring epoch behind the primary's is a stale route
// the flush may still retry.

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/wire"
)

// directiveCluster is 3 servers behind an R=2 ring that has seen one real
// membership change (so there is an epoch to be behind), with obj-0 placed.
func directiveCluster(t *testing.T) (ec *clustertest.Cluster, dir *cluster.Directory, primary, follower, bystander string, epoch uint64) {
	t.Helper()
	ec = clustertest.New(t, 3)
	dir = cluster.NewDirectory(ec.Client, ec.Endpoints()[:2], cluster.WithReplication(2))
	ec.BindCounter(dir, "obj-0", 100)
	if _, err := cluster.NewRebalancer(dir).AddServer(context.Background(), "server-2"); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	owners, epoch := dir.Owners("obj-0")
	for _, ep := range ec.Endpoints() {
		if ep != owners[0] && ep != owners[1] {
			bystander = ep
		}
	}
	if epoch == 0 || bystander == "" {
		t.Fatalf("setup: owners %v at epoch %d", owners, epoch)
	}
	return ec, dir, owners[0], owners[1], bystander, epoch
}

// TestPrimaryVetsShipDirective: every malformed, hostile or stale directive is
// refused with its typed error, with obj-0 untouched and not one call made by
// the primary; the well-formed one next to them executes and ships.
func TestPrimaryVetsShipDirective(t *testing.T) {
	ec, _, primary, follower, bystander, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	many := make([]int, 8)
	for i := range many {
		many[i] = memberIndex(ec, follower)
	}
	corrupt, stale := new(*wire.CorruptError), new(*cluster.StaleShipError)
	for _, tc := range []struct {
		name string
		d    *core.ShipDirective
		want any // **wire.CorruptError or **cluster.StaleShipError
	}{
		{"follower lists not parallel to the roots", &core.ShipDirective{Followers: followers(ec, follower, follower), Epoch: epoch}, corrupt},
		{"names not parallel to the roots", &core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch, Names: []string{"obj-0", "obj-1"}}, corrupt},
		{"a follower index past the ring", &core.ShipDirective{Followers: [][]int{{3}}, Epoch: epoch}, corrupt},
		{"a negative follower index", &core.ShipDirective{Followers: [][]int{{-1}}, Epoch: epoch}, corrupt},
		{"the primary as its own follower", &core.ShipDirective{Followers: [][]int{{memberIndex(ec, follower), memberIndex(ec, primary)}}, Epoch: epoch}, corrupt},
		{"more followers than members", &core.ShipDirective{Followers: [][]int{many}, Epoch: epoch}, corrupt},
		{"a negative quorum", &core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch, Quorum: -1}, corrupt},
		{"an epoch behind the primary's ring", &core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch - 1}, stale},
		// The primary's view is behind the directive's epoch: the indexes point
		// into a membership it has not seen, so it resolves none of them — not
		// one past its own ring, and not one its own ring holds either, which
		// would name whichever server sits there at its older epoch. Either is
		// a stale ship, refused before the primary calls anyone.
		{"a follower index past the ring under an epoch ahead of the primary's", &core.ShipDirective{Followers: [][]int{{3}}, Epoch: epoch + 1}, stale},
		{"a member's index under an epoch ahead of the primary's ring", &core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch + 1}, stale},
	} {
		calls := ps.Peer.CallCount()
		cb := core.NewNamed(ec.Client, primary, "obj-0")
		cb.Ship(tc.d)
		f := cb.Root().Call("Add", int64(1))
		err := cb.Flush(ctx)
		if !errors.As(err, tc.want) {
			t.Errorf("%s: flush = %T %v, want %T", tc.name, err, err, reflect.ValueOf(tc.want).Elem().Interface())
		}
		if _, ferr := f.Get(); ferr == nil {
			t.Errorf("%s: the call settled with a value", tc.name)
		}
		if got := counterAt(t, ec, primary, "obj-0").History(); len(got) != 0 {
			t.Errorf("%s: the refused wave executed: %v", tc.name, got)
		}
		if got := ps.Peer.CallCount() - calls; got != 0 {
			t.Errorf("%s: the primary made %d calls for a wave it refused", tc.name, got)
		}
	}
	if got := replicaCounters(ec, "cluster.replica_ships"); got != 0 {
		t.Fatalf("followers served %d Append calls for refused waves", got)
	}

	// Well formed, even with the ring's other member following for no reason
	// of the ring's: it is a member, so the wave ships to both.
	cb := core.NewNamed(ec.Client, primary, "obj-0")
	cb.Ship(&core.ShipDirective{Followers: [][]int{{memberIndex(ec, follower), memberIndex(ec, bystander)}}, Epoch: epoch})
	cb.Root().Call("Add", int64(5))
	if err := cb.Flush(ctx); err != nil {
		t.Fatalf("well-formed directive: %v", err)
	}
	if cb.ShipLag() <= 0 {
		t.Error("the reply to a shipped wave carries no ship lag")
	}
	if got := shadowHistory(t, ec, follower, primary, "obj-0"); !reflect.DeepEqual(got, []int64{5}) {
		t.Errorf("%s's shadow replayed %v, want [5]", follower, got)
	}
	if got := replicaCounters(ec, "cluster.replica_ships"); got != 2 {
		t.Errorf("followers served %d Append calls, want one per listed follower = 2", got)
	}
}

// memberIndex is ep's index in the cluster's sorted membership — every
// server is a member of directiveCluster's ring.
func memberIndex(ec *clustertest.Cluster, ep string) int {
	return slices.Index(ec.Endpoints(), ep)
}

// followers is the Followers of a directive with one root per endpoint, each
// followed by that one server.
func followers(ec *clustertest.Cluster, eps ...string) [][]int {
	out := make([][]int, len(eps))
	for i, ep := range eps {
		out[i] = []int{memberIndex(ec, ep)}
	}
	return out
}

// counterAt returns the live counter bound under name at endpoint.
func counterAt(t *testing.T, ec *clustertest.Cluster, endpoint, name string) *clustertest.Counter {
	t.Helper()
	s := ec.Server(endpoint)
	ref, err := s.Reg.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := s.Peer.LocalObject(ref.ObjID)
	return obj.(*clustertest.Counter)
}

// TestChainedDirectiveMustKeepItsRoots: the chain's identity — names,
// interfaces, record sequence — is fixed at the primary by its first wave. A
// later wave whose directive names other roots, or a directive that joins a
// chain whose first wave carried none, is refused unexecuted.
func TestChainedDirectiveMustKeepItsRoots(t *testing.T) {
	ec, _, primary, follower, _, epoch := directiveCluster(t)
	ctx := context.Background()
	good := func(names ...string) *core.ShipDirective {
		return &core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch, Names: names}
	}
	for name, tc := range map[string]struct{ first, second *core.ShipDirective }{
		"roots renamed mid-chain":            {good(), good("obj-1")},
		"directive joins an unshipped chain": {nil, good("obj-0")},
	} {
		before := len(counterAt(t, ec, primary, "obj-0").History())
		cb := core.NewNamed(ec.Client, primary, "obj-0")
		cb.Ship(tc.first)
		cb.Root().Call("Add", int64(1))
		if err := cb.FlushAndContinue(ctx); err != nil {
			t.Fatalf("%s: first wave: %v", name, err)
		}
		cb.Ship(tc.second)
		cb.Root().Call("Add", int64(2))
		var corrupt *wire.CorruptError
		if err := cb.Flush(ctx); !errors.As(err, &corrupt) {
			t.Errorf("%s: second wave = %T %v, want *wire.CorruptError", name, err, err)
		}
		if got := len(counterAt(t, ec, primary, "obj-0").History()) - before; got != 1 {
			t.Errorf("%s: %d waves executed, want the first only", name, got)
		}
	}
}

// TestUnmovableRootFlushesUnreplicated: no follower could build a shadow of a
// root whose interface has no movable factory, so its chain executes, ships
// nothing and says so.
func TestUnmovableRootFlushesUnreplicated(t *testing.T) {
	ec, _, primary, follower, _, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	ref, err := ps.Peer.Export(clustertest.NewCounter(0), "test.Unmovable")
	if err != nil {
		t.Fatal(err)
	}
	ps.Reg.Rebind("plain", ref)
	calls := ps.Peer.CallCount()
	cb := core.NewNamed(ec.Client, primary, "plain")
	cb.Ship(&core.ShipDirective{Followers: followers(ec, follower), Epoch: epoch})
	f := cb.Root().Call("Add", int64(3))
	if err := cb.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := core.Typed[int64](f).Get(); err != nil || v != 3 {
		t.Errorf("Add = %v, %v; want 3", v, err)
	}
	if cb.ShipLag() != 0 || ps.Peer.CallCount() != calls {
		t.Errorf("an unmovable root's wave shipped: lag %v, %d calls by the primary", cb.ShipLag(), ps.Peer.CallCount()-calls)
	}
}

// TestStaleDirectiveRetriesAtFirstContact: a client whose ring is one epoch
// behind flushes a root whose HOME did not move — no wrong-home refusal would
// ever tell it. The primary fences the directive before it executes, so the
// flush refreshes, re-plans and retries once, and the wave is applied exactly
// once and replicated under the new epoch. (Caught only by a follower, after
// the primary had applied the wave, the same stale owner list used to be an
// unretryable failure.)
func TestStaleDirectiveRetriesAtFirstContact(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	base := ec.Endpoints()[:3]
	admin := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(2))
	stale := cluster.NewDirectory(ec.Client, base, cluster.WithReplication(2))
	grown := cluster.NewRing(ec.Endpoints(), cluster.WithReplication(2))
	name := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-0", 1)[0]
	ec.BindCounter(admin, name, 0)
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-3"); err != nil {
		t.Fatal(err)
	}
	if stale.Epoch() >= admin.Epoch() {
		t.Fatalf("setup: the stale directory is at epoch %d, the cluster at %d", stale.Epoch(), admin.Epoch())
	}

	b := cluster.New(ec.Client, cluster.WithDirectory(stale))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(9))
	if err := b.Flush(ctx); err != nil {
		t.Fatalf("flush behind a stale ring: %v", err)
	}
	if v, err := cluster.Typed[int64](f).Get(); err != nil || v != 9 {
		t.Errorf("Add = %v, %v; want 9", v, err)
	}
	if !b.StaleRetried() || b.Waves() != 2 {
		t.Errorf("StaleRetried = %v after %d waves, want the refused wave and one retry", b.StaleRetried(), b.Waves())
	}
	if stale.Epoch() != admin.Epoch() {
		t.Errorf("the retry left the client's ring at epoch %d, the cluster is at %d", stale.Epoch(), admin.Epoch())
	}
	if got := counterAt(t, ec, "server-0", name).History(); !reflect.DeepEqual(got, []int64{9}) {
		t.Errorf("primary applied %v, want [9] exactly once", got)
	}
	owners, _ := admin.Owners(name)
	if got := shadowHistory(t, ec, owners[1], owners[0], name); !reflect.DeepEqual(got, []int64{9}) {
		t.Errorf("%s's shadow replayed %v, want [9]", owners[1], got)
	}
}

// TestQuorumErrorWireForm pins what a primary answers a flush whose wave
// missed its quorum with: the miss crosses the wire typed, and so does each
// follower's own refusal, down to a cause that was never registered (which
// arrives as the generic *wire.RemoteError carrying its message).
func TestQuorumErrorWireForm(t *testing.T) {
	miss := &cluster.QuorumError{Name: "kv-1", Acked: 1, Required: 3, Failed: []*cluster.FollowerError{
		{Endpoint: "server-2", Err: &cluster.StaleShipError{RecordEpoch: 4, NodeEpoch: 5}},
		{Endpoint: "server-3", Err: &cluster.ShipReplyError{Endpoint: "server-3", Sent: 1, Slots: -1}},
		{Endpoint: "server-1", Err: errors.New("dial refused")},
	}}
	got, err := wire.Marshal(miss)
	if err != nil {
		t.Fatal(err)
	}
	const want = "131c0408046b762d31040204060a03131d0208087365727665722d32131b0205040505131d0208087365727665722d33131e0308087365727665722d3304020401131d0208087365727665722d3110132a6572726f72732e6572726f72537472696e670c6469616c2072656675736564"
	if hex.EncodeToString(got) != want {
		t.Errorf("quorum miss encodes to\n  %x, want\n  %s", got, want)
	}
	// Captured before the standard type table, when the four cluster types
	// were defined by name: it still decodes, to the same miss, and it is
	// longer by exactly those definitions (tag, id, length, name).
	const named = "0d010e636c75737465722e51756f72756d0c010408046b762d31040204060a030d0215636c75737465722e466f6c6c6f7765724572726f720c020208087365727665722d320d0311636c75737465722e5374616c65536869700c0302050405050c020208087365727665722d330d0411636c75737465722e536869705265706c790c040308087365727665722d33040204010c020208087365727665722d3110132a6572726f72732e6572726f72537472696e670c6469616c2072656675736564"
	old, _ := hex.DecodeString(named)
	defs := 0
	for _, name := range []string{"cluster.Quorum", "cluster.FollowerError", "cluster.StaleShip", "cluster.ShipReply"} {
		defs += 3 + len(name)
	}
	if len(old)-len(got) != defs {
		t.Errorf("quorum miss is %d bytes, %d named: want %d fewer", len(got), len(old), defs)
	}
	back, err := wire.Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := wire.Unmarshal(old); err != nil || !reflect.DeepEqual(a, back) {
		t.Errorf("named quorum miss decoded to %+v, %v; want %+v", a, err, back)
	}
	qe, ok := back.(*cluster.QuorumError)
	if !ok || qe.Name != "kv-1" || qe.Acked != 1 || qe.Required != 3 || len(qe.Failed) != 3 {
		t.Fatalf("quorum miss decoded to %T %+v", back, back)
	}
	var stale *cluster.StaleShipError
	var reply *cluster.ShipReplyError
	var remote *wire.RemoteError
	if !errors.As(qe, &stale) || *stale != (cluster.StaleShipError{RecordEpoch: 4, NodeEpoch: 5}) ||
		!errors.As(qe, &reply) || reply.Slots != -1 ||
		!errors.As(qe.Failed[2], &remote) || !strings.Contains(remote.Message, "dial refused") {
		t.Errorf("decoded miss %v lost a follower's cause", qe)
	}
}
