package cluster_test

// The ship directive at the primary: it arrives from outside the server, so
// the primary vets it before it executes anything and before it dials anyone,
// and a directive fenced by a ring epoch behind the primary's is a stale route
// the flush may still retry.

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
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
// the primary; the well-formed one next to them executes and ships to the
// followers the primary picks itself.
func TestPrimaryVetsShipDirective(t *testing.T) {
	ec, _, primary, follower, bystander, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	corrupt, stale := new(*wire.CorruptError), new(*cluster.StaleShipError)
	ref, err := ps.Reg.Lookup("obj-0")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *core.ShipDirective
		want any // **wire.CorruptError or **cluster.StaleShipError
	}{
		{"a negative quorum", &core.ShipDirective{Epoch: epoch, Replication: 2, Quorum: -1}, corrupt},
		{"replication 0", &core.ShipDirective{Epoch: epoch}, corrupt},
		{"replication 1", &core.ShipDirective{Epoch: epoch, Replication: 1}, corrupt},
		{"an epoch behind the primary's ring", &core.ShipDirective{Epoch: epoch - 1, Replication: 2}, stale},
		// The primary's view is behind the directive's epoch: it has not seen
		// the ring the client routed by, so it cannot pick that ring's
		// followers — a stale ship, refused before the primary calls anyone.
		{"an epoch ahead of the primary's ring", &core.ShipDirective{Epoch: epoch + 1, Replication: 2}, stale},
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
	// A root replicates under the name it travels by: a wave that addresses
	// one by its id is refused the same way.
	byID := core.New(ec.Client, ref)
	byID.Ship(&core.ShipDirective{Epoch: epoch, Replication: 2})
	byID.Root().Call("Add", int64(1))
	if err := byID.Flush(ctx); !errors.As(err, corrupt) {
		t.Errorf("a root addressed by id: flush = %T %v, want *wire.CorruptError", err, err)
	}
	if got := counterAt(t, ec, primary, "obj-0").History(); len(got) != 0 {
		t.Errorf("the refused id-addressed wave executed: %v", got)
	}
	if got := replicaCounters(ec, "cluster.replica_ships"); got != 0 {
		t.Fatalf("followers served %d Append calls for refused waves", got)
	}

	// Well formed, at an R above the ring's 2: on three members every server
	// owns obj-0 at R=3, so the primary ships to both others.
	cb := core.NewNamed(ec.Client, primary, "obj-0")
	cb.Ship(&core.ShipDirective{Epoch: epoch, Replication: 3})
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
	// The bystander was never placed at R=2: its shadow is made at first
	// replay, unseeded.
	if si := ec.Server(bystander).Replica.ShardInfo(primary); len(si.Names) != 1 || si.Names[0] != (cluster.NameInfo{Name: "obj-0", Epoch: epoch, Applied: 1}) {
		t.Errorf("%s holds %+v of %s's shard, want obj-0's unseeded shadow with one record", bystander, si.Names, primary)
	}
	if got := replicaCounters(ec, "cluster.replica_ships"); got != 2 {
		t.Errorf("followers served %d Append calls, want one per follower = 2", got)
	}
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

// TestDirectiveOnSessionRefused: a replicated wave is self-contained, so a
// ship directive on a request that keeps its session, or on one that
// continues a session an earlier flush kept, is refused unexecuted with
// *wire.CorruptError — a follower replays each record on its own and would
// have nothing to resolve a chained wave against. The primary ships nothing.
func TestDirectiveOnSessionRefused(t *testing.T) {
	ec, _, primary, _, _, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	counter := counterAt(t, ec, primary, "obj-0")
	before, calls := len(counter.History()), ps.Peer.CallCount()
	var corrupt *wire.CorruptError

	kept := core.NewNamed(ec.Client, primary, "obj-0")
	kept.Ship(&core.ShipDirective{Epoch: epoch, Replication: 2})
	kept.Root().Call("Add", int64(1))
	if err := kept.FlushAndContinue(ctx); !errors.As(err, &corrupt) {
		t.Errorf("directive on a kept session = %T %v, want *wire.CorruptError", err, err)
	}

	chained := core.NewNamed(ec.Client, primary, "obj-0")
	chained.Root().Call("Add", int64(2))
	if err := chained.FlushAndContinue(ctx); err != nil {
		t.Fatalf("unshipped first wave: %v", err)
	}
	chained.Ship(&core.ShipDirective{Epoch: epoch, Replication: 2})
	chained.Root().Call("Add", int64(4))
	if err := chained.Flush(ctx); !errors.As(err, &corrupt) {
		t.Errorf("directive on a continued session = %T %v, want *wire.CorruptError", err, err)
	}

	if got := counter.History()[before:]; !reflect.DeepEqual(got, []int64{2}) {
		t.Errorf("obj-0 applied %v, want the unshipped wave's [2] only", got)
	}
	if n := ps.Peer.CallCount() - calls; n != 0 {
		t.Errorf("the primary made %d calls for refused waves, want none", n)
	}
}

// TestUnmovableRootFlushesUnreplicated: no follower could build a shadow of a
// root whose interface has no movable factory, so its chain executes, ships
// nothing and says so.
func TestUnmovableRootFlushesUnreplicated(t *testing.T) {
	ec, _, primary, _, _, epoch := directiveCluster(t)
	ctx := context.Background()
	ps := ec.Server(primary)
	ref, err := ps.Peer.Export(clustertest.NewCounter(0), "test.Unmovable")
	if err != nil {
		t.Fatal(err)
	}
	ps.Reg.Rebind("plain", ref)
	calls := ps.Peer.CallCount()
	cb := core.NewNamed(ec.Client, primary, "plain")
	cb.Ship(&core.ShipDirective{Epoch: epoch, Replication: 2})
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
	// The ship reply's endpoint repeats its follower's: a reference ("1402")
	// to the message's third string, "server-3". That string and "server-1"
	// say only what "server-2" before them did not: a delta ("150701")
	// keeping its first 7 bytes, and their last.
	const want = "131c0408046b762d31040204060a03131d0208087365727665722d32131b0205040505131d02" + "15070133" + "131e03" + "1402" + "04020401131d02" + "15070131" + "10132a6572726f72732e6572726f72537472696e670c6469616c2072656675736564"
	if hex.EncodeToString(got) != want {
		t.Errorf("quorum miss encodes to\n  %x, want\n  %s", got, want)
	}
	// Captured before the standard type table, when the four cluster types
	// were defined by name, and before strings were numbered: it still
	// decodes, to the same miss, and it is longer by exactly those
	// definitions (tag, id, length, name), the repeat it spells out (tag,
	// length, "server-3", where the reference is 2 bytes) and the two
	// endpoints it spells out whole (tag, length, 8 bytes, where the delta is
	// 4).
	const named = "0d010e636c75737465722e51756f72756d0c010408046b762d31040204060a030d0215636c75737465722e466f6c6c6f7765724572726f720c020208087365727665722d320d0311636c75737465722e5374616c65536869700c0302050405050c020208087365727665722d330d0411636c75737465722e536869705265706c790c040308087365727665722d33040204010c020208087365727665722d3110132a6572726f72732e6572726f72537472696e670c6469616c2072656675736564"
	old, _ := hex.DecodeString(named)
	defs := 2 + len("server-3") - 2 + 2*(2+len("server-3")-4)
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

// TestShipFollowsPlacement: a wave's followers and a placement's are one
// primary-side owner walk, so they agree by construction. On rings of 2 to 5
// members at R = 2..4 (R above the membership included), each of 64 names is
// placed and then written in a wave of its own: the servers its record
// reaches are exactly those Place seeded it at, its owners bar the primary.
// After a server joins, the next wave reaches the new epoch's followers and
// never a server that followed the name only at the old epoch.
func TestShipFollowsPlacement(t *testing.T) {
	ctx := context.Background()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("f-%d", i)
	}
	for n := 2; n <= 5; n++ {
		for r := 2; r <= 4; r++ {
			t.Run(fmt.Sprintf("members=%d/R=%d", n, r), func(t *testing.T) {
				ec := clustertest.New(t, n+1)
				dir := cluster.NewDirectory(ec.Client, ec.Endpoints()[:n], cluster.WithReplication(r))
				for _, name := range names {
					ec.BindCounter(dir, name, 0)
				}
				rb := cluster.NewRebalancer(dir)
				if _, err := rb.AddServer(ctx, ec.Endpoints()[0]); err != nil {
					t.Fatalf("placement: %v", err)
				}
				checkShipsFollowPlacement(t, ec, dir, names, nil)
				old := map[string][]string{}
				for _, name := range names {
					old[name], _ = dir.Owners(name)
				}
				if _, err := rb.AddServer(ctx, ec.Endpoints()[n]); err != nil {
					t.Fatalf("scale-out: %v", err)
				}
				checkShipsFollowPlacement(t, ec, dir, names, old)
			})
		}
	}
}

// checkShipsFollowPlacement writes each name in a replicated wave of its own
// and checks that the record reached exactly the servers the latest placement
// seeded the name at, which are its owners on dir's ring bar the primary —
// and, when old holds the owners at an earlier epoch, none of those that no
// longer own it.
func checkShipsFollowPlacement(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, names []string, old map[string][]string) {
	t.Helper()
	ctx := context.Background()
	epoch := dir.Epoch()
	seeded := map[string][]string{}
	before := replicasOf(ec, func(ep string, ni cluster.NameInfo) {
		if ni.Seeded && ni.SeedEpoch == epoch {
			seeded[ni.Name] = append(seeded[ni.Name], ep)
		}
	})
	for _, name := range names {
		b := cluster.New(ec.Client, cluster.WithDirectory(dir))
		p, err := b.RootNamed(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		p.Call("Add", int64(1))
		if err := b.Flush(ctx); err != nil {
			t.Fatalf("wave on %s: %v", name, err)
		}
	}
	reached := map[string][]string{}
	replicasOf(ec, func(ep string, ni cluster.NameInfo) {
		if ni.Applied > before[ep+"/"+ni.Name] {
			reached[ni.Name] = append(reached[ni.Name], ep)
		}
	})
	for _, name := range names {
		owners, _ := dir.Owners(name)
		want := slices.Sorted(slices.Values(owners[1:]))
		if got := slices.Sorted(slices.Values(seeded[name])); !slices.Equal(got, want) {
			t.Errorf("epoch %d: %s placed at %v, want its followers %v", epoch, name, got, want)
		}
		if got := slices.Sorted(slices.Values(reached[name])); !slices.Equal(got, want) {
			t.Errorf("epoch %d: %s's wave reached %v, want its followers %v", epoch, name, got, want)
		}
		for _, ep := range old[name] {
			if !slices.Contains(owners, ep) && slices.Contains(reached[name], ep) {
				t.Errorf("epoch %d: %s's wave reached %s, which followed it only before", epoch, name, ep)
			}
		}
	}
}

// replicasOf hands visit every shadow on every server, and returns how many
// records each applied, keyed "endpoint/name" and summed over the server's
// shards.
func replicasOf(ec *clustertest.Cluster, visit func(ep string, ni cluster.NameInfo)) map[string]int64 {
	applied := map[string]int64{}
	for _, ep := range ec.Endpoints() {
		for _, si := range ec.Server(ep).Replica.Survey("") {
			for _, ni := range si.Names {
				visit(ep, ni)
				applied[ep+"/"+ni.Name] += ni.Applied
			}
		}
	}
	return applied
}
