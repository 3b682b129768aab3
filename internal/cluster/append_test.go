package cluster_test

// Replica.Append against input nobody vetted: one call carries many records,
// so one bad record must cost its own slot and nothing else.

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// malformed reports whether Append must refuse rec whatever its payload says.
func malformed(rec *cluster.ReplRecord) bool {
	return rec == nil || rec.Primary == "" || len(rec.Names) == 0 ||
		len(rec.Ifaces) != len(rec.Names) || rec.Payload == nil
}

// TestAppendSlotsAreIndependent: a nil entry, a record with no names, one
// whose interfaces are not parallel to its names, one with no payload and one
// behind the follower's ring epoch each fail THEIR slot — the stale one still
// as a *StaleShipError after crossing the wire — while the well-formed records
// before, between and after them apply, in slice order.
func TestAppendSlotsAreIndependent(t *testing.T) {
	ec := clustertest.New(t, 3)
	// A real membership change, so the ring is past epoch 0 and a record can
	// be behind it.
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints()[:2], cluster.WithReplication(2))
	ec.BindCounter(dir, "obj-0", 100)
	if _, err := cluster.NewRebalancer(dir).AddServer(context.Background(), "server-2"); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	owners, epoch := dir.Owners("obj-0")
	primary, follower := owners[0], ec.Server(owners[1])
	if epoch == 0 {
		t.Fatal("setup: the scale-out left the ring at epoch 0; no epoch is behind it")
	}

	good := func(delta int64) *cluster.ReplRecord {
		return &cluster.ReplRecord{
			Primary: primary, Epoch: epoch,
			Names: []string{"obj-0"}, Ifaces: []string{clustertest.CounterIface},
			Payload: shippedPayload(t, ec, primary, "obj-0", delta),
		}
	}
	bad := func(mutate func(*cluster.ReplRecord)) *cluster.ReplRecord {
		rec := good(1000)
		mutate(rec)
		return rec
	}
	recs := []*cluster.ReplRecord{
		good(1),
		nil,
		bad(func(r *cluster.ReplRecord) { r.Names, r.Ifaces = nil, nil }),
		bad(func(r *cluster.ReplRecord) { r.Ifaces = append(r.Ifaces, clustertest.CounterIface) }),
		good(2),
		bad(func(r *cluster.ReplRecord) { r.Payload = nil }),
		bad(func(r *cluster.ReplRecord) { r.Epoch = epoch - 1 }),
		good(3),
	}
	counter := func(name string) int64 { return follower.Stats.Snapshot().Counter(name) }
	ships, appends := counter("cluster.replica_ships"), counter("cluster.replica_appends")
	errs := appendTo(t, ec, follower.Endpoint, recs...)
	for i, rec := range recs {
		switch stale := rec != nil && rec.Epoch < epoch; {
		case stale:
			var sse *cluster.StaleShipError
			if !errors.As(errs[i], &sse) || sse.RecordEpoch != epoch-1 || sse.NodeEpoch != epoch {
				t.Errorf("slot %d (stale record) = %T %v, want *StaleShipError{%d behind %d}", i, errs[i], errs[i], epoch-1, epoch)
			}
		case malformed(rec):
			if errs[i] == nil {
				t.Errorf("slot %d: malformed record %+v was accepted", i, rec)
			}
		case errs[i] != nil:
			t.Errorf("slot %d: well-formed record refused beside its malformed siblings: %v", i, errs[i])
		}
	}
	shadow, ok := follower.Replica.Shadow(primary, "obj-0")
	if !ok {
		t.Fatal("no readable shadow of obj-0")
	}
	if got := shadow.(*clustertest.Counter).History(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("shadow replayed %v, want the three well-formed records in slice order [1 2 3]", got)
	}
	if ships, appends := counter("cluster.replica_ships")-ships, counter("cluster.replica_appends")-appends; ships != 1 || appends != 3 {
		t.Errorf("replica_ships +%d, replica_appends +%d; want 1 call, 3 records applied", ships, appends)
	}
}

// FuzzReplicaAppend feeds arbitrary bytes to the wire decoder and, when they
// decode to a list, hands it to a follower's Append through the same
// reflective dispatch a remote call takes. Nothing may panic — dispatch turns
// a panic into an error, which is reported here; a decoded list is never
// larger than its input allows; a list of records is answered slot for slot;
// a malformed record's slot is never nil; and a follower never dials anyone —
// not even for a payload that still carries a ship directive (the seed
// nested-directive). The seed corpus is the committed
// testdata/fuzz/FuzzReplicaAppend: the -no-id seeds are the others
// re-encoded in the record form without an ID, and the others, which no
// longer decode, stay as hostile input.
func FuzzReplicaAppend(f *testing.F) {
	ec := clustertest.New(f, 3)
	dir := placedDirectory(f, ec, map[string]int64{"obj-0": 100})
	owners, _ := dir.Owners("obj-0")
	follower := ec.Server(owners[1])
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		list, ok := msg.([]any)
		if !ok {
			return
		}
		// Every element costs at least one input byte.
		n := len(list)
		records := true
		for _, el := range list {
			switch rec := el.(type) {
			case nil:
			case *cluster.ReplRecord:
				n += len(rec.Names) + len(rec.Ifaces)
			default:
				records = false
			}
		}
		if n > len(data) {
			t.Fatalf("%d input bytes decoded to %d slice elements", len(data), n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		calls := follower.Peer.CallCount()
		res, err := follower.Peer.InvokeLocal(ctx, follower.Replica, "Append", []any{msg})
		if got := follower.Peer.CallCount() - calls; got != 0 {
			t.Fatalf("the follower made %d remote calls while appending", got)
		}
		if err != nil {
			if strings.Contains(err.Error(), "panic in") {
				t.Fatal(err)
			}
			if records {
				t.Fatalf("a list of %d records was refused whole: %v", len(list), err)
			}
			return
		}
		slots, ok := res[0].([]error)
		if !ok || len(slots) != len(list) {
			t.Fatalf("%d records answered with %v", len(list), res[0])
		}
		for i, el := range list {
			rec, _ := el.(*cluster.ReplRecord)
			if malformed(rec) && slots[i] == nil {
				t.Fatalf("slot %d: malformed record %+v was accepted", i, rec)
			}
		}
	})
}

// shortReplica answers every Append with no slots at all.
type shortReplica struct{ rmi.RemoteBase }

func (*shortReplica) Append([]*cluster.ReplRecord) []error { return nil }

// TestShortAppendAnswerFailsItsShipment: a follower whose answer cannot be
// matched to the records it was sent holds none of them as far as its primary
// can tell — the destination misses W=all with a *ShipReplyError for that
// follower (no index panic) that keeps its type all the way to the client,
// while the honest follower's ack counts.
func TestShortAppendAnswerFailsItsShipment(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	const rogue = "rogue"
	srv := rmi.NewPeer(ec.Network.Host(rogue), rmi.WithLogf(clustertest.SilentLogf))
	if err := srv.Serve(rogue); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := srv.ExportSystem(rmi.ReplicaObjID, &shortReplica{}, rmi.ReplicaIface); err != nil {
		t.Fatal(err)
	}
	// R=3 over three members: every name is owned by all of them. No
	// placement — the honest follower builds its shadow at first replay — so
	// the servers are told the membership directly: a primary ships only to
	// members of its own ring view.
	members := append(ec.Endpoints(), rogue)
	for _, s := range ec.Servers {
		if err := s.Node.SetRing(&cluster.RingSnapshot{Members: members}); err != nil {
			t.Fatal(err)
		}
	}
	dir := cluster.NewDirectory(ec.Client, members, cluster.WithReplication(3))
	name := ""
	for i := 0; name == ""; i++ {
		if n := "obj-" + strconv.Itoa(i); dir.Ring().Route(n) != rogue {
			name = n
		}
	}
	ec.BindCounter(dir, name, 0)

	b := cluster.New(ec.Client, cluster.WithDirectory(dir))
	p, err := b.RootNamed(ctx, name)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Call("Add", int64(1))
	err = b.Flush(ctx)
	var qe *cluster.QuorumError
	var sre *cluster.ShipReplyError
	if !errors.As(err, &qe) || qe.Acked != 2 || qe.Required != 3 {
		t.Fatalf("flush = %v, want a quorum miss at 2 of 3 (primary + the honest follower)", err)
	}
	if !errors.As(err, &sre) || *sre != (cluster.ShipReplyError{Endpoint: rogue, Sent: 1, Slots: 0}) {
		t.Errorf("quorum miss %v does not carry the rogue's *ShipReplyError{sent 1, slots 0}", err)
	}
	if _, err := f.Get(); !errors.As(err, &qe) {
		t.Errorf("future settled with %v, want the quorum miss", err)
	}
}
