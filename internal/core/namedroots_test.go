package core_test

// Tests for name-addressed batch roots: the flush request's wire form (an
// id-addressed request is byte-for-byte what it was before root names
// existed), roots resolved in the serving peer's registry before anything
// executes, and a fuzz target over the request decoder and InvokeBatch.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

func getCall(seq, target int64) core.Invocation {
	return core.Invocation{Seq: seq, Target: target, Method: "Get", Kind: 1}
}

// The request shapes of the fuzz target's seed corpus, committed under
// testdata/fuzz/FuzzBatchRequest: id-addressed, name-addressed, mixed, and
// the two the decoder must refuse.
var (
	idRequest      = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}}
	namedRequest   = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget), getCall(1, core.RootTarget-1)}, Roots: []uint64{0}, Names: []string{"a", "ghost"}}
	mixedRoots     = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget-1)}, KeepSession: true, Roots: []uint64{0}, Names: []string{"", "b"}}
	shortNames     = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Roots: []uint64{0, 0}, Names: []string{"a", "b"}}
	idAndNameRoots = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}}
)

// The value-reference shapes of the seed corpus (value-ref*): a call that
// takes, by reference, the value an earlier call of the request returned, and
// three references the executor must fail the one call for — a later call, the
// call itself, a call numbered below the request's own.
var (
	valueRef          = &core.BatchRequest{Calls: []core.Invocation{bumpCall(0), restoreCall(1, 0)}, Names: []string{"a"}}
	valueRefForward   = &core.BatchRequest{Calls: []core.Invocation{restoreCall(0, 1), bumpCall(1)}, Names: []string{"a"}}
	valueRefSelf      = &core.BatchRequest{Calls: []core.Invocation{restoreCall(0, 0)}, Names: []string{"a"}}
	valueRefStaleWave = &core.BatchRequest{Calls: []core.Invocation{bumpCall(3), restoreCall(4, 1)}, Names: []string{"a"}}
)

func bumpCall(seq int64) core.Invocation {
	return core.Invocation{Seq: seq, Target: core.RootTarget, Method: "Bump", Kind: 1}
}

func restoreCall(seq, from int64) core.Invocation {
	return core.Invocation{Seq: seq, Target: core.RootTarget, Method: "Restore", Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: from}}}
}

// reservedSlotSetRequest is a chained multi-root request as a peer from
// before the executor kept one replay order encoded it with its
// parallel-roots flag set (captured at that commit): slot 5 of brmi.req
// reads true. It is committed as the fuzz seed reserved-slot-set.
const reservedSlotSetRequest = "0d010862726d692e7265710c010605100a020d020862726d692e696e760c020504080405080341646404020a010d030862726d692e6172670c0301040a0c0207040a0408080453656c6604040a010c030301030408040003050703030a02051105ac02"

// standardGoldenNames are the standard types (wire/standard.go) the wire
// goldens of this package and of cluster's directive test used to define by
// name.
var standardGoldenNames = []string{
	"brmi.req", "brmi.inv", "brmi.arg", "brmi.policy", "brmi.ship", "brmi.resp", "brmi.result",
	"brmi.getbatch.req", "cluster.Quorum", "cluster.FollowerError", "cluster.StaleShip",
}

// checkStandardForm holds a golden to the standard type table's promise:
// named, the capture from before the table, still decodes to what the
// encoder's bytes got decode to, and got is shorter by exactly what named
// spent defining standard types — a kTypeDef tag, an id, a name length and
// the name, once per type.
func checkStandardForm(t *testing.T, named string, got []byte) {
	t.Helper()
	old := mustHex(t, named)
	saved := 0
	for _, name := range standardGoldenNames {
		if bytes.Contains(old, []byte(name)) {
			saved += 3 + len(name)
		}
	}
	if len(old)-len(got) != saved {
		t.Errorf("standard form is %d bytes, named form %d: saved %d, want %d", len(got), len(old), len(old)-len(got), saved)
	}
	a, err := wire.Unmarshal(old)
	if err != nil {
		t.Fatalf("named form %s: %v", named, err)
	}
	if b, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(a, b) {
		t.Errorf("named form decodes to %+v, standard form to %+v (%v)", a, b, err)
	}
}

// TestBatchRequestIDAddressedWireParity pins the compatibility promise: a
// request without root names encodes to exactly the bytes it did before the
// Names field existed (captured at the parent commit), less the named
// definitions of its protocol types the standard type table removed — the
// captures from before the table (named) still decode to the same request —
// so old and new peers agree on every id-addressed flush.
func TestBatchRequestIDAddressedWireParity(t *testing.T) {
	chained := &core.BatchRequest{Root: 16, Calls: []core.Invocation{
		{Seq: 4, Target: core.RootTarget - 2, Method: "Add", Kind: 1, Args: []core.BatchArg{{Val: int64(5)}}},
		{Seq: 5, Target: 4, Method: "Self", Kind: 2, Args: []core.BatchArg{{IsRef: true, Seq: 4}}, Export: true},
	}, Session: 7, KeepSession: true, Roots: []uint64{17, 300}}
	for _, c := range []struct {
		req         *core.BatchRequest
		want, named string
	}{
		{idRequest, "13020205100a011303040400040108034765740402",
			"0d010862726d692e7265710c010205100a010d020862726d692e696e760c02040400040108034765740402"},
		// The capture of this shape had the parallel-roots flag set
		// (reservedSlotSetRequest). The flag is gone, the slot is reserved and
		// always false: ONE byte differs, the slot's bool after the session and
		// keep-session fields ("...05070303..." became "...05070302...").
		{chained, "13020605100a0213030504080405080341646404020a01130401040a130307040a0408080453656c6604040a0113040301030408040003050703020a02051105ac02",
			"0d010862726d692e7265710c010605100a020d020862726d692e696e760c020504080405080341646404020a010d030862726d692e6172670c0301040a0c0207040a0408080453656c6604040a010c030301030408040003050703020a02051105ac02"},
		{&core.BatchRequest{Root: 16, Roots: []uint64{17}, Policy: core.ContinuePolicy()},
			"130207051001050002020a010511130c0404040104060406",
			"0d010862726d692e7265710c0107051001050002020a0105110d020b62726d692e706f6c6963790c020404040104060406"},
		{&core.BatchRequest{}, "130200", "0d010862726d692e7265710c0100"},
	} {
		got, err := wire.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("id-addressed request %+v encodes to\n  %x, want\n  %s", c.req, got, c.want)
		}
		checkStandardForm(t, c.named, got)
		back, err := wire.Unmarshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if r, ok := back.(*core.BatchRequest); !ok || r.Names != nil || r.Root != c.req.Root || len(r.Calls) != len(c.req.Calls) {
			t.Errorf("id-addressed request decoded to %+v", back)
		}
	}
	// Decode-only: the bytes with the old flag set still decode, to the same
	// request as without it.
	old, err := hex.DecodeString(reservedSlotSetRequest)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := wire.Unmarshal(old); err != nil || !reflect.DeepEqual(back, chained) {
		t.Errorf("request with the reserved slot set decoded to %+v, %v; want %+v", back, err, chained)
	}
	// So is the reply to one: no Roots field.
	got, err := wire.Marshal(&core.BatchResponse{Session: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130502010503"; hex.EncodeToString(got) != want {
		t.Errorf("id-addressed reply encodes to %x, want %s", got, want)
	}
	checkStandardForm(t, "0d010962726d692e726573700c0102010503", got)
}

// TestBatchRequestReservedSlotExecutes: a request that arrives with the
// reserved slot set (an old peer's parallel-roots opt-in) decodes to the
// request without it and replays in recording order across its two roots.
func TestBatchRequestReservedSlotExecutes(t *testing.T) {
	env := newGetbatchEnv(t)
	req := &core.BatchRequest{Calls: []core.Invocation{
		{Seq: 0, Target: core.RootTarget, Method: "Bump", Kind: 1},
		{Seq: 1, Target: core.RootTarget - 1, Method: "Bump", Kind: 1},
		{Seq: 2, Target: core.RootTarget, Method: "Get", Kind: 1},
	}, Roots: []uint64{0}, Names: []string{"a", "b"}}
	data, err := wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Session 0, keep-session false, reserved false, one extra root with id 0.
	slots := []byte{0x05, 0x00, 0x02, 0x02, 0x0a, 0x01, 0x05, 0x00}
	at := bytes.LastIndex(data, slots)
	if at < 0 {
		t.Fatalf("request bytes %x do not hold the slots %x", data, slots)
	}
	data[at+3] = 0x03
	msg, err := wire.Unmarshal(data)
	if err != nil || !reflect.DeepEqual(msg, req) {
		t.Fatalf("request with the reserved slot set decoded to %+v, %v; want %+v", msg, err, req)
	}
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	res, err := env.client.Call(context.Background(), exec, "InvokeBatch", msg)
	if err != nil {
		t.Fatal(err)
	}
	resp := res[0].(*core.BatchResponse)
	if len(resp.Results) != 3 {
		t.Fatalf("answered %d results, want 3", len(resp.Results))
	}
	for i, want := range []int64{11, 21, 11} {
		if r := resp.Results[i]; r.Err != nil || r.Value != want {
			t.Errorf("call %d = %v, %v; want %d", i, r.Value, r.Err, want)
		}
	}
}

func TestBatchRequestNamesRoundTrip(t *testing.T) {
	for _, req := range []*core.BatchRequest{namedRequest, mixedRoots} {
		b, err := wire.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := wire.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Errorf("round trip of %+v = %+v", req, back)
		}
	}
	resp := &core.BatchResponse{Roots: []wire.Ref{{}, {Endpoint: "here", ObjID: 17, Iface: "test.Gauge"}}}
	b, err := wire.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := wire.Unmarshal(b); err != nil || !reflect.DeepEqual(back, resp) {
		t.Errorf("round trip of %+v = %+v, %v", resp, back, err)
	}
}

// TestBatchRequestDecoderRejectsBadNames: names that are not parallel to the
// roots, or a position addressed both ways, never reach the executor.
func TestBatchRequestDecoderRejectsBadNames(t *testing.T) {
	for _, req := range []*core.BatchRequest{shortNames, idAndNameRoots} {
		b, err := wire.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var corrupt *wire.CorruptError
		if back, err := wire.Unmarshal(b); !errors.As(err, &corrupt) {
			t.Errorf("request %+v decoded to %+v, %v; want *wire.CorruptError", req, back, err)
		}
	}
}

// TestNamedRootsResolveInFirstFlush: one round trip carries the names, the
// serving peer resolves them in its own registry, the reply hands back the
// refs — and the chain's next flush goes out id-addressed: a name re-bound
// in between is not resolved again.
func TestNamedRootsResolveInFirstFlush(t *testing.T) {
	env := newGetbatchEnv(t)
	ctx := context.Background()
	b := core.NewNamed(env.client, getbatchHere, "a")
	a := b.Root()
	bp, err := b.AddRootNamed("b")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := b.AddRootNamed("b"); again.RootRef() != bp.RootRef() || a.RootRef().ObjID != 0 {
		t.Fatalf("before the flush: roots %v and %v, want unresolved and deduplicated", a.RootRef(), bp.RootRef())
	}
	fa, fb := a.Call("Get"), bp.Call("Bump")
	before := env.client.CallCount()
	if err := b.FlushAndContinue(ctx); err != nil {
		t.Fatal(err)
	}
	if va, _ := core.Typed[int64](fa).Get(); va != 10 {
		t.Errorf("a.Get = %d, want 10", va)
	}
	if vb, _ := core.Typed[int64](fb).Get(); vb != 21 {
		t.Errorf("b.Bump = %d, want 21", vb)
	}
	for name, p := range map[string]*core.Proxy{"a": a, "b": bp} {
		if ref := p.RootRef(); ref.ObjID != env.ids[name] || ref.Endpoint != getbatchHere || ref.Iface != "test.Gauge" {
			t.Errorf("root %s resolved to %v, want object %d here", name, ref, env.ids[name])
		}
	}
	impostor, err := env.server.Export(&gauge{v: 1000}, "test.Gauge")
	if err != nil {
		t.Fatal(err)
	}
	env.reg.Rebind("b", impostor)
	fb = bp.Call("Bump")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if vb, _ := core.Typed[int64](fb).Get(); vb != 22 {
		t.Errorf("chained b.Bump = %d, want 22: the chain's second flush addresses the root it resolved, by id", vb)
	}
	if got := env.client.CallCount() - before; got != 2 {
		t.Errorf("two flushes cost %d remote calls, want 2: resolution must ride the flush", got)
	}
}

// TestNamedRootReplyOmitsEndpoint: the reply to a name-addressed flush hands
// back what each name resolved to without the endpoint — the client called
// that endpoint and rebuilds the ref from it (TestNamedRootsResolveInFirstFlush
// checks the rebuilt refs) — and the ids, zero at an id-addressed position,
// stay parallel to the request's names.
func TestNamedRootReplyOmitsEndpoint(t *testing.T) {
	env := newGetbatchEnv(t)
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	req := &core.BatchRequest{Root: env.ids["a"], Calls: []core.Invocation{getCall(0, core.RootTarget-1)}, Roots: []uint64{0}, Names: []string{"", "b"}}
	res, err := env.client.Call(context.Background(), exec, "InvokeBatch", req)
	if err != nil {
		t.Fatal(err)
	}
	want := []wire.Ref{{}, {ObjID: env.ids["b"], Iface: "test.Gauge"}}
	if got := res[0].(*core.BatchResponse).Roots; !reflect.DeepEqual(got, want) {
		t.Errorf("reply roots = %+v, want %+v", got, want)
	}
	// The wire form (kStd brmi.resp, 4 fields: no results, session 0, no
	// restarts, and Roots): two kRefs, the first zero, the second object 17
	// of "test.Gauge" — each with a zero-length endpoint where a "server-N"
	// costs 9 bytes.
	got, err := wire.Marshal(&core.BatchResponse{Roots: []wire.Ref{{}, {ObjID: 17, Iface: "test.Gauge"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130504" + "01" + "0500" + "0400" + "0a02" + "0e000000" + "0e00110a" + hex.EncodeToString([]byte("test.Gauge")); hex.EncodeToString(got) != want {
		t.Errorf("reply with resolved roots encodes to\n  %x, want\n  %s", got, want)
	}
}

// fakeBatchService answers every flush with the roots it is told to, parallel
// to the request's names or not.
type fakeBatchService struct {
	rmi.RemoteBase
	roots []wire.Ref
}

func (f *fakeBatchService) InvokeBatch(_ context.Context, req *core.BatchRequest) (*core.BatchResponse, error) {
	return &core.BatchResponse{Results: make([]core.CallResult, len(req.Calls)), Roots: f.roots}, nil
}

// TestNamedRootReplyNotParallelFails: a reply that resolves a different
// number of roots than the request named fails the flush with a BatchError.
func TestNamedRootReplyNotParallelFails(t *testing.T) {
	env := newGetbatchEnv(t)
	const fake = "fake-batch"
	srv := rmi.NewPeer(env.network, rmi.WithLogf(silentLogf))
	if err := srv.Serve(fake); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := srv.ExportSystem(rmi.BatchObjID, &fakeBatchService{roots: []wire.Ref{{ObjID: 16}}}, rmi.BatchIface); err != nil {
		t.Fatal(err)
	}
	b := core.NewNamed(env.client, fake, "a")
	if _, err := b.AddRootNamed("b"); err != nil {
		t.Fatal(err)
	}
	b.Root().Call("Get")
	var be *core.BatchError
	if err := b.Flush(context.Background()); !errors.As(err, &be) {
		t.Errorf("flush answered with one root for two names: %v, want a *BatchError", err)
	}
}

// TestNamedRootMissRejectsUnexecuted: any name the serving peer cannot
// resolve to a local object refuses the whole flush before its first call.
func TestNamedRootMissRejectsUnexecuted(t *testing.T) {
	env := newGetbatchEnv(t)
	ctx := context.Background()
	for _, miss := range []string{"ghost", "far"} {
		b := core.NewNamed(env.client, getbatchHere, "a")
		bumped := b.Root().Call("Bump")
		if _, err := b.AddRootNamed(miss); err != nil {
			t.Fatal(err)
		}
		err := b.Flush(ctx)
		var notBound *registry.NotBoundError
		var elsewhere *core.ElsewhereError
		switch {
		case miss == "ghost" && (!errors.As(err, &notBound) || notBound.Name != "ghost"):
			t.Errorf("flush with an unbound root = %v, want *registry.NotBoundError", err)
		case miss == "far" && (!errors.As(err, &elsewhere) || elsewhere.Ref != env.farRef):
			t.Errorf("flush with a root bound elsewhere = %v, want *core.ElsewhereError carrying %v", err, env.farRef)
		}
		if _, err := bumped.Get(); err == nil {
			t.Errorf("call on the resolvable root settled although %q rejected the flush", miss)
		}
	}
	entries, err := env.read(&core.GetBatchRequest{ObjIDs: []uint64{env.ids["a"]}, Indexes: []int64{0}, Method: "Get"})
	if err != nil || len(entries) != 1 || entries[0].Value != int64(10) {
		t.Errorf("a = %v, %v after two rejected flushes; want the untouched 10", entries, err)
	}
}

// FuzzBatchRequest feeds arbitrary bytes to the flush request decoder and,
// when they decode to a request over the environment's gauges, executes it.
// Nothing may panic (a panic in the serving goroutine takes the process down,
// which the fuzzer reports); a decoded request is never larger than its
// input allows; names that are not parallel to the roots, or a position
// addressed both by id and by name, never decode; and an executed request is
// answered call for call, with a ref for every name. The serving peer runs the
// cluster's replication service over the ring {here, there} at epoch 3, so a
// request's ship directive — decoded, like everything else, from the input —
// is vetted by the real primary-side checks: the wave of a refused one never
// executes, and the well-formed seed's ship to the absent "there" ends in a
// quorum miss. A push list never decodes pointing outside the request's peers,
// on a call that returns no single value, or outside a flush, and a push to
// the serving peer itself is refused before anything executes; a request whose
// calls wait for pushed values is decoded but not executed — nobody pushes
// them. What the decode allocates follows the input, not the counts it claims.
// The seed corpus is the committed testdata/fuzz/FuzzBatchRequest plus a
// request claiming more calls than it carries.
func FuzzBatchRequest(f *testing.F) {
	f.Add(inflated(flushRequestCalls, 1<<12))
	env := newGetbatchEnv(f)
	node, err := cluster.StartNode(env.server, env.reg, nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := node.SetRing(&cluster.RingSnapshot{Members: []string{getbatchHere, "there"}, Epoch: 3}); err != nil {
		f.Fatal(err)
	}
	if _, err := cluster.StartReplica(env.server, env.reg, node, env.exec); err != nil {
		f.Fatal(err)
	}
	cluster.RegisterMovable("test.Gauge", func() rmi.Remote { return &gauge{} })
	gauges := map[uint64]bool{}
	for _, id := range env.ids {
		gauges[id] = true
	}
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, alloc, err := decodeAlloc(data)
		if alloc > allocBound(data) {
			t.Fatalf("%d input bytes made the decode allocate %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		req, ok := msg.(*core.BatchRequest)
		if !ok {
			return
		}
		// Every element costs at least one input byte.
		n := len(req.Calls) + len(req.Roots) + len(req.Names) + len(req.Peers)
		waits := false
		for _, c := range req.Calls {
			n += len(c.Args) + len(c.Push)
			for _, a := range c.Args {
				waits = waits || a.Pushed
			}
			for _, at := range c.Push {
				if at < 0 || at >= int64(len(req.Peers)) || c.Kind != 1 || c.CursorOwner != 0 || req.Flush == 0 {
					t.Fatalf("decoded a push to peer %d of %d on a kind-%d call, flush %d", at, len(req.Peers), c.Kind, req.Flush)
				}
			}
		}
		if d := req.Ship; d != nil {
			n += len(d.Followers) + len(d.Names)
			for _, list := range d.Followers {
				n += len(list)
			}
		}
		if n > len(data) {
			t.Fatalf("%d input bytes decoded to %d slice elements", len(data), n)
		}
		if len(req.Names) != 0 && len(req.Names) != 1+len(req.Roots) {
			t.Fatalf("decoded %d names for %d roots", len(req.Names), 1+len(req.Roots))
		}
		// Execute only against the gauges: a hostile request may as well name
		// the registry or the executor itself as its root, and what those do
		// when called is not this target's subject.
		for i, id := range append([]uint64{req.Root}, req.Roots...) {
			named := len(req.Names) != 0 && req.Names[i] != ""
			if named && id != 0 {
				t.Fatalf("root %d decoded with id %d and name %q", i, id, req.Names[i])
			}
			if !named && !gauges[id] {
				return
			}
		}
		if req.Session != 0 || waits {
			return
		}
		bumps := env.bumps()
		res, err := env.client.Call(ctx, exec, "InvokeBatch", req)
		if err != nil {
			var corrupt *wire.CorruptError
			var stale *cluster.StaleShipError
			if (errors.As(err, &corrupt) || errors.As(err, &stale)) && env.bumps() != bumps {
				t.Fatalf("request %+v was refused with %v after it executed", req, err)
			}
			return
		}
		resp, ok := res[0].(*core.BatchResponse)
		if !ok {
			t.Fatalf("InvokeBatch answered %T", res[0])
		}
		if len(resp.Results) != len(req.Calls) || len(resp.Roots) != len(req.Names) {
			t.Fatalf("request %+v answered with %d results and %d refs", req, len(resp.Results), len(resp.Roots))
		}
		if err := core.ReleaseSession(ctx, env.client, getbatchHere, resp.Session); err != nil {
			t.Fatalf("release session %d: %v", resp.Session, err)
		}
	})
}

// The directive-carrying request shapes of the fuzz target's seed corpus: a
// well-formed one, and three the serving peer's replication service must
// refuse before it executes anything (fuzzEnv's ring is {here, there}: member
// 0 is the primary itself, member 1 its one follower, and there is no 2).
var (
	shipRequest      = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Followers: [][]int{{1}}, Epoch: 3, Quorum: 2}}
	shipOutsider     = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Followers: [][]int{{2}}, Epoch: 3}}
	shipSelf         = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Followers: [][]int{{0}}, Epoch: 3}}
	shipNotParallel  = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Followers: [][]int{{1}, {1}}, Epoch: 3}}
	shipIDAddressed  = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}, Ship: &core.ShipDirective{Followers: [][]int{{1}}, Epoch: 3, Names: []string{"a"}}}
	// shipRequestBytes' directive (from "1307") is kStd 7 (brmi.ship) with 3
	// fields: Followers [[1]] — the one follower as member index 1, kInt 1
	// ("0402") where its endpoint was a kString "there" ("08057468657265")
	// — then epoch 3 and quorum 2.
	shipRequestBytes = "13020905000a0113030404000401080347657404020500020201010a010801611307030a010a01040205030404"
	// shipRequestNamed is shipRequest as encoded before the standard type
	// table — brmi.req, brmi.inv and brmi.ship defined by name — with the
	// follower re-encoded as its member index, as in shipRequestBytes.
	shipRequestNamed = "0d010862726d692e7265710c010905000a010d020862726d692e696e760c020404000401080347657404020500020201010a010801610d030962726d692e736869700c03030a010a01040205030404"
)

// TestShipDirectiveWireForm pins the one trailing field a replicated flush
// adds to its request — a request without a directive is byte-identical to
// what it was before the field existed (TestBatchRequestIDAddressedWireParity)
// — and the one its reply adds.
func TestShipDirectiveWireForm(t *testing.T) {
	got, err := wire.Marshal(shipRequest)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != shipRequestBytes {
		t.Errorf("request with a ship directive encodes to\n  %x, want\n  %s", got, shipRequestBytes)
	}
	checkStandardForm(t, shipRequestNamed, got)
	for _, req := range []*core.BatchRequest{shipRequest, shipIDAddressed} {
		data, err := wire.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := wire.Unmarshal(data); err != nil || !reflect.DeepEqual(back, req) {
			t.Errorf("request %+v decoded to %+v, %v", req, back, err)
		}
	}
	got, err = wire.Marshal(&core.BatchResponse{Session: 3, ShipNs: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if want := "13050501050304000a0004b817"; hex.EncodeToString(got) != want {
		t.Errorf("reply to a shipped wave encodes to %x, want %s", got, want)
	}
	checkStandardForm(t, "0d010962726d692e726573700c010501050304000a0004b817", got)
	if back, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(back, &core.BatchResponse{Session: 3, ShipNs: 1500}) {
		t.Errorf("reply to a shipped wave decoded to %+v, %v", back, err)
	}
	// And a reply whose wave missed its quorum: the results, and the miss,
	// typed down to the follower's own refusal.
	missed := &core.BatchResponse{Results: []core.CallResult{{Seq: 0, Value: int64(7)}}, ShipNs: 1500, ShipErr: &cluster.QuorumError{
		Name: "a", Acked: 1, Required: 2, Failed: []*cluster.FollowerError{{Endpoint: "there", Err: &cluster.StaleShipError{RecordEpoch: 3, NodeEpoch: 4}}}}}
	got, err = wire.Marshal(missed)
	if err != nil {
		t.Fatal(err)
	}
	if want := "1305060a011306020400040e050004000a0004b817131c04080161040204040a01131d0208057468657265131b0205030504"; hex.EncodeToString(got) != want {
		t.Errorf("reply carrying a quorum miss encodes to\n  %x, want\n  %s", got, want)
	}
	checkStandardForm(t, "0d010962726d692e726573700c01060a010d020b62726d692e726573756c740c02020400040e050004000a0004b8170d030e636c75737465722e51756f72756d0c0304080161040204040a010d0415636c75737465722e466f6c6c6f7765724572726f720c0402080574686572650d0511636c75737465722e5374616c65536869700c050205030504", got)
	var stale *cluster.StaleShipError
	if back, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(back, missed) || !errors.As(back.(*core.BatchResponse).ShipErr, &stale) {
		t.Errorf("reply carrying a quorum miss decoded to %+v, %v", back, err)
	}
	// A directive slot holding anything but a directive never decodes: in
	// the standard form (kStd 7, brmi.ship, becomes kStd 13, brmi.rule) and
	// in the named one.
	var corrupt *wire.CorruptError
	for _, bad := range [][]byte{
		bytes.Replace(mustHex(t, shipRequestBytes), []byte{0x13, 7}, []byte{0x13, 13}, 1),
		bytes.Replace(mustHex(t, shipRequestNamed), []byte("brmi.ship"), []byte("brmi.rule"), 1),
	} {
		if back, err := wire.Unmarshal(bad); !errors.As(err, &corrupt) {
			t.Errorf("request %x with a rule in its directive slot decoded to %+v, %v; want *wire.CorruptError", bad, back, err)
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayShadowDropsShipDirective: a follower handed a payload that still
// carries a ship directive — only a rogue primary would send one — replays it
// and ships nothing: the hook is never consulted for a shadow replay.
func TestReplayShadowDropsShipDirective(t *testing.T) {
	env := newGetbatchEnv(t)
	hooked := 0
	env.exec.SetShipHook(func(*core.Wave) (core.ShipFunc, error) { hooked++; return nil, nil })
	payload := &core.BatchRequest{Calls: []core.Invocation{{Seq: 0, Target: core.RootTarget, Method: "Bump", Kind: 1}}, Names: []string{"a"}, Ship: shipRequest.Ship}
	if _, n, err := env.exec.ReplayShadow(context.Background(), payload, env.ids["b"], nil, 0); err != nil || n != 1 {
		t.Fatalf("replay = %d calls, %v", n, err)
	}
	if hooked != 0 {
		t.Errorf("the ship hook was consulted %d times for a shadow replay", hooked)
	}
	if payload.Ship == nil {
		t.Error("the replay mutated the payload it was handed")
	}
	entries, err := env.read(&core.GetBatchRequest{ObjIDs: []uint64{env.ids["b"]}, Indexes: []int64{0}, Method: "Get"})
	if err != nil || len(entries) != 1 || entries[0].Value != int64(21) {
		t.Errorf("b = %v, %v after the replay; want 21: the substitute root bumped once", entries, err)
	}
	// The same request, arriving as a flush, does reach the hook.
	if _, err := env.client.Call(context.Background(), rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface), "InvokeBatch", shipRequest); err != nil || hooked != 1 {
		t.Errorf("flush with a directive: %v, hook consulted %d times, want once", err, hooked)
	}
}

// TestShipDirectiveNeedsReplicationService: a directive reaching an executor
// with no ship hook is refused, nothing executed.
func TestShipDirectiveNeedsReplicationService(t *testing.T) {
	env := newGetbatchEnv(t)
	b := core.NewNamed(env.client, getbatchHere, "a")
	b.Ship(shipRequest.Ship)
	bumped := b.Root().Call("Bump")
	if err := b.Flush(context.Background()); err == nil {
		t.Fatal("flush with a directive succeeded on a peer that runs no replication service")
	}
	if _, err := bumped.Get(); err == nil {
		t.Error("the call settled with a value")
	}
	entries, err := env.read(&core.GetBatchRequest{ObjIDs: []uint64{env.ids["a"]}, Indexes: []int64{0}, Method: "Get"})
	if err != nil || len(entries) != 1 || entries[0].Value != int64(10) {
		t.Errorf("a = %v, %v after the refused flush; want the untouched 10", entries, err)
	}
}
