package core_test

// Tests for name-addressed batch roots: the flush request's wire form (a root
// position travels as its export id or as its name), roots resolved in the
// serving peer's registry before anything executes, and a fuzz target over
// the request decoder and the executor.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

func getCall(seq, target int64) core.Invocation {
	return core.Invocation{Seq: seq, Target: target, Method: "Get", Kind: 1}
}

// The request shapes of the fuzz target's seed corpus, committed under
// testdata/fuzz/FuzzBatchRequest: id-addressed, name-addressed and mixed.
// The two the decoder must refuse are bytes no encoder writes (badRoots).
var (
	idRequest    = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}}
	namedRequest = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget), getCall(1, core.RootTarget-1)}, Roots: []uint64{0}, Names: []string{"a", "ghost"}}
	mixedRoots   = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget-1)}, KeepSession: true, Roots: []uint64{0}, Names: []string{"", "b"}}
)

// badRoots are the seeds id-and-name and names-not-parallel: a root position
// is an export id or a name, and these hold neither — the root an empty
// name, the second extra root a nil. (Before a position was one field, the
// seeds held a root addressed both ways and names not parallel to the roots,
// shapes the current form cannot write.)
var badRoots = map[string]string{
	"id-and-name":        "0d010862726d692e7265710c0102" + "0a010d020962726d692e63616c6c0c02010803476574" + "0800",
	"names-not-parallel": "0d010862726d692e7265710c0104" + "0a010d020962726d692e63616c6c0c02010803476574" + "080161" + "0500" + "0a02" + "080162" + "01",
}

// The value-reference shapes of the seed corpus (value-ref*): a call that
// takes, by reference, the value an earlier call of the request returned, and
// three references the executor must fail the one call for — a later call, the
// call itself, a call numbered below the request's own. Numbers are positions
// (request_test.go): the stale wave's calls 3 and 4 arrive as 0 and 1, so its
// reference to call 1 names the referencing call, which fails the same way.
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

// reservedSlotSetCapture is a chained multi-root request as a peer from
// before the executor kept one replay order encoded it with its
// parallel-roots flag set (captured at that commit): slot 5 of brmi.req
// reads true. reservedSlotSetRequest is the same request with its calls in
// the positional form (brmi.call, by-value argument bare), the fuzz seed
// reserved-slot-set until a flush became the call, when the seed became the
// same request in the current form and the slot went.
const (
	reservedSlotSetCapture = "0d010862726d692e7265710c010605100a020d020862726d692e696e760c020504080405080341646404020a010d030862726d692e6172670c0301040a0c0207040a0408080453656c6604040a010c030301030408040003050703030a02051105ac02"
	reservedSlotSetRequest = "0d010862726d692e7265710c010605100a020d020962726d692e63616c6c0c020308034164640a01040a04040c0208080453656c660a010d030862726d692e6172670c0303010304080409040204000a00040003050703030a02051105ac02"
)

// standardGoldenNames are the standard types (wire/standard.go) the wire
// goldens of this package and of cluster's directive test used to define by
// name.
var standardGoldenNames = []string{
	"brmi.req", "brmi.inv", "brmi.call", "brmi.arg", "brmi.policy", "brmi.ship", "brmi.resp", "brmi.result",
	"brmi.getbatch.req", "cluster.Quorum", "cluster.FollowerError", "cluster.StaleShip",
}

// checkStandardForm holds a golden to the standard type table's promise:
// named, the capture from before the table, still decodes to what the
// encoder's bytes got decode to, and got is shorter by exactly what named
// spent defining standard types — a kTypeDef tag, an id, a name length and
// the name, once per type.
func checkStandardForm(t *testing.T, named string, got []byte) {
	t.Helper()
	checkShorterForm(t, named, got, 0)
}

// checkRetiredForm holds a request golden's capture in a retired form — its
// calls brmi.inv, from before requests were positional, or its ship directive
// listing followers, from before the primary picked them — to that form's
// retirement: it is refused, typed.
func checkRetiredForm(t *testing.T, capture string) {
	t.Helper()
	var corrupt *wire.CorruptError
	if v, err := wire.Unmarshal(mustHex(t, capture)); !errors.As(err, &corrupt) {
		t.Errorf("request in the retired form %s decoded to %+v, %v; want *wire.CorruptError", capture, v, err)
	}
}

// checkShorterForm is checkStandardForm for a message that also dropped
// envelope bytes of its own since the named capture: it must be shorter by
// the names it saved plus exactly that envelope.
func checkShorterForm(t *testing.T, named string, got []byte, envelope int) {
	t.Helper()
	old := mustHex(t, named)
	saved := envelope
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

// TestBatchRequestIDAddressedWireParity pins the id-addressed request forms.
// A flush is a bare brmi.req whose fields lead with its calls and its root
// (encBatchRequest), so a single-root flush costs its calls and its root id
// and nothing else. Every capture from before — the root first, the calls
// positional (old) or in the retired brmi.inv (named) — is refused, typed;
// only the empty request, which has no fields, reads the same in either.
func TestBatchRequestIDAddressedWireParity(t *testing.T) {
	// A chain's second flush: the session numbers its calls 4 and 5, the
	// decoder by position 0 and 1. The reference names call 4 — the first.
	chained := &core.BatchRequest{Root: 16, Calls: []core.Invocation{
		{Target: core.RootTarget - 2, Method: "Add", Kind: 1, Args: []core.BatchArg{{Val: int64(5)}}},
		{Seq: 1, Target: 4, Method: "Self", Kind: 2, Args: []core.BatchArg{{IsRef: true, Seq: 4}}},
	}, Session: 7, KeepSession: true, Roots: []uint64{17, 300}}
	for _, c := range []struct {
		req              *core.BatchRequest
		want, old, named string
	}{
		// The one call is its header, kStd 40 (brmi.call) with one field,
		// and its method; then root 16.
		{idRequest, "130202" + "0a01" + "132801" + "0803476574" + "0510",
			"13020205100a01" + "132801" + "0803476574",
			"0d010862726d692e7265710c010205100a010d020862726d692e696e760c02040400040108034765740402"},
		// Root 16, the session word 15 — session 7, kept — and the extra
		// roots 17 and 300. The old form's reserved slot is gone.
		{chained, "130204" + "0a02" + "13280308034164640a01040a0404" +
			"132804080453656c660a01130403010304080409" + "0402" +
			"0510" + "050f" + "0a02051105ac02",
			"13020605100a02" + "13280308034164640a01040a0404" +
				"132808080453656c660a0113040301030408040904020400" + "0a000400" + "03" +
				"0507" + "03" + "02" + "0a02051105ac02",
			reservedSlotSetCapture},
		// No calls, root 16, session word 0, the extra root 17, no directive,
		// flush 0, no peers, and the policy.
		{&core.BatchRequest{Root: 16, Roots: []uint64{17}, Policy: core.ContinuePolicy()},
			"130208" + "01" + "0510" + "0500" + "0a010511" + "01" + "0500" + "0a00" + "130c0404040104060406",
			"130207051001050002020a010511130c0404040104060406",
			"0d010862726d692e7265710c0107051001050002020a0105110d020b62726d692e706f6c6963790c020404040104060406"},
	} {
		got, err := wire.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != c.want {
			t.Errorf("id-addressed request %+v encodes to\n  %x, want\n  %s", c.req, got, c.want)
		}
		checkRetiredForm(t, c.old)
		checkRetiredForm(t, c.named)
		back, err := wire.Unmarshal(got)
		if err != nil || !reflect.DeepEqual(back, c.req) {
			t.Errorf("id-addressed request decoded to %+v, %v; want %+v", back, err, c.req)
		}
	}
	// The request without calls or root has no fields in either order.
	got, err := wire.Marshal(&core.BatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130200"; hex.EncodeToString(got) != want {
		t.Errorf("empty request encodes to %x, want %s", got, want)
	}
	checkStandardForm(t, "0d010862726d692e7265710c0100", got)
	checkRetiredForm(t, reservedSlotSetRequest)
	// The reply to a chain's flush: no results, then session 3.
	if got, err = wire.Marshal(&core.BatchResponse{Session: 3}); err != nil {
		t.Fatal(err)
	}
	if want := "130502" + "01" + "0503"; hex.EncodeToString(got) != want {
		t.Errorf("id-addressed reply encodes to %x, want %s", got, want)
	}
}

// TestBatchRequestOldOrderRefused: the two forms a flush had before it became
// the call are refused, unexecuted. A flush sent as the InvokeBatch call it
// was is answered NoSuchMethod: the executor has no such method any more, and
// the capture of one (the seed old-call-envelope) carries its request root
// first, which does not decode. A bare request in that order (the seed
// old-field-order) is refused at the serving peer's decoder.
func TestBatchRequestOldOrderRefused(t *testing.T) {
	env := newGetbatchEnv(t)
	ctx := context.Background()
	bumps := env.bumps()
	bump := &core.BatchRequest{Calls: []core.Invocation{bumpCall(0)}, Names: []string{"a"}}
	exec := rmi.SystemRef(getbatchHere, rmi.BatchObjID, rmi.BatchIface)
	var noMethod *rmi.NoSuchMethodError
	if _, err := env.client.Call(ctx, exec, "InvokeBatch", bump); !errors.As(err, &noMethod) {
		t.Errorf("a flush as an InvokeBatch call = %v, want *rmi.NoSuchMethodError", err)
	}
	checkRetiredForm(t, hex.EncodeToString(seedBytes(t, "FuzzBatchRequest", "old-call-envelope")))
	old := seedBytes(t, "FuzzBatchRequest", "old-field-order")
	checkRetiredForm(t, hex.EncodeToString(old))
	pool := transport.NewPool(env.network)
	t.Cleanup(func() { _ = pool.Close() })
	if reply, err := pool.Call(ctx, getbatchHere, old); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("a request root first was answered %x, %v; want a refusal of its bytes", reply, err)
	}
	if env.bumps() != bumps {
		t.Error("a request in a retired form executed")
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

// TestBatchRequestDecoderRejectsBadNames: a root position that is neither an
// export id nor a name never reaches the executor.
func TestBatchRequestDecoderRejectsBadNames(t *testing.T) {
	for name, bad := range badRoots {
		if !bytes.Equal(seedBytes(t, "FuzzBatchRequest", name), mustHex(t, bad)) {
			t.Errorf("seed %s is not %s", name, bad)
		}
		var corrupt *wire.CorruptError
		if back, err := wire.Unmarshal(mustHex(t, bad)); !errors.As(err, &corrupt) {
			t.Errorf("%s decoded to %+v, %v; want *wire.CorruptError", name, back, err)
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

// TestNamedRootReplyOmitsEndpoint: the reply to a named chain's flush hands
// back what each name resolved to without the endpoint — the client called
// that endpoint and rebuilds the ref from it (TestNamedRootsResolveInFirstFlush
// checks the rebuilt refs) — and the ids, zero at an id-addressed position,
// stay parallel to the request's names. A flush that keeps no session is told
// nothing: it never addresses its roots again.
func TestNamedRootReplyOmitsEndpoint(t *testing.T) {
	env := newGetbatchEnv(t)
	ctx := context.Background()
	req := &core.BatchRequest{Root: env.ids["a"], Calls: []core.Invocation{getCall(0, core.RootTarget-1)}, Roots: []uint64{0}, Names: []string{"", "b"}}
	res, err := env.client.Send(ctx, getbatchHere, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.(*core.BatchResponse).Roots; got != nil {
		t.Errorf("reply to a flush that keeps no session carries roots %+v", got)
	}
	req.KeepSession = true
	if res, err = env.client.Send(ctx, getbatchHere, req); err != nil {
		t.Fatal(err)
	}
	want := []wire.Ref{{}, {ObjID: env.ids["b"], Iface: "test.Gauge"}}
	if got := res.(*core.BatchResponse).Roots; !reflect.DeepEqual(got, want) {
		t.Errorf("reply roots = %+v, want %+v", got, want)
	}
	if _, err := env.client.Send(ctx, getbatchHere, &core.BatchRequest{Session: res.(*core.BatchResponse).Session}); err != nil {
		t.Fatal(err)
	}
	// The wire form (kStd brmi.resp, 5 fields: no results, session 0, no
	// ship lag, no ship error, and Roots): two kRefs, the first zero, the second object 17
	// of "test.Gauge" — each with a zero-length endpoint where a "server-N"
	// costs 9 bytes.
	got, err := wire.Marshal(&core.BatchResponse{Roots: []wire.Ref{{}, {ObjID: 17, Iface: "test.Gauge"}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130505" + "01" + "0500" + "0400" + "01" + "0a02" + "0e000000" + "0e00110a" + hex.EncodeToString([]byte("test.Gauge")); hex.EncodeToString(got) != want {
		t.Errorf("reply with resolved roots encodes to\n  %x, want\n  %s", got, want)
	}
}

// TestNamedRootReplyNotParallelFails: a reply that resolves a different
// number of roots than a named chain's request named fails the flush with a
// BatchError.
func TestNamedRootReplyNotParallelFails(t *testing.T) {
	env := newGetbatchEnv(t)
	const fake = "fake-batch"
	srv := rmi.NewPeer(env.network, rmi.WithLogf(silentLogf))
	if err := srv.Serve(fake); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	// The fake executor answers every flush with one root, whatever it named.
	srv.HandleMessage("brmi.req", func(_ context.Context, msg any) (any, error) {
		req := msg.(*core.BatchRequest)
		return &core.BatchResponse{Results: make([]core.CallResult, len(req.Calls)), Roots: []wire.Ref{{ObjID: 16}}, Session: 1}, nil
	})
	b := core.NewNamed(env.client, fake, "a")
	if _, err := b.AddRootNamed("b"); err != nil {
		t.Fatal(err)
	}
	b.Root().Call("Get")
	var be *core.BatchError
	if err := b.FlushAndContinue(context.Background()); !errors.As(err, &be) {
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
// executes, one at a replication degree below 2 never runs at all, and the
// well-formed seed's ship to the absent "there" ends in a quorum miss. A
// flush id never decodes other than 56 bits with bit 55 set; a push list never
// decodes pointing outside the request's peers, on a call that returns no
// single value, or outside a flush, and a push to the serving peer itself is
// refused before anything executes; the push forms from before the request's
// push column (the corpus's push-out-of-range, push-to-self, push-cursor and
// push-non-value) never decode; a request whose calls wait for pushed values
// is decoded but not executed — nobody pushes them. Lent roots
// never decode more than the request's extra roots, nor addressed by name.
// What the decode allocates follows the input, not the counts it claims. The
// seed corpus is the committed testdata/fuzz/FuzzBatchRequest plus a request
// claiming more calls than it carries.
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
	exec := getbatchHere
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
		if req.Flush != 0 && req.Flush>>55 != 1 {
			t.Fatalf("decoded flush id %#x, not 56 bits with bit 55 set", req.Flush)
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
				if at < 0 || at >= int64(len(req.Peers)) || c.Kind == 3 || c.CursorOwner != 0 || req.Flush == 0 {
					t.Fatalf("decoded a push to peer %d of %d on a kind-%d call, flush %d", at, len(req.Peers), c.Kind, req.Flush)
				}
			}
		}
		if n > len(data) {
			t.Fatalf("%d input bytes decoded to %d slice elements", len(data), n)
		}
		if len(req.Names) != 0 && len(req.Names) != 1+len(req.Roots) {
			t.Fatalf("decoded %d names for %d roots", len(req.Names), 1+len(req.Roots))
		}
		if req.Lends != nil && len(req.Lends) != len(req.Roots) {
			t.Fatalf("decoded %d lent marks for %d extra roots", len(req.Lends), len(req.Roots))
		}
		for i, lent := range req.Lends {
			if lent && len(req.Names) != 0 && req.Names[1+i] != "" {
				t.Fatalf("decoded lent root %d addressed by name %q", i, req.Names[1+i])
			}
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
		res, err := env.client.Send(ctx, exec, req)
		if err != nil {
			var corrupt *wire.CorruptError
			var stale *cluster.StaleShipError
			if (errors.As(err, &corrupt) || errors.As(err, &stale)) && env.bumps() != bumps {
				t.Fatalf("request %+v was refused with %v after it executed", req, err)
			}
			return
		}
		if d := req.Ship; d != nil && d.Replication < 2 {
			t.Fatalf("request %+v ran with a directive at replication %d", req, d.Replication)
		}
		resp, ok := res.(*core.BatchResponse)
		if !ok {
			t.Fatalf("the flush was answered %T", res)
		}
		// Only a chain is told what its names resolved to.
		roots := 0
		if req.KeepSession {
			roots = len(req.Names)
		}
		if len(resp.Results) != len(req.Calls) || len(resp.Roots) != roots {
			t.Fatalf("request %+v answered with %d results and %d refs", req, len(resp.Results), len(resp.Roots))
		}
		// A keep-session request left its session open: close it, executing
		// nothing.
		if resp.Session == 0 {
			return
		}
		if _, err := env.client.Send(ctx, exec, &core.BatchRequest{Session: resp.Session}); err != nil {
			t.Fatalf("release session %d: %v", resp.Session, err)
		}
	})
}

// The directive-carrying request shapes of the fuzz target's seed corpus: a
// well-formed one, and two the serving peer's replication service must refuse
// before it executes anything (fuzzEnv's ring is {here, there} at epoch 3, so
// at R=2 "there" follows every name).
var (
	shipRequest        = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Epoch: 3, Replication: 2, Quorum: 2}}
	shipReplicationOne = &core.BatchRequest{Calls: []core.Invocation{getCall(0, core.RootTarget)}, Names: []string{"a"}, Ship: &core.ShipDirective{Epoch: 3, Replication: 1}}
	shipIDAddressed    = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}, Ship: &core.ShipDirective{Epoch: 3, Replication: 2}}
	// shipRequestBytes is the call, the root named "a", session word 0, no
	// extra roots, and the directive (from "1307"): kStd 7 (brmi.ship) with
	// 3 fields, epoch 3 ("0503"), replication 2 and quorum 2 ("0404" each).
	shipRequestBytes = "130205" + "0a011328010803476574" + "080161" + "0500" + "01" + "130703050304040404"
	// shipRequestNamed is shipRequest as encoded before the standard type
	// table — brmi.req, brmi.call and brmi.ship defined by name — with the
	// call in the positional form, the directive in the current one, and the
	// root first: refused since a flush became the call.
	shipRequestNamed = "0d010862726d692e7265710c010905000a010d020962726d692e63616c6c0c020108034765740500020201010a010801610d030962726d692e736869700c0303050304040404"
	// shipOldFormBytes and shipOldFormNamed are shipRequestBytes and
	// shipRequestNamed as a client sent them while it picked the followers
	// itself: the directive's leading field the follower lists, here [[1]]
	// ("0a010a010402", member index 1), then epoch 3 and quorum 2. The first
	// is the fuzz seed ship-old-form.
	shipOldFormBytes = "130205" + "0a011328010803476574" + "080161" + "0500" + "01" + "1307030a010a01040205030404"
	shipOldFormNamed = "0d010862726d692e7265710c010905000a010d020962726d692e63616c6c0c020108034765740500020201010a010801610d030962726d692e736869700c03030a010a01040205030404"
)

// TestShipDirectiveWireForm pins the field a replicated flush adds to its
// request, after its calls and roots, and the two its reply adds after its
// results.
func TestShipDirectiveWireForm(t *testing.T) {
	got, err := wire.Marshal(shipRequest)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != shipRequestBytes {
		t.Errorf("request with a ship directive encodes to\n  %x, want\n  %s", got, shipRequestBytes)
	}
	checkRetiredForm(t, shipRequestNamed)
	// A directive that lists its followers is from before the primary picked
	// them: refused, typed, in either form, so its wave never runs.
	checkRetiredForm(t, shipOldFormBytes)
	checkRetiredForm(t, shipOldFormNamed)
	for _, req := range []*core.BatchRequest{shipRequest, shipIDAddressed} {
		data, err := wire.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := wire.Unmarshal(data); err != nil || !reflect.DeepEqual(back, req) {
			t.Errorf("request %+v decoded to %+v, %v", req, back, err)
		}
	}
	// The reply's ship lag, 1500 µs, follows its (here nil) results and the
	// session 0 a wave never keeps.
	got, err = wire.Marshal(&core.BatchResponse{ShipUs: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130503" + "01" + "0500" + "04b817"; hex.EncodeToString(got) != want {
		t.Errorf("reply to a shipped wave encodes to %x, want %s", got, want)
	}
	if back, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(back, &core.BatchResponse{ShipUs: 1500}) {
		t.Errorf("reply to a shipped wave decoded to %+v, %v", back, err)
	}
	// And a reply whose wave missed its quorum: the results, and the miss,
	// typed down to the follower's own refusal. The one result is a plain
	// success, so it is its bare value ("040e", 7). The named capture, from
	// before results were positional and the ship outcome followed the
	// session, put restarts and roots between: it no longer decodes.
	missed := &core.BatchResponse{Results: []core.CallResult{{Value: int64(7)}}, ShipUs: 1500, ShipErr: &cluster.QuorumError{
		Name: "a", Acked: 1, Required: 2, Failed: []*cluster.FollowerError{{Endpoint: "there", Err: &cluster.StaleShipError{RecordEpoch: 3, NodeEpoch: 4}}}}}
	got, err = wire.Marshal(missed)
	if err != nil {
		t.Fatal(err)
	}
	if want := "130504" + "0a01040e" + "0500" + "04b817" + "131c04080161040204040a01131d0208057468657265131b0205030504"; hex.EncodeToString(got) != want {
		t.Errorf("reply carrying a quorum miss encodes to\n  %x, want\n  %s", got, want)
	}
	if back, err := wire.Unmarshal(mustHex(t, "0d010962726d692e726573700c01060a010d020b62726d692e726573756c740c02020400040e050004000a0004b8170d030e636c75737465722e51756f72756d0c0304080161040204040a010d0415636c75737465722e466f6c6c6f7765724572726f720c0402080574686572650d0511636c75737465722e5374616c65536869700c050205030504")); err == nil {
		t.Errorf("the reply's capture from before the ship outcome followed the results decoded to %+v", back)
	}
	var stale *cluster.StaleShipError
	if back, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(back, missed) || !errors.As(back.(*core.BatchResponse).ShipErr, &stale) {
		t.Errorf("reply carrying a quorum miss decoded to %+v, %v", back, err)
	}
	// A directive slot holding anything but a directive never decodes (kStd
	// 7, brmi.ship, becomes kStd 13, brmi.rule).
	var corrupt *wire.CorruptError
	bad := bytes.Replace(mustHex(t, shipRequestBytes), []byte{0x13, 7}, []byte{0x13, 13}, 1)
	if back, err := wire.Unmarshal(bad); !errors.As(err, &corrupt) {
		t.Errorf("request %x with a rule in its directive slot decoded to %+v, %v; want *wire.CorruptError", bad, back, err)
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
	if n, err := env.exec.ReplayShadow(context.Background(), payload, env.ids["b"], nil); err != nil || n != 1 {
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
	if _, err := env.client.Send(context.Background(), getbatchHere, shipRequest); err != nil || hooked != 1 {
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
