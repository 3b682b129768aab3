package core_test

// Positional requests: a flush request's calls are numbered by their place,
// a call on the batch root that returns a value spells out neither, and a
// by-value argument travels as its bare value. The tests pin the bytes of
// every call shape, the numbering of a continued session's calls, and the
// refusal of the call form from before (brmi.inv).

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// requestShapes are the call shapes of a flush request, each alone in a
// request rooted at export id 16, with the bytes of the call: a brmi.call
// header ("1328" + field count), its method, then its fields up to the last
// that is not zero — Args, Target (0 for the root, 1+i for extra root i,
// -1-s for batch object s), Kind (0 value, 1 remote, 2 cursor), two retired
// slots (0 and an empty list), CursorOwner. A reference argument is a
// brmi.arg ("1304" + field count: a nil value, IsRef, Seq), a pushed one a
// brmi.pushed ("132b01" and the tag: 5 B); a by-value one is bare. A call
// that pushes its result is written exactly as one that does not: its tag
// and push list travel in the request's push column.
var requestShapes = []struct {
	name  string
	call  core.Invocation
	want  string
	flush bool // the call pushes: its request names a flush and a peer
	lent  bool // the call's target is a lent root: its request lends root 17
}{
	{"root value call with by-value args",
		core.Invocation{Method: "Add", Target: core.RootTarget, Kind: 1, Args: []core.BatchArg{{Val: int64(5)}, {Val: "x"}}},
		"132802" + "0803416464" + "0a02" + "040a" + "080178", false, false},
	{"root value call without args",
		core.Invocation{Method: "Get", Target: core.RootTarget, Kind: 1},
		"132801" + "0803476574", false, false},
	{"call on an extra root",
		core.Invocation{Method: "Get", Target: core.RootTarget - 2, Kind: 1},
		"132803" + "0803476574" + "01" + "0404", false, false},
	{"CallBatch",
		core.Invocation{Method: "Self", Target: core.RootTarget, Kind: 2},
		"132804" + "080453656c66" + "01" + "0400" + "0402", false, false},
	{"ref argument",
		core.Invocation{Method: "Add", Target: core.RootTarget, Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 3}}},
		"132802" + "0803416464" + "0a01" + "130403" + "01" + "03" + "0406", false, false},
	{"pushed argument",
		core.Invocation{Method: "Add", Target: core.RootTarget, Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 5, Pushed: true}}},
		"132802" + "0803416464" + "0a01" + "132b01" + "040a", false, false},
	{"producer with Tag and Push",
		core.Invocation{Method: "Get", Target: core.RootTarget, Kind: 1, Tag: 5, Push: []int64{0}},
		"132801" + "0803476574", true, false},
	{"remote producer with Tag and Push",
		core.Invocation{Method: "Self", Target: core.RootTarget, Kind: 2, Tag: 5, Push: []int64{0}},
		"132804" + "080453656c66" + "01" + "0400" + "0402", true, false},
	{"lent root",
		core.Invocation{Method: "Get", Target: core.RootTarget - 1, Kind: 1},
		"132803" + "0803476574" + "01" + "0402", false, true},
	{"cursor-owned call",
		core.Invocation{Method: "Name", Target: 7, Kind: 1, CursorOwner: 8},
		"132807" + "08044e616d65" + "01" + "040f" + "0400" + "0400" + "0a00" + "0410", false, false},
}

// TestRequestCallShapes pins each call shape's bytes inside its request, and
// that the request decodes back to the call, numbered 0.
func TestRequestCallShapes(t *testing.T) {
	for _, c := range requestShapes {
		t.Run(c.name, func(t *testing.T) {
			req := &core.BatchRequest{Root: 16, Calls: []core.Invocation{c.call}}
			// brmi.req with two fields: a slice of one call, root 16.
			want := "130202" + "0a01" + c.want + "0510"
			if c.flush {
				req.Flush, req.Peers = 1<<55|9, []string{"p"}
				// Three fields: then, in the session word's slot, the flush
				// field — 13 bytes: flush 2^55+9 in 7, one peer, "p" (its
				// length and byte), then the call's 3 B in the push column:
				// call 0 (no call skipped), tag 5 zigzagged, peer 0 and no
				// other.
				want = "130203" + "0a01" + c.want + "0510" + "090d" + "80000000000009" + "01" + "0170" + "000a00"
			}
			if c.lent {
				req.Roots, req.Lends = []uint64{17}, []bool{true}
				// Four fields: then the session word 0 and the extra root 17,
				// lent: its id under the signed-integer tag, zigzagged.
				want = "130204" + "0a01" + c.want + "0510" + "0500" + "0a010422"
			}
			got, err := wire.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got) != want {
				t.Errorf("encodes to\n  %x, want\n  %s", got, want)
			}
			back, err := wire.Unmarshal(got)
			if err != nil || !reflect.DeepEqual(back, req) {
				t.Errorf("decodes to %+v, %v; want %+v", back, err, req)
			}
		})
	}
}

// TestFlushFieldTakesTheSessionSlot: a request of a cluster flush carries its
// flush field where a chain's session word would go, so it keeps and
// continues no session — one that tries is refused at the client. A request
// that only consumes pushed values ends its flush field at the id (9 B), and
// one that also carries a policy writes the two retired slots before it as 0
// and an empty list, and decodes back whole.
func TestFlushFieldTakesTheSessionSlot(t *testing.T) {
	consumer := []core.Invocation{{Method: "Add", Target: core.RootTarget, Kind: 1, Args: []core.BatchArg{{IsRef: true, Seq: 5, Pushed: true}}}}
	for _, req := range []*core.BatchRequest{
		{Root: 16, Calls: consumer, Flush: 1<<55 | 9, KeepSession: true},
		{Root: 16, Calls: consumer, Flush: 1<<55 | 9, Session: 3},
		{Root: 16, Calls: consumer, Flush: 1 << 63},
		{Root: 16, Calls: consumer, Peers: []string{"p"}},
	} {
		if got, err := wire.Marshal(req); err == nil {
			t.Errorf("request %+v encoded to %x, want refused", req, got)
		}
	}
	req := &core.BatchRequest{Root: 16, Calls: consumer, Flush: 1<<55 | 9}
	got, err := wire.Marshal(req)
	// Three fields: the consumer, root 16, and the flush field, 7 bytes.
	if want := "130203" + "0a01" + "1328020803416464" + "0a01132b01040a" + "0510" + "0907" + "80000000000009"; err != nil || hex.EncodeToString(got) != want {
		t.Errorf("consumer's request encodes to\n  %x (%v), want\n  %s", got, err, want)
	}
	req.Policy = core.ContinuePolicy()
	got, err = wire.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, fields, err := wire.Fields(got, 0)
	if err != nil || len(fields) != 8 {
		t.Fatalf("request with a policy has fields %v, %v; want 8", fields, err)
	}
	if retired := got[fields[5].Off : fields[6].Off+fields[6].Len]; hex.EncodeToString(retired) != "05000a00" {
		t.Errorf("retired slots hold %x, want 05000a00", retired)
	}
	if back, err := wire.Unmarshal(got); err != nil || !reflect.DeepEqual(back, req) {
		t.Errorf("decodes to %+v, %v; want %+v", back, err, req)
	}
}

// TestRequestNumbersByPosition: a call's number is not on the wire. A request
// whose calls were numbered 0, 7, 8 encodes exactly like one numbered 0, 1,
// 2; a continued session's calls 5 and 6 travel as a first request's would,
// and decode numbered 0 and 1 — the server renumbers them.
func TestRequestNumbersByPosition(t *testing.T) {
	calls := func(seqs ...int64) []core.Invocation {
		var out []core.Invocation
		for _, s := range seqs {
			out = append(out, core.Invocation{Seq: s, Method: "Get", Target: core.RootTarget, Kind: 1})
		}
		return out
	}
	gapped, err := wire.Marshal(&core.BatchRequest{Root: 16, Calls: calls(0, 7, 8)})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := wire.Marshal(&core.BatchRequest{Root: 16, Calls: calls(0, 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gapped, dense) {
		t.Errorf("numbers reach the wire:\n  %x\n  %x", gapped, dense)
	}
	continued, err := wire.Marshal(&core.BatchRequest{Calls: calls(5, 6), Session: 7, KeepSession: true})
	if err != nil {
		t.Fatal(err)
	}
	// brmi.req with three fields: two calls, root 0, and the session word
	// 15: session 7, kept. The second call's method repeats the first's, a
	// 2-byte reference ("1400") to the message's first string.
	if want := "130203" + "0a02" + "1328010803476574" + "132801" + "1400" + "0500" + "050f"; hex.EncodeToString(continued) != want {
		t.Errorf("continued session's request encodes to\n  %x, want\n  %s", continued, want)
	}
	back, err := wire.Unmarshal(continued)
	if err != nil {
		t.Fatal(err)
	}
	// The same request with the repeat spelt out, as it was written before
	// strings were numbered, decodes to the same value.
	literal, _ := hex.DecodeString("130203" + "0a02" + "1328010803476574" + "1328010803476574" + "0500" + "050f")
	if old, err := wire.Unmarshal(literal); err != nil || !reflect.DeepEqual(old, back) {
		t.Errorf("the literal form decodes to %+v, %v; want %+v", old, err, back)
	}
	for i, c := range back.(*core.BatchRequest).Calls {
		if c.Seq != int64(i) {
			t.Errorf("decoded call %d numbered %d: the decoder numbers by position", i, c.Seq)
		}
	}
}

// TestContinuedSessionNumbersFromWhereItLeftOff: the server numbers a
// continued session's calls after the chain's earlier ones. The second
// request's last call takes, by reference, the value of call 2 — its own
// first call, the chain's third, which answers the counter's length 3 —
// where a server numbering from 0 would see a reference to a later call and
// fail it unresolved.
func TestContinuedSessionNumbersFromWhereItLeftOff(t *testing.T) {
	fx := newFixture(t)
	c, ref := exportCounter(t, fx)
	exec := "server"
	add := func(arg core.BatchArg) core.Invocation {
		return core.Invocation{Target: core.RootTarget, Method: "Add", Kind: 1, Args: []core.BatchArg{arg}}
	}
	invoke := func(req *core.BatchRequest) *core.BatchResponse {
		t.Helper()
		res, err := fx.client.Send(context.Background(), exec, req)
		if err != nil {
			t.Fatal(err)
		}
		return res.(*core.BatchResponse)
	}
	first := invoke(&core.BatchRequest{Root: ref.ObjID, KeepSession: true, Calls: []core.Invocation{add(core.BatchArg{Val: int64(1)}), add(core.BatchArg{Val: int64(2)})}})
	second := invoke(&core.BatchRequest{Session: first.Session, Calls: []core.Invocation{add(core.BatchArg{Val: int64(30)}), add(core.BatchArg{IsRef: true, Seq: 2})}})
	for i, r := range second.Results {
		if want := int64(3 + i); r.Err != nil || r.Value != want {
			t.Errorf("continued call %d = %v, %v; want %d", i, r.Value, r.Err, want)
		}
	}
	if want := []int64{1, 2, 30, 3}; !reflect.DeepEqual(c.vals, want) {
		t.Errorf("counter saw %v, want %v", c.vals, want)
	}
}

// oldFormRequest is idRequest with its one call as encoded before requests
// were positional: a brmi.inv ("1303") spelling out Seq 0, the root target,
// "Get" and the value kind.
const oldFormRequest = "1302020a01" + "130304" + "0400" + "0401" + "0803476574" + "0402" + "0510"

// TestOldFormRequestRefused: brmi.inv is retired. A request that carries one
// is refused whole, typed, and so is a brmi.inv on its own; the encoder never
// writes one.
func TestOldFormRequestRefused(t *testing.T) {
	var corrupt *wire.CorruptError
	for _, msg := range []string{oldFormRequest, "130300"} {
		b, err := hex.DecodeString(msg)
		if err != nil {
			t.Fatal(err)
		}
		if v, err := wire.Unmarshal(b); !errors.As(err, &corrupt) {
			t.Errorf("%s decoded to %+v, %v; want *wire.CorruptError", msg, v, err)
		}
	}
	if !bytes.Equal(seedBytes(t, "FuzzBatchRequest", "old-form"), mustHex(t, oldFormRequest)) {
		t.Errorf("seed old-form is not the old-form request %s", oldFormRequest)
	}
}

// The seeds of FuzzBatchRequest's corpus for the positional forms: a by-value
// argument, a call on an extra root of an all-named request (whose zero id
// column is omitted).
var (
	bareArgRequest   = &core.BatchRequest{Calls: []core.Invocation{{Method: "Restore", Target: core.RootTarget, Kind: 1, Args: []core.BatchArg{{Val: int64(7)}}}, getCall(1, core.RootTarget)}, Names: []string{"a"}}
	extraRootRequest = &core.BatchRequest{Calls: []core.Invocation{{Method: "Bump", Target: core.RootTarget - 1, Kind: 1}, getCall(1, core.RootTarget)}, Roots: []uint64{0}, Names: []string{"a", "b"}}
)

// TestPositionalRequestSeeds: the bare-arg and extra-root seeds are the
// encoder's bytes, and executed they answer as the requests say.
func TestPositionalRequestSeeds(t *testing.T) {
	env := newGetbatchEnv(t)
	exec := getbatchHere
	for _, tc := range []struct {
		name string
		req  *core.BatchRequest
		want []any
	}{
		{"extra-root", extraRootRequest, []any{int64(21), int64(10)}},
		{"bare-arg", bareArgRequest, []any{nil, int64(7)}},
	} {
		name := tc.name
		seed := seedBytes(t, "FuzzBatchRequest", name)
		if got, err := wire.Marshal(tc.req); err != nil || !bytes.Equal(got, seed) {
			t.Errorf("seed %s holds %x, the encoder says %x (%v)", name, seed, got, err)
		}
		if back, err := wire.Unmarshal(seed); err != nil || !reflect.DeepEqual(back, tc.req) {
			t.Errorf("seed %s decodes to %+v, %v", name, back, err)
		}
		res, err := env.client.Send(context.Background(), exec, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range res.(*core.BatchResponse).Results {
			if r.Err != nil || r.Value != tc.want[i] {
				t.Errorf("%s: call %d = %v, %v; want %v", name, i, r.Value, r.Err, tc.want[i])
			}
		}
	}
}

// The lent-root seeds of FuzzBatchRequest's corpus. Each lent root travels
// as its id under the signed-integer tag. lent-roots is a request on the
// root named "a" that lends export id 16 — one of the two gauges — and 999,
// which the serving peer does not hold, and then adds 17, the other gauge,
// as an ordinary root. lent-batch-root is a request whose batch root, 16,
// travels under that tag: the batch root is never lent. The seeds of the
// form before — lent-root, lent-too-many and lent-named — end in a lent-root
// count, a ninth field the decoder skips: they lend nothing.
var (
	lentRootsRequest = &core.BatchRequest{
		Calls: []core.Invocation{getCall(0, core.RootTarget), getCall(1, core.RootTarget-1),
			getCall(2, core.RootTarget-2), getCall(3, core.RootTarget-3)},
		Roots: []uint64{16, 999, 17}, Names: []string{"a", "", "", ""}, Lends: []bool{true, true, false}}
	lentBatchRoot = &core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget)}}
)

// TestLentRootSeeds: lent-roots is the encoder's bytes and decodes back; it
// runs whole: a lent root the serving peer holds serves its call, one it does
// not fails only its own, typed, and the ordinary root after them serves its
// own. lent-batch-root is the encoder's bytes of a request on root 16 with the
// root's tag swapped, and never decodes. The seeds of the form before decode,
// lending nothing, so the old lent-root is refused whole for the 999 it
// names. A lent root costs what an ordinary extra root costs but for the
// zigzag's byte, and a request lending nothing writes no signed id.
func TestLentRootSeeds(t *testing.T) {
	env := newGetbatchEnv(t)
	seed := seedBytes(t, "FuzzBatchRequest", "lent-roots")
	if got, err := wire.Marshal(lentRootsRequest); err != nil || !bytes.Equal(got, seed) {
		t.Errorf("seed lent-roots holds %x, the encoder says %x (%v)", seed, got, err)
	}
	if back, err := wire.Unmarshal(seed); err != nil || !reflect.DeepEqual(back, lentRootsRequest) {
		t.Errorf("seed lent-roots decodes to %+v, %v", back, err)
	}
	plainRoot, err := wire.Marshal(lentBatchRoot)
	if err != nil {
		t.Fatal(err)
	}
	seed = seedBytes(t, "FuzzBatchRequest", "lent-batch-root")
	if want := bytes.Replace(plainRoot, mustHex(t, "0510"), mustHex(t, "0420"), 1); !bytes.Equal(seed, want) {
		t.Errorf("seed lent-batch-root holds %x, want %x", seed, want)
	}
	var corrupt *wire.CorruptError
	if back, err := wire.Unmarshal(seed); !errors.As(err, &corrupt) {
		t.Errorf("seed lent-batch-root decoded to %+v, %v; want *wire.CorruptError", back, err)
	}
	for _, name := range []string{"lent-root", "lent-too-many", "lent-named"} {
		back, err := wire.Unmarshal(seedBytes(t, "FuzzBatchRequest", name))
		if req, ok := back.(*core.BatchRequest); err != nil || !ok || req.Lends != nil {
			t.Errorf("old-form seed %s decodes to %+v, %v; want a request lending nothing", name, back, err)
		}
	}

	res, err := env.client.Send(context.Background(), getbatchHere, lentRootsRequest)
	if err != nil {
		t.Fatalf("a request lending a root the peer lacks was refused: %v", err)
	}
	results := res.(*core.BatchResponse).Results
	gauge := func(id uint64) any {
		for name, gid := range env.ids {
			if gid == id {
				return map[string]int64{"a": 10, "b": 20}[name]
			}
		}
		return nil
	}
	var missing *rmi.NoSuchObjectError
	if len(results) != 4 || results[0].Value != int64(10) || results[1].Value != gauge(16) || gauge(16) == nil ||
		!errors.As(results[2].Err, &missing) || missing.ObjID != 999 || results[3].Value != gauge(17) || gauge(17) == nil {
		t.Errorf("lent-roots results = %+v, want [10 %v NoSuchObjectError(999) %v]", results, gauge(16), gauge(17))
	}
	old, err := wire.Unmarshal(seedBytes(t, "FuzzBatchRequest", "lent-root"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.client.Send(context.Background(), getbatchHere, old); !errors.As(err, &missing) || missing.ObjID != 999 {
		t.Errorf("the old-form lent-root request = %v, want refused whole: *rmi.NoSuchObjectError for 999", err)
	}

	plain, err := wire.Marshal(&core.BatchRequest{Root: 16, Calls: []core.Invocation{getCall(0, core.RootTarget-1)}, Roots: []uint64{17}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "130204" + "0a01" + "132803" + "0803476574" + "01" + "0402" + "0510" + "0500" + "0a010511"; hex.EncodeToString(plain) != want {
		t.Errorf("a request lending nothing encodes to\n  %x, want\n  %s", plain, want)
	}
}

// TestLendRootFailsOnlyItsCalls: a batch's lent root that the serving peer
// does not hold fails the calls made on it, typed, and the flush and its
// other calls succeed; a lent root the peer holds serves like any root. A
// root added after a lent one is an ordinary root, and lending a ref the
// batch holds as a root returns that root.
func TestLendRootFailsOnlyItsCalls(t *testing.T) {
	env := newGetbatchEnv(t)
	b := core.NewNamed(env.client, getbatchHere, "a")
	gone, err := b.LendRoot(wire.Ref{Endpoint: getbatchHere, ObjID: 999})
	if err != nil {
		t.Fatal(err)
	}
	aRef := wire.Ref{Endpoint: getbatchHere, ObjID: env.ids["a"]}
	added, err := b.AddRoot(aRef)
	if err != nil {
		t.Fatalf("AddRoot after LendRoot = %v, want an ordinary root", err)
	}
	held, err := b.LendRoot(wire.Ref{Endpoint: getbatchHere, ObjID: env.ids["b"]})
	if err != nil {
		t.Fatal(err)
	}
	if again, err := b.LendRoot(aRef); err != nil || !reflect.DeepEqual(again, added) {
		t.Errorf("lending a ref the batch holds as a root = %+v, %v; want that root", again, err)
	}
	fa, fgone, fheld, fadded := b.Root().Call("Get"), gone.Call("Get"), held.Call("Get"), added.Call("Get")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatalf("flush with a lent root the peer lacks = %v, want nil", err)
	}
	var missing *rmi.NoSuchObjectError
	if _, err := fgone.Get(); !errors.As(err, &missing) || missing.ObjID != 999 {
		t.Errorf("call on the absent lent root = %v, want *rmi.NoSuchObjectError for 999", err)
	}
	for f, want := range map[*core.Future]int64{fa: 10, fheld: 20, fadded: 10} {
		if v, err := f.Get(); err != nil || v != want {
			t.Errorf("call = %v, %v; want %d", v, err, want)
		}
	}
}
