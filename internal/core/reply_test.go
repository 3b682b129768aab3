package core_test

// Positional replies: a flush's results and a Get-Batch stream's entries
// answer the request's calls and positions in order, so a success travels as
// its bare value. Replies from before — every result a brmi.result with its
// Seq, every entry a brmi.getbatch.entry with its Index — still settle the
// same futures; a reply that answers another count of calls or positions
// fails typed; and a fuzz target drives hostile reply bytes through the
// client's settling.

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

const (
	// oldFormReply answers three calls — 7, "seven", and a skip for want of
	// call 1 — as replies were encoded before results were positional:
	// every result a brmi.result ("1306" + field count) echoing its Seq.
	oldFormReply = "1305010a03" + "130602" + "0400" + "040e" + "130602" + "0402" + "0805736576656e" +
		"130604" + "0404" + "01" + "1310010402" + "03"
	// newFormReply is the same reply as it is encoded now: the two
	// successes are their bare values, the skip keeps its struct, and no
	// result echoes a Seq.
	newFormReply = "1305010a03" + "040e" + "0805736576656e" + "130604" + "0400" + "01" + "1310010402" + "03"
	// shortReply answers two of the three calls.
	shortReply = "1305010a02" + "040e" + "0805736576656e"
	// shippedReply is newFormReply's three successes from a replicated
	// wave: a session word 0, then the ship lag in microseconds, 250 µs —
	// "04f403", 3 B, where 250000 ns took 5.
	shippedReply = "1305030a03" + "040e" + "0805736576656e" + "0402" + "0500" + "04f403"
	// replyCalls is how many calls the replies above answer.
	replyCalls = 3
)

// recordCalls records replyCalls value calls on a batch rooted at an object
// that need not exist: a reply is settled without the server.
func recordCalls(p *rmi.Peer) (*core.Batch, []*core.Future) {
	b := core.New(p, wire.Ref{Endpoint: "nowhere", ObjID: 16, Iface: "test.Gauge"})
	futs := make([]*core.Future, replyCalls)
	for i := range futs {
		futs[i] = b.Root().Call("Get")
	}
	return b, futs
}

func replyPeer(tb testing.TB) *rmi.Peer {
	network := netsim.New(netsim.Instant)
	tb.Cleanup(func() { _ = network.Close() })
	p := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	tb.Cleanup(func() { _ = p.Close() })
	return p
}

// TestOldAndNewFormRepliesSettleAlike: the reply from before results were
// positional and the reply as it is encoded now settle the same three
// futures the same way, and the new one is shorter by the two successes'
// envelopes: 5 B each, a struct header and a Seq. The skip keeps its struct,
// its Seq slot written as 0 ahead of the fields that follow.
func TestOldAndNewFormRepliesSettleAlike(t *testing.T) {
	p := replyPeer(t)
	want := &core.BatchResponse{Results: []core.CallResult{
		{Value: int64(7)}, {Value: "seven"}, {Err: &core.UnresolvedRefError{Seq: 1}, Skipped: true}}}
	got, err := wire.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != newFormReply {
		t.Errorf("reply encodes to %x, want %s", got, newFormReply)
	}
	if saved := len(mustHex(t, oldFormReply)) - len(got); saved != 5+5 {
		t.Errorf("the positional reply is %d B shorter than the old form, want 10", saved)
	}
	for name, reply := range map[string]string{"old form": oldFormReply, "new form": newFormReply} {
		b, futs := recordCalls(p)
		if _, err := core.SettleForTest(b, mustHex(t, reply)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, err := futs[0].Get(); err != nil || v != int64(7) {
			t.Errorf("%s: call 0 = %v, %v; want 7", name, v, err)
		}
		if v, err := futs[1].Get(); err != nil || v != "seven" {
			t.Errorf("%s: call 1 = %v, %v; want seven", name, v, err)
		}
		var unresolved *core.UnresolvedRefError
		if _, err := futs[2].Get(); !errors.As(err, &unresolved) || unresolved.Seq != 1 {
			t.Errorf("%s: call 2 failed with %v, want the skip for call 1", name, err)
		}
	}
}

// TestReplyWithOtherCountFails: a reply answering another count of calls
// than the flush carried settles none of them; the flush fails with a
// *BatchError, and so does every future.
func TestReplyWithOtherCountFails(t *testing.T) {
	p := replyPeer(t)
	for _, reply := range []string{shortReply, "1305010a04" + "040e" + "040e" + "040e" + "040e", "130500"} {
		b, futs := recordCalls(p)
		_, err := core.SettleForTest(b, mustHex(t, reply))
		var be *core.BatchError
		if !errors.As(err, &be) {
			t.Fatalf("reply %s: flush returned %v, want *core.BatchError", reply, err)
		}
		for i, f := range futs {
			if _, ferr := f.Get(); !errors.As(ferr, &be) {
				t.Errorf("reply %s: call %d = %v, want the flush's *core.BatchError", reply, i, ferr)
			}
		}
	}
}

// TestRestartAndCursorSettlePositionally: results that are not plain values —
// a restarted batch's, a cursor run's — still answer their calls by position.
func TestRestartAndCursorSettlePositionally(t *testing.T) {
	ctx := context.Background()
	fx := newFixture(t)

	// One restart: the first run fails at call 0; the second runs all three.
	fl := &flaky{failures: 1}
	ref, err := fx.server.Export(fl, "coretest.Flaky")
	if err != nil {
		t.Fatal(err)
	}
	b := core.New(fx.client, ref, core.WithPolicy(core.CustomPolicy().SetDefaultAction(core.ActionRestart)))
	var works []*core.Future
	for range 3 {
		works = append(works, b.Root().Call("Work"))
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for i, f := range works {
		if v, err := core.Typed[int](f).Get(); err != nil || v != 2+i {
			t.Errorf("restarted call %d = %d, %v; want %d", i, v, err, 2+i)
		}
	}

	// Restarts run out: the call that demanded one fails with its error, and
	// the call after it, which never ran, is skipped with it — not settled
	// as a success with no value.
	fl = &flaky{failures: 1 << 30}
	if ref, err = fx.server.Export(fl, "coretest.Flaky"); err != nil {
		t.Fatal(err)
	}
	policy := core.CustomPolicy().SetDefaultAction(core.ActionRestart)
	policy.MaxRestarts = 1
	b = core.New(fx.client, ref, core.WithPolicy(policy))
	failed, after := b.Root().Call("Work"), b.Root().Call("Calls")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	var perm *permissionError
	if _, err := failed.Get(); !errors.As(err, &perm) {
		t.Errorf("the call that demanded the restart = %v, want its *permissionError", err)
	}
	if v, err := after.Get(); !errors.As(err, &perm) {
		t.Errorf("the call after it = %v, %v; want skipped with the *permissionError", v, err)
	}

	// A cursor run between two plain calls: the plain results are bare
	// values, the cursor's and its owned call's are structs, and each lands
	// on its own call.
	b = core.New(fx.client, fx.dirRef)
	root := b.Root()
	before := root.Call("Names")
	cursor := root.CallCursor("AllFiles")
	name := cursor.Call("GetName")
	tail := root.Call("Names")
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"index.html", "A.txt", "B.txt", "secret.bin"}
	for _, f := range []*core.Future{before, tail} {
		if v, err := core.Typed[[]string](f).Get(); err != nil || !reflect.DeepEqual(v, wantNames) {
			t.Errorf("plain call around the cursor = %v, %v; want %v", v, err, wantNames)
		}
	}
	var names []string
	for cursor.Next() {
		v, err := core.Typed[string](name).Get()
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, v)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("cursor names = %v, want %v", names, wantNames)
	}
}

// oldFormServer serves core.getbatch the way a server did before entries were
// positional — every entry a *core.GetBatchEntry carrying an index, which
// now that indexes stay with the client is one of its own making — and
// writes extra entries past the request's positions.
func oldFormServer(t *testing.T, extra int) (*rmi.Peer, string) {
	t.Helper()
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	server.HandleStream(core.GetBatchService, func(_ context.Context, req any, w *rmi.EntryWriter) error {
		r := req.(*core.GetBatchRequest)
		for i := range r.Names {
			if err := w.WriteEntry(&core.GetBatchEntry{Index: int64(1000 + i), Value: int64(100 + i)}); err != nil {
				return err
			}
		}
		for i := 0; i < extra; i++ {
			if err := w.WriteEntry(int64(-1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err := server.Serve("old"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return client, "old"
}

// drain reads a Get-Batch stream to its end: the entries, and the error that
// ended it (nil for io.EOF).
func drain(t *testing.T, p *rmi.Peer, endpoint string, req *core.GetBatchRequest) ([]*core.GetBatchEntry, error) {
	t.Helper()
	s, err := core.GetBatch(context.Background(), p, endpoint, req)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var entries []*core.GetBatchEntry
	for {
		e, err := s.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return entries, err
		}
		entries = append(entries, e)
	}
}

// TestOldFormStreamStillReads: a stream whose every entry is the envelope
// with an index reads as it did, each entry on its position: the index the
// client numbers it with is its own.
func TestOldFormStreamStillReads(t *testing.T) {
	client, ep := oldFormServer(t, 0)
	req := &core.GetBatchRequest{Indexes: []int64{7, 3, 40}, Names: []string{"a", "b", "c"}}
	entries, err := drain(t, client, ep, req)
	if err != nil || len(entries) != 3 {
		t.Fatalf("read %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if e.Index != req.Indexes[i] || e.Value != int64(100+i) || e.Err != nil {
			t.Errorf("entry %d = %+v, want index %d value %d", i, e, req.Indexes[i], 100+i)
		}
	}
}

// TestStreamPastLastPositionFails: an entry past the request's last position
// answers nothing the client asked for; the stream fails typed there.
func TestStreamPastLastPositionFails(t *testing.T) {
	client, ep := oldFormServer(t, 1)
	entries, err := drain(t, client, ep, &core.GetBatchRequest{Indexes: []int64{0, 1}, Names: []string{"a", "b"}})
	var corrupt *wire.CorruptError
	if len(entries) != 2 || !errors.As(err, &corrupt) {
		t.Errorf("read %d entries, then %v; want 2 and a *wire.CorruptError", len(entries), err)
	}
}

// entryMaker's accessor returns a value that is itself a Get-Batch entry.
type entryMaker struct{ rmi.RemoteBase }

func (entryMaker) Entry() *core.GetBatchEntry { return &core.GetBatchEntry{Index: 4, Value: int64(5)} }

// TestEntryValuedReadKeepsItsEnvelope: a read whose value is a
// *core.GetBatchEntry travels in the envelope, so the client does not take
// the value for the entry.
func TestEntryValuedReadKeepsItsEnvelope(t *testing.T) {
	env := newGetbatchEnv(t)
	ref, err := env.server.Export(entryMaker{}, "test.EntryMaker")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := env.read(&core.GetBatchRequest{ObjIDs: []uint64{ref.ObjID, env.ids["a"]}, Indexes: []int64{9, 10}, Method: "Entry"})
	if err != nil || len(entries) != 2 {
		t.Fatalf("read %d entries, %v", len(entries), err)
	}
	want := &core.GetBatchEntry{Index: 4, Value: int64(5)}
	if e := entries[0]; e.Index != 9 || e.Err != nil || !reflect.DeepEqual(e.Value, want) {
		t.Errorf("entry 0 = %+v, want index 9 and the value %+v", e, want)
	}
	if e := entries[1]; e.Index != 10 || e.Err == nil {
		t.Errorf("entry 1 = %+v, want index 10 failed: a gauge has no Entry", e)
	}
}

// TestShipLagInMicroseconds: a replicated wave's reply says its ship lag in
// microseconds, and the flush reports it as the duration it was. The reply is
// FuzzBatchReply's seed ship-lag.
func TestShipLagInMicroseconds(t *testing.T) {
	want := &core.BatchResponse{Results: []core.CallResult{{Value: int64(7)}, {Value: "seven"}, {Value: int64(1)}}, ShipUs: 250}
	got, err := wire.Marshal(want)
	if err != nil || hex.EncodeToString(got) != shippedReply {
		t.Fatalf("reply encodes to %x (%v), want %s", got, err, shippedReply)
	}
	if seed := seedBytes(t, "FuzzBatchReply", "ship-lag"); !bytes.Equal(seed, got) {
		t.Errorf("seed ship-lag holds %x, want %s", seed, shippedReply)
	}
	b, _ := recordCalls(replyPeer(t))
	if _, err := core.SettleForTest(b, got); err != nil {
		t.Fatal(err)
	}
	if lag := b.ShipLag(); lag != 250*time.Microsecond {
		t.Errorf("ShipLag = %v, want 250µs", lag)
	}
}

// FuzzBatchReply feeds arbitrary bytes, as the reply to a flush of three
// recorded calls, through reply decoding and settling. Nothing may panic;
// what settling allocates follows the input, not the counts it claims; a
// reply that is not a batch response of three results fails the flush and
// every future with a *BatchError; and one that is settles each future from
// its own position. The seed corpus is testdata/fuzz/FuzzBatchReply — an
// old-form reply, a new-form one, one with the wrong count and one from a
// replicated wave, its ship lag in microseconds — plus a reply claiming more
// results than it carries.
func FuzzBatchReply(f *testing.F) {
	p := replyPeer(f)
	f.Add(inflated(flushReplyResults, 1<<12))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, futs := recordCalls(p)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err := core.SettleForTest(b, data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > allocBound(data) {
			t.Fatalf("%d input bytes made settling allocate %d", len(data), alloc)
		}
		resp, ok := msg.(*core.BatchResponse)
		if !ok || resp == nil || len(resp.Results) != replyCalls {
			var be *core.BatchError
			if !errors.As(err, &be) {
				t.Fatalf("reply %x decoded to %+v; the flush returned %v, want *core.BatchError", data, msg, err)
			}
			for i, f := range futs {
				if _, ferr := f.Get(); !errors.As(ferr, &be) {
					t.Fatalf("reply %x: call %d = %v, want the flush's *core.BatchError", data, i, ferr)
				}
			}
			return
		}
		if !sameValue(err, resp.ShipErr) {
			t.Fatalf("reply %+v: the flush returned %v, want its ship error %v", resp, err, resp.ShipErr)
		}
		for i, f := range futs {
			v, ferr := f.Get()
			r := resp.Results[i]
			if !sameValue(ferr, r.Err) || (ferr == nil && !sameValue(v, p.FromWire(r.Value))) {
				t.Fatalf("reply %+v: call %d = %#v, %v; want result %d, %+v", resp, i, v, ferr, i, r)
			}
		}
	})
}

// sameValue compares two decodings of one wire value: deeply, or — for a NaN,
// which is not equal to itself — by their printed form.
func sameValue(a, b any) bool {
	return reflect.DeepEqual(a, b) || fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}
