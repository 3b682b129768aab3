package core_test

// Tests for the core.getbatch stream service: the request's wire form (an
// id-addressed request is byte-for-byte what it was before names existed),
// name-addressed positions resolved in the serving peer's registry, and a
// fuzz target over the request decoder and the serving loop.

import (
	"context"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// gauge is the smallest readable object: a Get accessor and a snapshot.
type gauge struct {
	rmi.RemoteBase
	v int64
}

func (g *gauge) Get() int64             { return g.v }
func (g *gauge) Bump() int64            { g.v++; return g.v }
func (g *gauge) Snapshot() (any, error) { return g.v, nil }
func (g *gauge) Restore(state any) (err error) {
	g.v, err = core.Convert[int64](state)
	return err
}

// getbatchEnv is a serving peer with an executor and a registry — "here",
// holding gauges a and b bound under their names, and the name "far" bound
// to an object on another endpoint — plus a client peer.
type getbatchEnv struct {
	network *netsim.Network
	client  *rmi.Peer
	server  *rmi.Peer
	exec    *core.Executor
	reg     *registry.Service
	ids     map[string]uint64
	gauges  []*gauge
	farRef  wire.Ref
}

// bumps sums the gauges: it moves when, and only when, a Bump executed. Read
// between calls, never during one.
func (env *getbatchEnv) bumps() (sum int64) {
	for _, g := range env.gauges {
		sum += g.v
	}
	return sum
}

const getbatchHere = "here"

func newGetbatchEnv(tb testing.TB) *getbatchEnv {
	tb.Helper()
	network := netsim.New(netsim.Instant)
	tb.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	if err := server.Serve(getbatchHere); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = server.Close() })
	exec, err := core.Install(server)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(exec.Stop)
	reg, err := registry.Start(server)
	if err != nil {
		tb.Fatal(err)
	}
	env := &getbatchEnv{
		network: network,
		server:  server,
		exec:    exec,
		reg:     reg,
		ids:     map[string]uint64{},
		farRef:  wire.Ref{Endpoint: "there", ObjID: 77, Iface: "test.Gauge"},
	}
	for name, v := range map[string]int64{"a": 10, "b": 20} {
		g := &gauge{v: v}
		env.gauges = append(env.gauges, g)
		ref, err := server.Export(g, "test.Gauge")
		if err != nil {
			tb.Fatal(err)
		}
		if err := reg.Bind(name, ref); err != nil {
			tb.Fatal(err)
		}
		env.ids[name] = ref.ObjID
	}
	if err := reg.Bind("far", env.farRef); err != nil {
		tb.Fatal(err)
	}
	env.client = rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	tb.Cleanup(func() { _ = env.client.Close() })
	return env
}

// read issues req and drains the stream: the entries delivered, and the
// error that ended it (nil for a clean io.EOF).
func (env *getbatchEnv) read(req *core.GetBatchRequest) ([]*core.GetBatchEntry, error) {
	s, err := core.GetBatch(context.Background(), env.client, getbatchHere, req)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var entries []*core.GetBatchEntry
	for {
		e, err := s.Next()
		if err == io.EOF {
			return entries, nil
		}
		if err != nil {
			return entries, err
		}
		entries = append(entries, e)
	}
}

// The four request shapes: the legacy three-field id-addressed form, a
// names-only request in its parallel form (ids all zero) and in the form the
// cluster layer ships (no ids at all), and a mixed one. Their encodings are
// the fuzz target's seed corpus, committed under
// testdata/fuzz/FuzzGetBatchRequest: captured before the standard type table
// defined brmi.getbatch.req by name, and *-standard in the form the encoder
// writes now.
var (
	legacyRequest = &core.GetBatchRequest{ObjIDs: []uint64{16, 17, 300}, Indexes: []int64{0, 5, 63}, Method: "Get"}
	namesRequest  = &core.GetBatchRequest{ObjIDs: []uint64{0, 0, 0}, Indexes: []int64{0, 1, 2}, Method: "Get", Names: []string{"a", "ghost", "far"}}
	noIDsRequest  = &core.GetBatchRequest{ObjIDs: []uint64{}, Indexes: []int64{0, 1, 2}, Method: "Get", Names: []string{"a", "ghost", "far"}}
	mixedRequest  = &core.GetBatchRequest{ObjIDs: []uint64{16, 0}, Indexes: []int64{7, 3}, Names: []string{"", "b"}}
)

// TestGetBatchRequestIDAddressedWireParity pins the compatibility promise:
// a request without names encodes to exactly the bytes it did before the
// Names field existed (captured at the parent commit), less the named
// definition of brmi.getbatch.req the standard type table removed (the
// capture from before the table still decodes to the same request), so old
// and new peers agree on every id-addressed read.
func TestGetBatchRequestIDAddressedWireParity(t *testing.T) {
	for _, c := range []struct {
		req         *core.GetBatchRequest
		want, named string
	}{
		{legacyRequest, "1309030a030510051105ac020a030400040a047e0803476574",
			"0d011162726d692e67657462617463682e7265710c01030a030510051105ac020a030400040a047e0803476574"},
		{&core.GetBatchRequest{}, "1309030a000a000800", "0d011162726d692e67657462617463682e7265710c01030a000a000800"},
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
		if r, ok := back.(*core.GetBatchRequest); !ok || r.Names != nil || r.Method != c.req.Method || len(r.ObjIDs) != len(c.req.ObjIDs) {
			t.Errorf("three-field request decoded to %+v", back)
		}
	}
}

func TestGetBatchRequestNamesRoundTrip(t *testing.T) {
	for _, req := range []*core.GetBatchRequest{namesRequest, noIDsRequest, mixedRequest} {
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
}

// TestGetBatchNameAddressed: name positions resolve in the serving peer's
// registry and share a stream with id positions; an unknown name and a
// name bound elsewhere fail their own entry with the typed error.
func TestGetBatchNameAddressed(t *testing.T) {
	env := newGetbatchEnv(t)
	entries, err := env.read(&core.GetBatchRequest{
		ObjIDs:  []uint64{0, env.ids["b"], 0, 0},
		Indexes: []int64{4, 3, 2, 1},
		Method:  "Get",
		Names:   []string{"a", "", "ghost", "far"},
	})
	if err != nil || len(entries) != 4 {
		t.Fatalf("read = %d entries, %v; want 4", len(entries), err)
	}
	for i, want := range []int64{4, 3, 2, 1} {
		if entries[i].Index != want {
			t.Errorf("entry %d index = %d, want %d", i, entries[i].Index, want)
		}
	}
	if entries[0].Err != nil || entries[0].Value != int64(10) {
		t.Errorf("a by name = %v, %v; want 10", entries[0].Value, entries[0].Err)
	}
	if entries[1].Err != nil || entries[1].Value != int64(20) {
		t.Errorf("b by id = %v, %v; want 20", entries[1].Value, entries[1].Err)
	}
	var notBound *registry.NotBoundError
	if !errors.As(entries[2].Err, &notBound) || notBound.Name != "ghost" {
		t.Errorf("ghost = %v, want *registry.NotBoundError", entries[2].Err)
	}
	var elsewhere *core.ElsewhereError
	if !errors.As(entries[3].Err, &elsewhere) || elsewhere.Name != "far" || elsewhere.Ref != env.farRef {
		t.Errorf("far = %v, want *core.ElsewhereError carrying %v", entries[3].Err, env.farRef)
	}
}

// TestGetBatchNamesWithoutIDs: a request whose every position is named says
// so by leaving ObjIDs empty — two bytes per position it does not ship — and
// reads exactly what the parallel form reads.
func TestGetBatchNamesWithoutIDs(t *testing.T) {
	env := newGetbatchEnv(t)
	parallel, err := wire.Marshal(namesRequest)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := wire.Marshal(noIDsRequest)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(parallel) - 2*len(namesRequest.ObjIDs); len(bare) != want {
		t.Errorf("request without ids is %d bytes, want %d (parallel form %d)", len(bare), want, len(parallel))
	}
	want, err := env.read(namesRequest)
	if err != nil || len(want) != 3 {
		t.Fatalf("parallel form read = %d entries, %v", len(want), err)
	}
	for _, req := range []*core.GetBatchRequest{noIDsRequest, {Indexes: noIDsRequest.Indexes, Method: "Get", Names: noIDsRequest.Names}} {
		got, err := env.read(req)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("request %+v read %+v, %v; want what the parallel form reads", req, got, err)
		}
	}
	if want[0].Err != nil || want[0].Value != int64(10) {
		t.Errorf("a by name = %v, %v; want 10", want[0].Value, want[0].Err)
	}
}

// TestGetBatchRejectsMismatchedLengths: an addressing slice that is neither
// empty nor parallel to the indexes, or positions with no addressing at all,
// fail the request as a whole, before any entry.
func TestGetBatchRejectsMismatchedLengths(t *testing.T) {
	env := newGetbatchEnv(t)
	for _, req := range []*core.GetBatchRequest{
		{ObjIDs: []uint64{16, 17}, Indexes: []int64{0}},
		{ObjIDs: []uint64{0}, Indexes: []int64{0}, Names: []string{"a", "b"}},
		{ObjIDs: []uint64{0, 0}, Indexes: []int64{0, 1}, Names: []string{"a"}},
		{Indexes: []int64{0, 1}, Names: []string{"a"}},
		{Indexes: []int64{0}, Names: []string{"a", "b"}},
		{Indexes: []int64{0, 1}},
		{ObjIDs: []uint64{16}},
		{Names: []string{"a"}},
	} {
		if entries, err := env.read(req); err == nil || len(entries) != 0 {
			t.Errorf("request %+v delivered %d entries, err %v; want none and an error", req, len(entries), err)
		}
	}
}

// FuzzGetBatchRequest feeds arbitrary bytes to the request decoder and,
// when they decode to a request, serves it from a small executor. Nothing
// may panic (a panic in the serving goroutine takes the process down, which
// the fuzzer reports); a decoded request is never larger than its input
// allows; and addressing slices that are not empty or parallel to the indexes
// are rejected with an error instead of indexing out of range. What the decode
// allocates follows the input, not the counts it claims. The seed corpus is the
// committed testdata/fuzz/FuzzGetBatchRequest plus a request claiming more ids
// than it carries.
func FuzzGetBatchRequest(f *testing.F) {
	env := newGetbatchEnv(f)
	f.Add(inflated(getBatchRequestIDs, 1<<12))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, alloc, err := decodeAlloc(data)
		if alloc > allocBound(data) {
			t.Fatalf("%d input bytes made the decode allocate %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		req, ok := msg.(*core.GetBatchRequest)
		if !ok {
			return
		}
		// Every element costs at least one input byte.
		if n := len(req.ObjIDs) + len(req.Indexes) + len(req.Names); n > len(data) {
			t.Fatalf("%d input bytes decoded to %d slice elements", len(data), n)
		}
		entries, err := env.read(req)
		n, ids, names := len(req.Indexes), len(req.ObjIDs), len(req.Names)
		if (ids != 0 && ids != n) || (names != 0 && names != n) || (ids+names == 0 && n != 0) {
			if err == nil || len(entries) != 0 {
				t.Fatalf("mismatched request %+v delivered %d entries, err %v", req, len(entries), err)
			}
			return
		}
		if err != nil {
			t.Fatalf("request %+v: stream failed: %v", req, err)
		}
		if len(entries) != n {
			t.Fatalf("request %+v delivered %d entries, want %d", req, len(entries), n)
		}
		for i, e := range entries {
			if e.Index != req.Indexes[i] {
				t.Fatalf("entry %d index = %d, want %d", i, e.Index, req.Indexes[i])
			}
		}
	})
}
