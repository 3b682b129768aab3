package cluster_test

// Every byte a flush puts on the client's connections, attributed to what it
// carries. Whatever a round trip carries besides its calls and their results
// is what a batch cannot amortise, so the bytes of one cluster_dataflow-shaped
// op and one replicated op are pinned per category, exactly. What the servers
// send each other on the op's behalf — the values one pushes to another, the
// records a primary appends to its followers — is pinned the same way: a
// client round trip saved is not paid for in hidden server traffic.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// wireBytes attributes a connection's bytes:
//   - Header: frame headers (transport);
//   - Envelope: what a flush and its reply carry around their calls and
//     results — struct headers, the session word, root ids, the policy;
//   - Method: the call's method field, which a flush, being a bare brmi.req,
//     no longer has;
//   - Calls: the request's recorded calls;
//   - Results: the reply's call results;
//   - Roots: the request's root names and the reply's resolved roots;
//   - Directive: the request's ship directive and the reply's ship outcome;
//   - Push: the request's flush id and the peers its calls push values to;
//   - Other: every frame that is not a flush or its reply.
type wireBytes struct {
	Header, Envelope, Method, Calls, Results, Roots, Directive, Push, Other int
}

func (w wireBytes) total() int {
	return w.Header + w.Envelope + w.Method + w.Calls + w.Results + w.Roots + w.Directive + w.Push + w.Other
}

// attribute splits every byte tap recorded into w's categories and returns
// them with the recorded total.
func attribute(t *testing.T, tap *transport.Recorder) (w wireBytes, recorded int) {
	t.Helper()
	outs, ins := tap.Recorded()
	for i, out := range outs {
		in := ins[i]
		recorded += len(out) + len(in)
		flushes := map[uint64]bool{}
		for _, f := range decodeFrames(t, out) {
			w.Header += f.Header
			if f.Kind == transport.KindRequest && w.request(t, f.Payload) {
				flushes[f.ID] = true
			} else {
				w.Other += len(f.Payload)
			}
		}
		for _, f := range decodeFrames(t, in) {
			w.Header += f.Header
			if f.Kind == transport.KindRespOK && flushes[f.ID] {
				w.reply(t, f.Payload)
			} else {
				w.Other += len(f.Payload)
			}
		}
	}
	return w, recorded
}

func decodeFrames(t *testing.T, b []byte) []transport.Frame {
	t.Helper()
	frames, err := transport.DecodeFrames(b)
	if err != nil {
		t.Fatalf("recorded bytes: %v", err)
	}
	return frames
}

// part is one encoded value inside a message: msg[Off : Off+Len]. It is
// split within its message, an earlier string of which it may repeat.
type part struct {
	msg []byte
	wire.Span
}

// whole is the message msg as a part.
func whole(msg []byte) part { return part{msg, wire.Span{Len: len(msg)}} }

func (p part) bytes() []byte { return p.msg[p.Off : p.Off+p.Len] }

// value decodes p within its message.
func (p part) value() (any, error) { return wire.UnmarshalAt(p.msg, p.Span) }

// split returns the struct (or, with elems, the slice) p holds: its header
// length and each field (element).
func split(t *testing.T, p part, elems bool) (int, []part) {
	t.Helper()
	h, spans, err := wire.Fields(p.msg, p.Off)
	if elems {
		h, spans, err = wire.Elems(p.msg, p.Off)
	}
	if err != nil {
		t.Fatalf("split %x at %d: %v", p.msg, p.Off, err)
	}
	parts := make([]part, len(spans))
	for i, s := range spans {
		parts[i] = part{p.msg, s}
	}
	return h, parts
}

// flushRequest reports whether a request frame's payload is a flush — a bare
// brmi.req — and returns its header length and fields: Calls, Root, the
// session word, Roots, Ship, Flush, Peers, Policy.
func flushRequest(t *testing.T, payload []byte) (int, []part, bool) {
	if msg, err := wire.Unmarshal(payload); err != nil || wire.TypeNameOf(msg) != "brmi.req" {
		return 0, nil, false
	}
	h, req := split(t, whole(payload), false)
	return h, req, true
}

// isName reports whether an encoded root position is a name — a string
// literal (kString), a repeat of one (kStrRef) or one front-coded against the
// literal before it (kStrDelta) — rather than an export id.
func isName(p part) bool {
	return p.Len > 0 && (p.msg[p.Off] == 8 || p.msg[p.Off] == 20 || p.msg[p.Off] == 21)
}

// request attributes one request frame's payload if it is a flush, and
// reports whether it was.
func (w *wireBytes) request(t *testing.T, payload []byte) bool {
	h, req, ok := flushRequest(t, payload)
	if !ok {
		return false
	}
	w.Envelope += h
	for i, f := range req {
		switch i {
		case 0:
			w.Calls += f.Len
		case 1: // the root: its name, or its id
			if isName(f) {
				w.Roots += f.Len
			} else {
				w.Envelope += f.Len
			}
		case 3: // the extra roots, each a name or an id
			if f.bytes()[0] == 1 { // nil
				w.Envelope += f.Len
				break
			}
			eh, roots := split(t, f, true)
			named := false
			for _, r := range roots {
				if isName(r) {
					named = true
					w.Roots += r.Len
				} else {
					w.Envelope += r.Len
				}
			}
			if named {
				w.Roots += eh
			} else {
				w.Envelope += eh
			}
		case 4:
			w.Directive += f.Len
		case 5, 6:
			w.Push += f.Len
		default: // the session word, the policy
			w.Envelope += f.Len
		}
	}
	return true
}

// reply attributes the payload of a flush's reply, a bare brmi.resp:
// Results, Session, ShipNs, ShipErr, Roots, Restarts.
func (w *wireBytes) reply(t *testing.T, payload []byte) {
	h, resp := split(t, whole(payload), false)
	w.Envelope += h
	for j, g := range resp {
		switch j {
		case 0:
			w.Results += g.Len
		case 2, 3:
			w.Directive += g.Len
		case 4:
			w.Roots += g.Len
		default: // Session, Restarts
			w.Envelope += g.Len
		}
	}
}

// hopBytes attributes the calls servers send each other on one service —
// values pushed to an executor, records appended to a replication service —
// and their replies: how many calls, frame headers, the call envelope (struct
// header, object id, argument slice), the method, the arguments the call
// carries, and the whole reply.
type hopBytes struct {
	Calls, Header, Envelope, Method, Body, Reply int
}

// hops attributes, per receiving endpoint, every call ec's tapped servers
// sent to the service at objID since they had sent `since` (nil: ever). A
// primary past its write quorum still ships to, and hears from, its slower
// followers after the flush, so it waits, a bounded time, for what it records
// to be want, every call answered.
func hops(t *testing.T, ec *clustertest.Cluster, objID uint64, since, want map[string]hopBytes) map[string]hopBytes {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, unanswered := hopsSoFar(t, ec, objID)
		for ep, h := range since {
			o := out[ep]
			o = hopBytes{o.Calls - h.Calls, o.Header - h.Header, o.Envelope - h.Envelope, o.Method - h.Method, o.Body - h.Body, o.Reply - h.Reply}
			if out[ep] = o; o == (hopBytes{}) {
				delete(out, ep)
			}
		}
		if (unanswered == 0 && reflect.DeepEqual(out, want)) || time.Now().After(deadline) {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// hopsSoFar is hops as recorded so far, and how many calls await a reply.
func hopsSoFar(t *testing.T, ec *clustertest.Cluster, objID uint64) (out map[string]hopBytes, unanswered int) {
	t.Helper()
	out = map[string]hopBytes{}
	for _, s := range ec.Servers {
		outs, ins := s.Tap.Recorded()
		for i, ep := range s.Tap.Dialed() {
			h, calls := out[ep], map[uint64]bool{}
			for _, f := range decodeFrames(t, outs[i]) {
				if f.Kind != transport.KindRequest {
					continue
				}
				hdr, call := split(t, whole(f.Payload), false) // rmi.call.req: ObjID, Method, Args
				if id, err := call[0].value(); err != nil || id != objID {
					continue
				}
				ah, args := split(t, call[2], true)
				calls[f.ID] = true
				h.Calls++
				h.Header += f.Header
				h.Envelope += hdr + call[0].Len + ah
				h.Method += call[1].Len
				for _, a := range args {
					h.Body += a.Len
				}
			}
			for _, f := range decodeFrames(t, ins[i]) {
				if calls[f.ID] {
					delete(calls, f.ID)
					h.Header += f.Header
					h.Reply += len(f.Payload)
				}
			}
			unanswered += len(calls)
			if h.Calls > 0 {
				out[ep] = h
			}
		}
	}
	return out, unanswered
}

// sumHops adds up the hops to every endpoint.
func sumHops(per map[string]hopBytes) (all hopBytes) {
	for _, h := range per {
		all.Calls += h.Calls
		all.Header += h.Header
		all.Envelope += h.Envelope
		all.Method += h.Method
		all.Body += h.Body
		all.Reply += h.Reply
	}
	return all
}

// pushHop is one value pushed along a cluster_dataflow edge and its reply: the
// push (kStd brmi.push) carries the flush id, the producer's tag, the value
// and no error.
var pushHop = hopBytes{Calls: 1, Header: 4, Envelope: 7, Method: 2, Body: 18, Reply: 5}

// tappedClient is a fresh client peer whose connections are recorded.
func tappedClient(t *testing.T, ec *clustertest.Cluster) (*rmi.Peer, *transport.Recorder) {
	tap := &transport.Recorder{Network: ec.Network.Host("tapped-client")}
	client := rmi.NewPeer(tap, rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return client, tap
}

// TestFlushBytesAttributed pins the client-connection bytes of one
// cluster_dataflow op — four named roots homed 2+1+1 on three servers, the
// a_i = Add, b_i = Apply(a_i), c = Apply(b_3) chain, one wave of three round
// trips — and of one replicated op — four named roots, two Adds each, R=3 and
// W=2 — per category, and what the servers send each other for them: the
// three values pushed along the dataflow's edges that cross servers, one to
// each home, and the replicated op's Append records, two to each follower —
// one from each of the other two primaries. Both run on a virtual clock, so
// the reply's ship lag is the constant a clock that saw no time pass reports.
// A request's second root name says only what its first did not (a
// kStrDelta), and so does server-0's record's second root in the Appends it
// sends.
func TestFlushBytesAttributed(t *testing.T) {
	ctx := context.Background()
	// placed is what the servers had sent each other when the op's set-up
	// ended: the placement that seeds a replicated op's followers is the
	// primaries' Installs, and the hops pinned are the op's alone.
	var placed map[string]hopBytes

	cases := []struct {
		name  string
		trips int
		calls int
		run   func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer)
		want  wireBytes
		// svc is the service the servers call each other on for the op, and
		// hops what each server received there.
		svc  uint64
		hops map[string]hopBytes
	}{
		{"cluster_dataflow", 3, 9, func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer) {
			dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
			homes := []string{"server-0", "server-0", "server-1", "server-2"}
			names := append(namesAt(dir, homes[0], 2), namesAt(dir, homes[2], 1)[0], namesAt(dir, homes[3], 1)[0])
			b := cluster.New(client, cluster.WithDirectory(dir))
			roots := make([]*cluster.Proxy, len(names))
			for i, name := range names {
				ec.BindCounter(dir, name, 0)
				var err error
				if roots[i], err = b.RootNamed(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
			const token = 7
			var futs []*cluster.Future
			for i := range roots {
				futs = append(futs, roots[i].Call("Add", int64(1)))
			}
			for i := range roots {
				futs = append(futs, roots[(i+1)%len(roots)].Call("Apply", int64(token), futs[i]))
			}
			futs = append(futs, roots[0].Call("Apply", int64(token), futs[len(futs)-1]))
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			for i, f := range futs {
				if _, err := f.Get(); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
		}, wireBytes{Header: 13, Envelope: 26, Calls: 179, Results: 24, Roots: 27, Directive: 3, Push: 69}, rmi.BatchObjID, map[string]hopBytes{
			"server-0": pushHop, "server-1": pushHop, "server-2": pushHop,
		}},
		{"replicated_write", 3, 8, func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer) {
			dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
			names := append(namesAt(dir, "server-0", 2), namesAt(dir, "server-1", 1)[0], namesAt(dir, "server-2", 1)[0])
			place(t, ec, dir, names...)
			placed = hopsSettled(t, ec, rmi.ReplicaObjID)
			b := cluster.New(client, cluster.WithDirectory(dir), cluster.WithQuorum(2))
			for _, name := range names {
				p, err := b.RootNamed(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				p.Call("Add", int64(1))
				p.Call("Add", int64(1))
			}
			if err := b.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}, wireBytes{Header: 12, Envelope: 32, Calls: 91, Results: 22, Roots: 27, Directive: 33}, rmi.ReplicaObjID, map[string]hopBytes{
			// server-0 follows the two primaries of one root each; the others
			// follow server-0, whose record carries its two roots. A record
			// carries no ID: each body is 40 B below the 194/228/228 of
			// records that said their 20 B `ClientID#session` each, and
			// server-0's two-root record to server-1 and server-2 now fits a
			// frame whose length takes 1 byte, not 2.
			"server-0": {Calls: 2, Header: 8, Envelope: 14, Method: 4, Body: 154, Reply: 16},
			"server-1": {Calls: 2, Header: 8, Envelope: 14, Method: 4, Body: 188, Reply: 16},
			"server-2": {Calls: 2, Header: 8, Envelope: 14, Method: 4, Body: 188, Reply: 16},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			placed = nil
			clk := netsim.NewVirtualClock()
			t.Cleanup(clk.Stop)
			network := netsim.New(netsim.Instant, netsim.WithClock(clk))
			t.Cleanup(func() { _ = network.Close() })
			ec := clustertest.New(t, 3, clustertest.WithNetwork(network), clustertest.Tapped())
			t.Cleanup(ec.Close)
			client, tap := tappedClient(t, ec)
			before := client.CallCount()
			c.run(t, ec, client)
			if trips := int(client.CallCount() - before); trips != c.trips {
				t.Fatalf("the op took %d round trips, want %d", trips, c.trips)
			}
			got, recorded := attribute(t, tap)
			if got.total() != recorded {
				t.Fatalf("attributed %d of %d recorded bytes", got.total(), recorded)
			}
			t.Logf("%s: %d B over %d round trips, %.1f B/call: %+v", c.name, recorded, c.trips, float64(recorded)/float64(c.calls), got)
			for _, line := range []struct {
				name      string
				got, want int
			}{
				{"frame headers", got.Header, c.want.Header},
				{"call envelope", got.Envelope, c.want.Envelope},
				{"method", got.Method, c.want.Method},
				{"calls", got.Calls, c.want.Calls},
				{"results", got.Results, c.want.Results},
				{"roots", got.Roots, c.want.Roots},
				{"directive", got.Directive, c.want.Directive},
				{"push", got.Push, c.want.Push},
				{"other", got.Other, c.want.Other},
			} {
				if line.got != line.want {
					t.Errorf("%s: %d B, want %d", line.name, line.got, line.want)
				}
			}
			if hops := hops(t, ec, c.svc, placed, c.hops); !reflect.DeepEqual(hops, c.hops) {
				t.Errorf("server-to-server calls received %+v, want %+v", hops, c.hops)
			}
		})
	}
}

// TestPushBytesByPlacement: the client round trips TestDataflowCostByPlacement
// saves are not paid for in hidden server traffic. What one cluster_dataflow op
// costs the servers is one push per a_i → b_i edge that crosses servers — its
// producer's server sends the consumer's the value, once — of pushHop's bytes
// each, and nothing else.
func TestPushBytesByPlacement(t *testing.T) {
	for _, tc := range []struct {
		name   string
		homes  []int
		pushes int
	}{
		{"co-located", []int{0, 0, 0, 0}, 0},
		{"four homes", []int{0, 1, 2, 3}, 4},
		{"pairs, adjacent", []int{0, 0, 1, 1}, 2},
		{"pairs, alternating", []int{0, 1, 0, 1}, 4},
		{"3+1", []int{0, 0, 0, 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := 0
			for i, h := range tc.homes {
				if tc.homes[(i+1)%len(tc.homes)] != h {
					edges++
				}
			}
			if edges != tc.pushes {
				t.Fatalf("table says %d pushes, the placement has %d edges across servers", tc.pushes, edges)
			}
			clk := netsim.NewVirtualClock()
			t.Cleanup(clk.Stop)
			network := netsim.New(netsim.Instant, netsim.WithClock(clk))
			t.Cleanup(func() { _ = network.Close() })
			ec := clustertest.New(t, 4, clustertest.WithNetwork(network), clustertest.Tapped())
			t.Cleanup(ec.Close)
			flushDataflow(t, ec, cluster.NewDirectory(ec.Client, ec.Endpoints()), tc.homes)

			n := tc.pushes
			want := hopBytes{Calls: n, Header: n * pushHop.Header, Envelope: n * pushHop.Envelope, Method: n * pushHop.Method, Body: n * pushHop.Body, Reply: n * pushHop.Reply}
			if got := sumHops(hopsSettled(t, ec, rmi.BatchObjID)); got != want {
				t.Errorf("servers pushed %+v, want %+v", got, want)
			}
			if got := replicaCounters(ec, "core.value_pushes"); got != int64(n) {
				t.Errorf("core.value_pushes = %d over the servers, want %d", got, n)
			}
		})
	}
}

// hopsSettled is hops once every call is answered, whatever it recorded.
func hopsSettled(t *testing.T, ec *clustertest.Cluster, objID uint64) map[string]hopBytes {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, unanswered := hopsSoFar(t, ec, objID)
		if unanswered == 0 || time.Now().After(deadline) {
			return out
		}
		time.Sleep(time.Millisecond)
	}
}

// streamBytes attributes a Get-Batch stream's client bytes:
//   - Header: frame headers, chunk sub-headers and each entry's length
//     prefix — the stream's framing;
//   - Envelope: the request around its positions — the stream request's
//     service name, struct headers, the empty id column, the method;
//   - Names: the request's per-position column of names;
//   - Indexes: the column the request no longer fills, its global indexes
//     (the client keeps them), written nil;
//   - Entries: what an entry carries besides its value — the
//     brmi.getbatch.entry struct header, nil index and error, for the
//     entries that travel in it;
//   - Values: the values read;
//   - Other: every other frame.
type streamBytes struct {
	Header, Envelope, Names, Indexes, Entries, Values, Other int
}

func (w streamBytes) total() int {
	return w.Header + w.Envelope + w.Names + w.Indexes + w.Entries + w.Values + w.Other
}

// attributeStream splits every byte tap recorded of Get-Batch streams into
// w's categories and returns them with the recorded total.
func attributeStream(t *testing.T, tap *transport.Recorder) (w streamBytes, recorded int) {
	t.Helper()
	outs, ins := tap.Recorded()
	for i, out := range outs {
		recorded += len(out) + len(ins[i])
		for _, f := range decodeFrames(t, out) {
			w.Header += f.Header
			if f.Kind != transport.KindStreamReq {
				w.Other += len(f.Payload)
				continue
			}
			h, sr := split(t, whole(f.Payload), false) // rmi.stream.req: Service, Req
			rh, req := split(t, sr[1], false)          // brmi.getbatch.req: ObjIDs, Indexes, Method, Names
			w.Envelope += h + sr[0].Len + rh + req[0].Len + req[2].Len
			w.Indexes += req[1].Len
			if len(req) > 3 {
				w.Names += req[3].Len
			}
		}
		var stream []byte
		for _, f := range decodeFrames(t, ins[i]) {
			w.Header += f.Header
			if f.Kind == transport.KindChunk {
				stream = append(stream, f.Payload...)
			} else {
				w.Other += len(f.Payload)
			}
		}
		for len(stream) > 0 {
			n, k := binary.Uvarint(stream)
			if k <= 0 || int(n) > len(stream)-k {
				t.Fatalf("stream bytes %x: bad entry length", stream)
			}
			w.Header += k
			entry := stream[k : k+int(n)]
			stream = stream[k+int(n):]
			v, err := wire.Unmarshal(entry)
			if err != nil {
				t.Fatalf("entry %x: %v", entry, err)
			}
			e, enveloped := v.(*core.GetBatchEntry)
			switch {
			case !enveloped:
				w.Values += len(entry)
			case e.Err != nil:
				w.Entries += len(entry)
			default:
				_, fields := split(t, whole(entry), false) // Index, Value, Err
				w.Entries += len(entry) - fields[1].Len
				w.Values += fields[1].Len
			}
		}
	}
	return w, recorded
}

// TestGetBatchBytesAttributed pins the client-connection bytes of one
// name-addressed cluster.GetBatch of n small-integer values, all homed on one
// server — one stream — per category. A successful entry is its bare value,
// no envelope at all: past the request's 15 B envelope, its 1 B nil index
// column and its names, a position costs a 2 B value and a 1 B length prefix,
// and the stream 2 B of request frame header and 4 B of chunk framing (3 B
// request header and 5 B of chunk framing at n=64, whose frames pass 127 B).
// The names ("obj-N") are in order, so each but the first says only what the
// one before it did not: 7 B for the first, 4 to 5 B for each after it. An
// unbound name's entry is the brmi.getbatch.entry struct, 15 B with its nil
// index and its registry.NotBound error.
func TestGetBatchBytesAttributed(t *testing.T) {
	for _, c := range []struct {
		n, unbound int
		want       streamBytes
	}{
		{1, 0, streamBytes{Header: 7, Envelope: 15, Names: 9, Indexes: 1, Values: 2}},
		{8, 0, streamBytes{Header: 14, Envelope: 15, Names: 38, Indexes: 1, Values: 16}},
		{64, 0, streamBytes{Header: 72, Envelope: 15, Names: 278, Indexes: 1, Values: 128}},
		{8, 1, streamBytes{Header: 14, Envelope: 15, Names: 38, Indexes: 1, Entries: 15, Values: 14}},
	} {
		// A stream the scheduler cut into two chunks (the server descheduled
		// for a whole linger) is legal, but not what is pinned: it is read
		// again, a few times, for one that went through in one chunk.
		var got streamBytes
		for attempt := 0; attempt < 5; attempt++ {
			var chunks int
			if got, chunks = getBatchBytes(t, c.n, c.unbound); chunks == 1 {
				break
			}
		}
		t.Logf("n=%d, %d unbound: %+v", c.n, c.unbound, got)
		if got != c.want {
			t.Errorf("n=%d, %d unbound: %+v, want %+v", c.n, c.unbound, got, c.want)
		}
	}
}

// getBatchBytes reads n names homed on one server, the first unbound of them
// not bound at all, through a tapped client, and attributes the bytes; it
// also reports how many chunks the stream took.
func getBatchBytes(t *testing.T, n, unbound int) (streamBytes, int) {
	t.Helper()
	ec := clustertest.New(t, 3, clustertest.Tapped())
	defer ec.Close()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := namesAt(dir, "server-0", n)
	for i, name := range names[unbound:] {
		ec.BindCounter(dir, name, int64(i%50))
	}
	client, tap := tappedClient(t, ec)
	s, err := cluster.GetBatch(context.Background(), client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; ; i++ {
		e, err := s.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if (e.Err != nil) != (i < unbound) || (e.Err == nil && e.Value != int64((i-unbound)%50)) {
			t.Fatalf("n=%d: entry %d = %+v", n, i, e)
		}
	}
	got, recorded := attributeStream(t, tap)
	if got.total() != recorded {
		t.Fatalf("n=%d: attributed %d of %d recorded bytes", n, got.total(), recorded)
	}
	chunks := 0
	_, ins := tap.Recorded()
	for _, in := range ins {
		for _, f := range decodeFrames(t, in) {
			if f.Kind == transport.KindChunk {
				chunks++
			}
		}
	}
	return got, chunks
}
