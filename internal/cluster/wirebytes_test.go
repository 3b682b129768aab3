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
	"reflect"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// wireBytes attributes a connection's bytes:
//   - Header: frame headers (transport);
//   - Envelope: the call and reply envelopes around a flush — object id,
//     argument and result slices, struct headers, session, root ids;
//   - Method: the call's method field;
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

// split returns the struct (or, with elems, the slice) at the front of b:
// its header length and the bytes of each field (element).
func split(t *testing.T, b []byte, elems bool) (int, [][]byte) {
	t.Helper()
	h, spans, err := wire.Fields(b)
	if elems {
		h, spans, err = wire.Elems(b)
	}
	if err != nil {
		t.Fatalf("split %x: %v", b, err)
	}
	parts := make([][]byte, len(spans))
	for i, s := range spans {
		parts[i] = b[s.Off : s.Off+s.Len]
	}
	return h, parts
}

// request attributes one call frame's payload if it is a flush — a call on
// the batch service — and reports whether it was.
func (w *wireBytes) request(t *testing.T, payload []byte) bool {
	h, call := split(t, payload, false) // rmi.call.req: ObjID, Method, Args
	if len(call) < 3 {
		return false
	}
	if id, err := wire.Unmarshal(call[0]); err != nil || id != rmi.BatchObjID {
		return false
	}
	w.Envelope += h + len(call[0])
	w.Method += len(call[1])
	ah, args := split(t, call[2], true)
	w.Envelope += ah
	rh, req := split(t, args[0], false) // brmi.req
	w.Envelope += rh
	for i, f := range req {
		switch i {
		case 1:
			w.Calls += len(f)
		case 7:
			w.Roots += len(f)
		case 8:
			w.Directive += len(f)
		case 9, 10:
			w.Push += len(f)
		default: // Root, Session, KeepSession, the reserved slot, Roots (ids), Policy
			w.Envelope += len(f)
		}
	}
	return true
}

// reply attributes the payload of a flush's reply.
func (w *wireBytes) reply(t *testing.T, payload []byte) {
	h, resp := split(t, payload, false) // rmi.call.resp: Results, Err
	w.Envelope += h
	for i, f := range resp {
		if i != 0 {
			w.Envelope += len(f)
			continue
		}
		eh, results := split(t, f, true)
		w.Envelope += eh
		rh, br := split(t, results[0], false) // brmi.resp
		w.Envelope += rh
		for j, g := range br {
			switch j {
			case 0:
				w.Results += len(g)
			case 3:
				w.Roots += len(g)
			case 4, 5:
				w.Directive += len(g)
			default: // Session, Restarts
				w.Envelope += len(g)
			}
		}
	}
}

// hopBytes attributes the calls servers send each other on one service —
// values pushed to an executor, records appended to a replication service —
// and their replies: how many calls, frame headers, the call envelope (struct
// header, object id, argument slice), the method, the one argument the call
// carries, and the whole reply.
type hopBytes struct {
	Calls, Header, Envelope, Method, Body, Reply int
}

// hops attributes, per receiving endpoint, every call ec's tapped servers
// sent to the service at objID. A primary past its write quorum still ships
// to, and hears from, its slower followers after the flush, so it waits, a
// bounded time, for what it records to be want, every call answered.
func hops(t *testing.T, ec *clustertest.Cluster, objID uint64, want map[string]hopBytes) map[string]hopBytes {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, unanswered := hopsSoFar(t, ec, objID)
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
				hdr, call := split(t, f.Payload, false) // rmi.call.req: ObjID, Method, Args
				if id, err := wire.Unmarshal(call[0]); err != nil || id != objID {
					continue
				}
				ah, args := split(t, call[2], true)
				if len(args) != 1 {
					t.Fatalf("a call to service %d carried %d arguments, want 1", objID, len(args))
				}
				calls[f.ID] = true
				h.Calls++
				h.Header += f.Header
				h.Envelope += hdr + len(call[0]) + ah
				h.Method += len(call[1])
				h.Body += len(args[0])
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
func TestFlushBytesAttributed(t *testing.T) {
	ctx := context.Background()

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
		}, wireBytes{Header: 13, Envelope: 93, Method: 6, Calls: 268, Results: 69, Roots: 132, Directive: 3, Push: 69}, rmi.BatchObjID, map[string]hopBytes{
			"server-0": pushHop, "server-1": pushHop, "server-2": pushHop,
		}},
		{"replicated_write", 3, 8, func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer) {
			dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(3))
			names := append(namesAt(dir, "server-0", 2), namesAt(dir, "server-1", 1)[0], namesAt(dir, "server-2", 1)[0])
			place(t, ec, dir, names...)
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
		}, wireBytes{Header: 13, Envelope: 93, Method: 6, Calls: 174, Results: 62, Roots: 132, Directive: 57}, rmi.ReplicaObjID, map[string]hopBytes{
			// server-0 follows the two primaries of one root each; the others
			// follow server-0, whose record carries its two roots.
			"server-0": {Calls: 2, Header: 10, Envelope: 14, Method: 4, Body: 310, Reply: 16},
			"server-1": {Calls: 2, Header: 10, Envelope: 14, Method: 4, Body: 390, Reply: 16},
			"server-2": {Calls: 2, Header: 10, Envelope: 14, Method: 4, Body: 390, Reply: 16},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
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
			if hops := hops(t, ec, c.svc, c.hops); !reflect.DeepEqual(hops, c.hops) {
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
