package cluster_test

// Every byte a flush puts on the client's connections, attributed to what it
// carries. Whatever a round trip carries besides its calls and their results
// is what a batch cannot amortise, so the bytes of one cluster_dataflow-shaped
// op and one replicated op are pinned per category, exactly.

import (
	"context"
	"testing"

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
//   - Other: every frame that is not a flush or its reply.
type wireBytes struct {
	Header, Envelope, Method, Calls, Results, Roots, Directive, Other int
}

func (w wireBytes) total() int {
	return w.Header + w.Envelope + w.Method + w.Calls + w.Results + w.Roots + w.Directive + w.Other
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

// tappedClient is a fresh client peer whose connections are recorded.
func tappedClient(t *testing.T, ec *clustertest.Cluster) (*rmi.Peer, *transport.Recorder) {
	tap := &transport.Recorder{Network: ec.Network.Host("tapped-client")}
	client := rmi.NewPeer(tap, rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return client, tap
}

// TestFlushBytesAttributed pins the client-connection bytes of one
// cluster_dataflow op — four named roots homed 2+1+1 on three servers, the
// a_i = Add, b_i = Apply(a_i), c = Apply(b_3) chain, six round trips — and of
// one replicated op — four named roots, two Adds each, R=3 and W=2 — per
// category. Both run on a virtual clock, so the reply's ship lag is the
// constant a clock that saw no time pass reports.
func TestFlushBytesAttributed(t *testing.T) {
	ctx := context.Background()

	cases := []struct {
		name  string
		trips int
		calls int
		run   func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer)
		want  wireBytes
	}{
		{"cluster_dataflow", 6, 9, func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer) {
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
		}, wireBytes{Header: 24, Envelope: 165, Method: 12, Calls: 238, Results: 75, Roots: 132}},
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
		}, wireBytes{Header: 13, Envelope: 93, Method: 6, Calls: 174, Results: 62, Roots: 132, Directive: 57}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := netsim.NewVirtualClock()
			t.Cleanup(clk.Stop)
			network := netsim.New(netsim.Instant, netsim.WithClock(clk))
			t.Cleanup(func() { _ = network.Close() })
			ec := clustertest.New(t, 3, clustertest.WithNetwork(network))
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
				{"other", got.Other, c.want.Other},
			} {
				if line.got != line.want {
					t.Errorf("%s: %d B, want %d", line.name, line.got, line.want)
				}
			}
		})
	}
}
