package cluster_test

// Every byte a flush puts on the client's connections, attributed to what it
// carries. Whatever a round trip carries besides its calls and their results
// is what a batch cannot amortise, so the bytes of one cluster_dataflow-shaped
// op and one replicated op are pinned per category, exactly, in the committed
// cluster ledger BENCH_cluster.json. What the servers send each other on the
// op's behalf — the values one pushes to another, the records a primary
// appends to its followers — is pinned the same way: a client round trip
// saved is not paid for in hidden server traffic. A value that crosses
// servers inside a wave costs its edge a fixed budget: its producer adds 3 B
// to its request's push column, its consumer's argument is a 5 B
// brmi.pushed, and the servers exchange one pushHop (TestPushCostPerEdge);
// a flush with no such edge carries no flush id and no peers.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
//     results — struct headers, the session word, root ids, the retired
//     slots, the policy;
//   - Method: the call's method field, which a flush, being a bare brmi.req,
//     no longer has;
//   - Calls: the request's recorded calls;
//   - Results: the reply's call results;
//   - Roots: the request's root names and the reply's resolved roots;
//   - Directive: the request's ship directive and the reply's ship outcome;
//   - Push: the request's flush field — the flush id, the peers its calls
//     push values to and the push column of the calls that do;
//   - Other: every frame that is not a flush or its reply.
type wireBytes struct {
	Header    int `json:"header"`
	Envelope  int `json:"envelope"`
	Method    int `json:"method"`
	Calls     int `json:"calls"`
	Results   int `json:"results"`
	Roots     int `json:"roots"`
	Directive int `json:"directive"`
	Push      int `json:"push"`
	Other     int `json:"other"`
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
// session word or the flush field, Roots, Ship, two retired slots, Policy.
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
		case 2: // the session word, or a cluster flush's flush field (kBytes)
			if f.bytes()[0] == 9 {
				w.Push += f.Len
			} else {
				w.Envelope += f.Len
			}
		case 4:
			w.Directive += f.Len
		default: // the retired slots, the policy
			w.Envelope += f.Len
		}
	}
	return true
}

// reply attributes the payload of a flush's reply, a bare brmi.resp:
// Results, Session, ShipUs, ShipErr, Roots, Restarts.
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
	Calls    int `json:"calls"`
	Header   int `json:"header"`
	Envelope int `json:"envelope"`
	Method   int `json:"method"`
	Body     int `json:"body"`
	Reply    int `json:"reply"`
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
// push (kStd brmi.push) carries the flush id (9 B: 56 bits with bit 55 set),
// the producer's tag, the value and no error.
var pushHop = hopBytes{Calls: 1, Header: 4, Envelope: 7, Method: 2, Body: 16, Reply: 5}

// tappedClient is a fresh client peer whose connections are recorded.
func tappedClient(t *testing.T, ec *clustertest.Cluster) (*rmi.Peer, *transport.Recorder) {
	tap := &transport.Recorder{Network: ec.Network.Host("tapped-client")}
	client := rmi.NewPeer(tap, rmi.WithLogf(clustertest.SilentLogf))
	t.Cleanup(func() { _ = client.Close() })
	return client, tap
}

var update = flag.Bool("update", false, "rewrite BENCH_cluster.json's current rows from the counts")

// ledgerPath is the committed cluster ledger, at the repository root.
const ledgerPath = "../../BENCH_cluster.json"

// ledgerCurrent labels the rows TestFlushBytesAttributed gates and -update
// rewrites; every other row is an earlier state of the same op, kept beside
// it as it was committed.
const ledgerCurrent = "current"

// ledgerRow is one op's bytes as BENCH_cluster.json holds them: its client
// round trips and calls, its client bytes in all and per category, and what
// each server received from the others on its behalf.
type ledgerRow struct {
	Op     string              `json:"op"`
	Row    string              `json:"row"`
	Trips  int                 `json:"trips"`
	Calls  int                 `json:"calls"`
	Total  int                 `json:"total"`
	Client wireBytes           `json:"client"`
	Hops   map[string]hopBytes `json:"hops"`
}

// ledger is BENCH_cluster.json.
type ledger struct {
	What string      `json:"what"`
	Rows []ledgerRow `json:"rows"`
}

// ledgerWhat states what the ledger's rows count.
const ledgerWhat = "client-connection bytes of one op per category, and per receiving server the calls the servers made each other for it (internal/cluster TestFlushBytesAttributed; -update rewrites the current rows)"

// readLedger reads the committed ledger.
func readLedger(t *testing.T) ledger {
	t.Helper()
	b, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		t.Fatalf("%s: %v", ledgerPath, err)
	}
	return l
}

// row returns op's row labelled label, if the ledger has one.
func (l ledger) row(op, label string) (ledgerRow, bool) {
	for _, r := range l.Rows {
		if r.Op == op && r.Row == label {
			return r, true
		}
	}
	return ledgerRow{}, false
}

// encode lays the ledger out a row per line, so a change diffs as rows.
func (l ledger) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"what\": %s,\n  \"rows\": [\n", mustJSON(l.What))
	for i, r := range l.Rows {
		sep := ","
		if i == len(l.Rows)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %s%s\n", mustJSON(r), sep)
	}
	b.WriteString("  ]\n}\n")
	return b.Bytes()
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestFlushBytesAttributed pins the client-connection bytes of one
// cluster_dataflow op — four named roots homed 2+1+1 on three servers, the
// a_i = Add, b_i = Apply(a_i), c = Apply(b_3) chain, one wave of three round
// trips — and of one replicated op — four named roots, two Adds each, R=3 and
// W=2 — per category, and what the servers send each other for them: the
// three values pushed along the dataflow's edges that cross servers, one to
// each home (pushHop each), and the replicated op's Append records, two to
// each follower — one from each of the other two primaries. Both run on a
// virtual clock, so the reply's ship lag is the constant a clock that saw no
// time pass reports. A request's second root name says only what its first
// did not (a kStrDelta), and so does server-0's record's second root in the
// Appends it sends.
//
// The counts are held exactly to the current rows of BENCH_cluster.json;
// with -update the test rewrites those rows instead, keeping every earlier
// row, once both ops ran and nothing else failed. In the replicated op,
// server-0 follows the two primaries of one root each, and the others follow
// server-0, whose record carries its two roots; a record carries no ID.
func TestFlushBytesAttributed(t *testing.T) {
	ctx := context.Background()
	committed := readLedger(t)
	// placed is what the servers had sent each other when the op's set-up
	// ended: the placement that seeds a replicated op's followers is the
	// primaries' Installs, and the hops pinned are the op's alone.
	var placed map[string]hopBytes

	cases := []struct {
		name  string
		trips int
		calls int
		run   func(t *testing.T, ec *clustertest.Cluster, client *rmi.Peer)
		// svc is the service the servers call each other on for the op.
		svc uint64
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
		}, rmi.BatchObjID},
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
		}, rmi.ReplicaObjID},
	}
	var rows []ledgerRow
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, ok := committed.row(c.name, ledgerCurrent)
			if !ok && !*update {
				t.Fatalf("%s has no %q row (rerun with -update)", ledgerPath, ledgerCurrent)
			}
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
			row := ledgerRow{Op: c.name, Row: ledgerCurrent, Trips: c.trips, Calls: c.calls, Total: recorded, Client: got,
				Hops: hops(t, ec, c.svc, placed, want.Hops)}
			rows = append(rows, row)
			if *update {
				return
			}
			for _, line := range []struct {
				name      string
				got, want int
			}{
				{"total", row.Total, want.Total},
				{"frame headers", got.Header, want.Client.Header},
				{"call envelope", got.Envelope, want.Client.Envelope},
				{"method", got.Method, want.Client.Method},
				{"calls", got.Calls, want.Client.Calls},
				{"results", got.Results, want.Client.Results},
				{"roots", got.Roots, want.Client.Roots},
				{"directive", got.Directive, want.Client.Directive},
				{"push", got.Push, want.Client.Push},
				{"other", got.Other, want.Client.Other},
			} {
				if line.got != line.want {
					t.Errorf("%s: %d B, want %d (BENCH_cluster.json)", line.name, line.got, line.want)
				}
			}
			if row.Trips != want.Trips || row.Calls != want.Calls {
				t.Errorf("%d trips and %d calls, the ledger says %d and %d", row.Trips, row.Calls, want.Trips, want.Calls)
			}
			if !reflect.DeepEqual(row.Hops, want.Hops) {
				t.Errorf("server-to-server calls received %+v, want %+v (BENCH_cluster.json)", row.Hops, want.Hops)
			}
		})
	}
	if !*update {
		return
	}
	if t.Failed() || len(rows) != len(cases) {
		t.Fatalf("%d of %d ops counted, or one failed: %s not rewritten", len(rows), len(cases), ledgerPath)
	}
	next := ledger{What: ledgerWhat}
	for _, r := range rows {
		for _, old := range committed.Rows {
			if old.Op == r.Op && old.Row != ledgerCurrent {
				next.Rows = append(next.Rows, old)
			}
		}
		next.Rows = append(next.Rows, r)
	}
	if err := os.WriteFile(ledgerPath, next.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPushBytesByPlacement: the client round trips TestDataflowCostByPlacement
// saves are not paid for in hidden server traffic. What one cluster_dataflow op
// costs the servers is one push per a_i → b_i edge that crosses servers — its
// producer's server sends the consumer's the value, once — of pushHop's bytes
// each, and nothing else; and what it costs the client link is pinned beside
// it.
func TestPushBytesByPlacement(t *testing.T) {
	for _, tc := range []struct {
		name   string
		homes  []int
		pushes int
		client int // bytes on the client's connections
	}{
		{"co-located", []int{0, 0, 0, 0}, 0, 175},
		{"four homes", []int{0, 1, 2, 3}, 4, 300},
		{"pairs, adjacent", []int{0, 0, 1, 1}, 2, 229},
		{"pairs, alternating", []int{0, 1, 0, 1}, 4, 235},
		{"3+1", []int{0, 0, 0, 1}, 2, 229},
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
			client, tap := tappedClient(t, ec)
			flushDataflow(t, ec, client, cluster.NewDirectory(ec.Client, ec.Endpoints()), tc.homes)

			n := tc.pushes
			want := hopBytes{Calls: n, Header: n * pushHop.Header, Envelope: n * pushHop.Envelope, Method: n * pushHop.Method, Body: n * pushHop.Body, Reply: n * pushHop.Reply}
			if got := sumHops(hopsSettled(t, ec, rmi.BatchObjID)); got != want {
				t.Errorf("servers pushed %+v, want %+v", got, want)
			}
			if got := replicaCounters(ec, "core.value_pushes"); got != int64(n) {
				t.Errorf("core.value_pushes = %d over the servers, want %d", got, n)
			}
			got, recorded := attribute(t, tap)
			t.Logf("%s: %d client bytes: %+v", tc.name, recorded, got)
			if recorded != tc.client {
				t.Errorf("the client's connections carried %d B, want %d", recorded, tc.client)
			}
			if (got.Push == 0) != (n == 0) {
				t.Errorf("%d pushes, and %d B of flush ids and peers", n, got.Push)
			}
		})
	}
}

// The per-edge budget on the client link (see the file comment): what a
// producer adds to its request's push column for one peer, and what a pushed
// argument costs.
const (
	producerBudget = 3
	consumerBudget = 5
)

// TestPushCostPerEdge: on two servers, k values of one root's Adds cross to
// the other's, one edge each. Against the same flush with each consumer's
// argument a literal (int64 1, 2 B) instead — no edge, so no flush id and no
// peers anywhere — every edge after the first adds exactly producerBudget to
// the push bytes and consumerBudget − 2 to the calls, and one pushHop between
// the servers.
func TestPushCostPerEdge(t *testing.T) {
	flush := func(t *testing.T, k int, pushed bool) (wireBytes, hopBytes) {
		clk := netsim.NewVirtualClock()
		t.Cleanup(clk.Stop)
		network := netsim.New(netsim.Instant, netsim.WithClock(clk))
		t.Cleanup(func() { _ = network.Close() })
		ec := clustertest.New(t, 2, clustertest.WithNetwork(network), clustertest.Tapped())
		t.Cleanup(ec.Close)
		dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
		names := []string{namesAt(dir, "server-0", 1)[0], namesAt(dir, "server-1", 1)[0]}
		client, tap := tappedClient(t, ec)
		ctx := context.Background()
		b := cluster.New(client, cluster.WithDirectory(dir))
		var roots []*cluster.Proxy
		for _, name := range names {
			ec.BindCounter(dir, name, 0)
			p, err := b.RootNamed(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			roots = append(roots, p)
		}
		var futs []*cluster.Future
		for i := 0; i < k; i++ {
			a := roots[0].Call("Add", int64(1))
			var arg any = int64(1)
			if pushed {
				arg = a
			}
			futs = append(futs, a, roots[1].Call("Add", arg))
		}
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		for i, f := range futs {
			if _, err := f.Get(); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		if b.Waves() != 1 {
			t.Fatalf("%d waves, want 1", b.Waves())
		}
		got, _ := attribute(t, tap)
		return got, sumHops(hopsSettled(t, ec, rmi.BatchObjID))
	}
	var prev wireBytes
	for k := 1; k <= 3; k++ {
		literal, none := flush(t, k, false)
		edges, pushes := flush(t, k, true)
		if literal.Push != 0 || none != (hopBytes{}) {
			t.Errorf("k=%d without an edge: %d B of flush ids and peers, servers pushed %+v; want none", k, literal.Push, none)
		}
		if want := (hopBytes{Calls: k, Header: k * pushHop.Header, Envelope: k * pushHop.Envelope, Method: k * pushHop.Method, Body: k * pushHop.Body, Reply: k * pushHop.Reply}); pushes != want {
			t.Errorf("k=%d: servers pushed %+v, want %d pushHops", k, pushes, k)
		}
		delta := wireBytes{Calls: edges.Calls - literal.Calls, Push: edges.Push}
		t.Logf("k=%d edges: %+v over the literal flush's %+v; calls +%d B, push %d B", k, edges, literal, delta.Calls, delta.Push)
		if delta.Calls != k*(consumerBudget-2) {
			t.Errorf("k=%d: the consumers' calls grew %d B, want %d: a pushed argument costs %d B", k, delta.Calls, k*(consumerBudget-2), consumerBudget)
		}
		if k > 1 && delta.Push-prev.Push != producerBudget {
			t.Errorf("k=%d: edge %d added %d B of push bytes, want %d", k, k, delta.Push-prev.Push, producerBudget)
		}
		prev = delta
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
