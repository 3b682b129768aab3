package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded from outside the program: around the public calls
// sut.go makes (client side) and inside the benchmark's own remote objects
// (server side). They stay in memory until the run ends.

type spanKind uint8

const (
	spanOp spanKind = iota // one whole client op: the root of its tree
	spanCoreRecord
	spanCoreFlush
	spanCoreSettle
	spanClusterResolve
	spanClusterRecord
	spanClusterFlush
	spanClusterSettle
	spanGetOpen
	spanGetFirst
	spanGetDrain
	spanApp // a remote object's method body
	numSpanKinds
)

// spanNames gives each kind its name and the layer whose public function
// it brackets. The op span belongs to the load generator itself.
var spanNames = [numSpanKinds]struct{ name, layer string }{
	spanOp:             {"op", "client"},
	spanCoreRecord:     {"core.record", "core"},
	spanCoreFlush:      {"core.flush", "core"},
	spanCoreSettle:     {"core.settle", "core"},
	spanClusterResolve: {"cluster.resolve", "cluster"},
	spanClusterRecord:  {"cluster.record", "cluster"},
	spanClusterFlush:   {"cluster.flush", "cluster"},
	spanClusterSettle:  {"cluster.settle", "cluster"},
	spanGetOpen:        {"cluster.getbatch_open", "cluster"},
	spanGetFirst:       {"cluster.getbatch_first", "cluster"},
	spanGetDrain:       {"cluster.getbatch_drain", "cluster"},
	spanApp:            {"app.exec", "app"},
}

type span struct {
	kind       spanKind
	op         uint64 // opID(client, seq); 0 when the call carried none
	start, end int64  // ns since traceEpoch
}

var traceEpoch = time.Now()

func nowNs() int64 { return int64(time.Since(traceEpoch)) }

// opID packs (client, sequence); sequence starts at 1 so an id is never 0.
func opID(client int, seq uint64) uint64 { return uint64(client)<<48 | seq }

// opSpans is one client goroutine's span buffer, unsynchronised. A nil
// *opSpans is tracing off: begin and end are nil checks.
type opSpans struct {
	op  uint64
	buf []span
}

func (s *opSpans) begin() int64 {
	if s == nil {
		return 0
	}
	return nowNs()
}

func (s *opSpans) end(k spanKind, start int64) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, span{kind: k, op: s.op, start: start, end: nowNs()})
}

// appSpans collects method-body spans from every serving goroutine.
type appSpans struct {
	mu  sync.Mutex
	buf []span
}

// appTrace is nil unless a traced round is running.
var appTrace atomic.Pointer[appSpans]

func appBegin() int64 {
	if appTrace.Load() == nil {
		return 0
	}
	return nowNs()
}

func appEnd(op uint64, start int64) {
	if start == 0 {
		return
	}
	end := nowNs()
	if a := appTrace.Load(); a != nil {
		a.mu.Lock()
		a.buf = append(a.buf, span{kind: spanApp, op: op, start: start, end: end})
		a.mu.Unlock()
	}
}

// traceSummary is what the span set yields: per kind the count and total
// duration, and per kind the self time (duration minus the part of it the
// span's children cover).
type traceSummary struct {
	count [numSpanKinds]int64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
	// flushBySize sums core.flush durations by the flush's call count.
	flushBySize map[int]*[2]int64 // size -> {count, total ns}
}

// parentOf places every span under its parent: a client-side span under
// its op's root, an app span under the client-side span of the same op it
// started in. It returns parent indexes (-1 for roots and orphans). spans
// must be sorted by (op, start).
func parentOf(spans []span) []int {
	parent := make([]int, len(spans))
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		root := -1
		for k := i; k < j; k++ {
			parent[k] = -1
			if spans[k].kind == spanOp {
				root = k
			}
		}
		if spans[i].op != 0 {
			for k := i; k < j; k++ {
				switch spans[k].kind {
				case spanOp:
				case spanApp:
					for c := i; c < j; c++ {
						if sc := spans[c]; sc.kind != spanOp && sc.kind != spanApp &&
							sc.start <= spans[k].start && spans[k].start < sc.end {
							parent[k] = c
							break
						}
					}
				default:
					parent[k] = root
				}
			}
		}
		i = j
	}
	return parent
}

// sortSpans orders spans by (op, start), the order parentOf expects.
func sortSpans(spans []span) {
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].op != spans[b].op {
			return spans[a].op < spans[b].op
		}
		return spans[a].start < spans[b].start
	})
}

// summarize computes totals and self times of sorted spans.
func summarize(spans []span) *traceSummary {
	parent := parentOf(spans)
	ts := &traceSummary{flushBySize: map[int]*[2]int64{}}
	// covered[i] accumulates the union of i's children, which arrive in
	// start order, so one running "covered up to" mark per parent suffices.
	covered := make([]int64, len(spans))
	mark := make([]int64, len(spans))
	children := make([]int, len(spans))
	for i, s := range spans {
		ts.count[s.kind]++
		ts.total[s.kind] += s.end - s.start
		p := parent[i]
		if p < 0 {
			continue
		}
		children[p]++
		lo, hi := max(s.start, spans[p].start, mark[p]), min(s.end, spans[p].end)
		if hi > lo {
			covered[p] += hi - lo
			mark[p] = hi
		}
	}
	for i, s := range spans {
		ts.self[s.kind] += s.end - s.start - covered[i]
		if s.kind == spanCoreFlush {
			// A flush's children are the method bodies it ran: its size.
			e := ts.flushBySize[children[i]]
			if e == nil {
				e = new([2]int64)
				ts.flushBySize[children[i]] = e
			}
			e[0]++
			e[1] += s.end - s.start
		}
	}
	return ts
}

// writeSpans writes the span set as one JSON array of
// {name, layer, op, parent, start_ns, end_ns}; ids are 1-based positions in
// the array and parent 0 means none. spans must be sorted.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	parent := parentOf(spans)
	w.WriteString("[")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",")
		}
		op := ""
		if s.op != 0 {
			op = fmt.Sprintf("%d/%d", s.op>>48, s.op&(1<<48-1))
		}
		line, _ := json.Marshal(map[string]any{
			"name": spanNames[s.kind].name, "layer": spanNames[s.kind].layer,
			"op": op, "parent": parent[i] + 1, "start_ns": s.start, "end_ns": s.end,
		})
		w.WriteString("\n")
		w.Write(line)
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
