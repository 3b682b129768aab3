package cluster

import (
	"repro/internal/core"
	"repro/internal/rcache"
)

// Call kinds a cluster recording can hold. They mirror the core package's
// value/remote split; cluster batches do not record cursors (use a
// single-server core.Batch for cursor workloads).
const (
	kindValue  = 1 // result returns to a Future
	kindRemote = 2 // result is a remote object kept server-side
)

// recordedCall is one entry of the cluster-wide recording log, in global
// recording order. The planner annotates it (stage); the executor settles
// it.
type recordedCall struct {
	// index is the call's position in the global recording log. Recording
	// order is a topological order of the dependency DAG — a proxy or
	// future must be returned before it can be passed — which is what lets
	// the planner schedule in one forward pass.
	index  int
	group  *group
	kind   int
	target *Proxy
	method string
	args   []any
	proxy  *Proxy // kindRemote: the proxy the caller holds
	// out is the call's outcome, inside the future or proxy the caller
	// holds; settle writes it once.
	out *outcome

	// stage is the round-trip wave this call executes in (planner).
	stage int
	// sent is a kindValue call's core future in the wave carrying it; the
	// wave copies its outcome out once (settle).
	sent *core.Future
	// consumers are the calls recorded with this call's future or proxy as
	// an argument: the ones of its own wave on other servers get its result
	// pushed (core.Batch.PushTo).
	consumers []*recordedCall

	// lease is, on a cacheable call recorded through CallRO (leases.go), its
	// key and the stale-fill ticket taken at record time; its value is filed
	// under it where the call settles (run.settleSub).
	lease rcache.Lease
}

// group is one batch destination: a server endpoint and everything recorded
// against objects living there. All of a group's roots fold into one
// multi-root core.Batch (core.Batch.AddRoot), so a destination costs one
// round trip per stage it participates in, no matter how many objects it
// serves.
type group struct {
	endpoint string
	// roots are the group's batch roots — the proxies handed to the caller —
	// in registration order.
	roots []*Proxy
}

// subBatch is one partition of a stage: every call of that stage bound for
// one destination, in the order it was recorded.
type subBatch struct {
	group *group
	calls []*recordedCall
}

// partition splits a slice of the recording log into per-destination
// sub-batches. It is a stable partition: within each sub-batch the calls
// keep their global recording order, which preserves per-server program
// order within the stage — the invariant that makes server-side replay of
// each sub-batch equivalent to the original interleaved program.
// Sub-batches are ordered by the first appearance of their destination.
//
// Sub-batches of one stage have no mutual dependencies (the planner put
// every staged input in an earlier stage), so they execute concurrently.
func partition(calls []*recordedCall) []*subBatch {
	var order []*subBatch
	byGroup := make(map[*group]*subBatch)
	for _, c := range calls {
		sb, ok := byGroup[c.group]
		if !ok {
			sb = &subBatch{group: c.group}
			byGroup[c.group] = sb
			order = append(order, sb)
		}
		sb.calls = append(sb.calls, c)
	}
	return order
}

// repoint files every call of calls, and the proxy it produces, under the
// destination of the root it descends from, after roots changed homes; a
// result proxy forgets the core proxy of the destination it left.
func repoint(calls []*recordedCall) {
	for _, c := range calls {
		g := rootOf(c.target).group
		if c.proxy != nil && c.proxy.group != g {
			c.proxy.core = nil
		}
		c.group, c.target.group = g, g
		if c.proxy != nil {
			c.proxy.group = g
		}
	}
}
