package cluster

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// plan.go is the "plan" phase of the cluster flush pipeline: it turns the
// global recording log into a stage schedule. Stage 0 holds every call
// whose inputs are all immediate (roots, plain values, proxies of its own
// destination, and futures, which the servers hand over inside the wave);
// stage k holds the calls whose staged inputs settle in waves < k. Each stage
// is then partitioned per destination exactly like a single-stage flush, so
// a stage costs one parallel fan-out, and a flush pays a wave only for the
// edges that need the client between their ends. Every wave is a
// self-contained request: a remote result a later wave consumes — on its own
// server or another — is pinned by its producer's wave and enters the later
// one by reference. A replicated destination cannot take one of its own that
// way (unreplicable).

// input is one resolved dependency (an edge of the dataflow DAG): the call
// that produces a value this call consumes.
type input struct {
	producer *recordedCall
	// staged is true when the consumer can only run in a wave after the
	// producer's: the producer's result goes through the client between
	// stages (a proxy forwarded to a different server by reference, a
	// future's value spliced in as a literal).
	staged bool
	// order is true when the edge only orders the consumer behind the
	// producer and carries no value: a lease's re-read behind a write of
	// its root. It pins nothing.
	order bool
}

// inputs enumerates c's dependencies: the call that created its target
// proxy, plus every proxy or future argument. Root proxies contribute
// nothing — their refs exist before the batch does.
func (c *recordedCall) inputs() []input {
	var in []input
	if o := c.target.origin; o != nil {
		// The target is always on the call's own server: the same request
		// resolves it by sequence number, a later wave takes it as a pinned
		// root, so the edge is never staged.
		in = append(in, input{producer: o})
	}
	for _, w := range c.after {
		// A lease's re-read follows the writes of its root, on the same
		// server: never staged.
		in = append(in, input{producer: w, order: true})
	}
	for _, a := range c.args {
		switch x := a.(type) {
		case *Proxy:
			if x.origin == nil {
				continue
			}
			in = append(in, input{producer: x.origin, staged: x.group != c.group})
		case *Future:
			if x.origin == nil {
				continue
			}
			// A value consumed where it is produced is spliced by the server,
			// inside the request (core.Proxy.Call takes the producer's future);
			// one bound for another server is pushed there by the producer's,
			// inside the wave (core.Batch.PushTo). Two shapes still go
			// through the client, a wave later: a replicated wave's, which is
			// not durable until its quorum holds it — pushed at once, a value
			// the quorum then misses would outlive it in another shard; and
			// any cross-server value of a flush whose policy can run a call
			// twice, which would push twice.
			o, b := x.origin, c.target.b
			in = append(in, input{producer: o, staged: o.group != c.group && (b.replicates(o.group) || b.reruns())})
		}
	}
	return in
}

// reruns reports whether the batch's policy can re-run a whole sub-batch
// (core.ActionRestart): a re-run would execute a pushing producer again.
func (b *Batch) reruns() bool {
	p := b.policy
	return p != nil && (p.Default == core.ActionRestart ||
		slices.ContainsFunc(p.Rules, func(r core.Rule) bool { return r.Act == core.ActionRestart }))
}

// planStages assigns every call its execution stage and returns the stage
// count — the number of round-trip waves the flush needs:
//
//	stage(c) = max over unsettled inputs i of stage(i.producer) + (1 if i.staged)
//
// and never earlier than the stage c already has (0 for a fresh recording).
// It also marks the remote producers whose results a later wave consumes, to
// be pinned server-side (recordedCall.export). calls is a recording, or —
// for the stale-route retry, which re-plans after roots changed homes — the
// part of one no wave has run yet, in recording order: a settled producer
// constrains nothing, its result is already at the client or pinned at its
// destination, and a value edge the move split across two homes is one more
// push.
//
// Recording order is necessarily a topological order of the dependency
// DAG — a proxy or future must be returned by a recording call before it
// can be passed as a target or argument — so a cyclic recording is
// impossible by construction and one forward pass settles every stage.
// planStages asserts the invariant and reports an internal error rather
// than scheduling nonsense if a caller ever violates it.
func planStages(calls []*recordedCall) (int, error) {
	stages := 0
	last := -1
	for _, c := range calls {
		if c.index <= last {
			return 0, fmt.Errorf("cluster: internal: call %s has log index %d after index %d",
				c.method, c.index, last)
		}
		last = c.index
		s := c.stage
		ins := c.inputs()
		for _, in := range ins {
			if in.producer.index >= c.index {
				return 0, fmt.Errorf("cluster: internal: recording is not topologically ordered: "+
					"%s (call %d) consumes the result of %s (call %d)",
					c.method, c.index, in.producer.method, in.producer.index)
			}
			if c.out.done || in.producer.out.done {
				continue // an edge with a settled end schedules nothing and pins nothing
			}
			earliest := in.producer.stage
			if in.staged {
				earliest++
			}
			if earliest > s {
				s = earliest
			}
		}
		c.stage = s
		for _, in := range ins {
			if p := in.producer; p.kind == kindRemote && !in.order && p.stage < s && !c.out.done && !p.out.done {
				p.export = true
			}
		}
		if s+1 > stages {
			stages = s + 1
		}
	}
	return stages, nil
}

// buildStages groups the recording by stage, preserving global recording
// order within each stage, and partitions every stage per destination.
func buildStages(calls []*recordedCall, stages int) [][]*subBatch {
	byStage := make([][]*recordedCall, stages)
	for _, c := range calls {
		byStage[c.stage] = append(byStage[c.stage], c)
	}
	out := make([][]*subBatch, stages)
	for s, cs := range byStage {
		out[s] = partition(cs)
	}
	return out
}

// unreplicable returns the refusal of c when it is the one shape a replicated
// destination cannot run wave by wave: c consumes, in a later wave, a remote
// result its own destination produced in an earlier one. A follower replays
// each wave on its own, and has no such result to resolve. Caller holds b.mu.
func (b *Batch) unreplicable(c *recordedCall) error {
	if c.out.done || !b.replicates(c.group) {
		return nil
	}
	for _, in := range c.inputs() {
		p := in.producer
		if p.kind == kindRemote && !in.order && p.group == c.group && (p.stage < c.stage || (p.out.done && p.out.err == nil)) {
			return &UnreplicableError{Endpoint: c.group.endpoint, Method: c.method, Producer: p.method}
		}
	}
	return nil
}
