package cluster

import "fmt"

// plan.go is the "plan" phase of the cluster flush pipeline: it turns the
// global recording log into a stage schedule. Stage 0 holds every call
// whose inputs are all immediate (roots, plain values, and the results of
// other calls, which the servers hand over inside the wave); stage k holds
// the calls whose staged inputs settle in waves < k. Each stage is then
// partitioned per destination exactly like a single-stage flush, so a stage
// costs one parallel fan-out, and a flush pays a wave only for the edges that
// need the client between their ends. Every wave is a self-contained request,
// and a remote result lives only in the wave that produced it: a call that
// would take one in a later wave is refused before anything is sent
// (outlives). The recording holds the caller's calls only, and every edge
// carries a value or an object: what the lease cache re-reads rides a request
// after its calls (leases.go), unplanned.

// input is one resolved dependency (an edge of the dataflow DAG): the call
// that produces a value or object this call consumes.
type input struct {
	producer *recordedCall
	// staged is true when the consumer can only run in a wave after the
	// producer's: the producer's value goes through the client between
	// stages, spliced in as a literal.
	staged bool
}

// inputs enumerates c's dependencies: the call that created its target
// proxy, plus every proxy or future argument. Root proxies contribute
// nothing — their refs exist before the batch does.
func (c *recordedCall) inputs() []input {
	var in []input
	if o := c.target.origin; o != nil {
		// The target is always on the call's own server, where the same
		// request resolves it by sequence number: never staged.
		in = append(in, input{producer: o})
	}
	b := c.target.b
	for _, a := range c.args {
		var o *recordedCall
		switch x := a.(type) {
		case *Proxy:
			o = x.origin
		case *Future:
			o = x.origin
		}
		if o == nil {
			continue
		}
		// A result consumed where it is produced is handed over by the
		// server, inside the request; one bound for another server is pushed
		// there by the producer's, inside the wave (core.Batch.PushTo) — a
		// remote result as its exported reference. One shape still goes
		// through the client, a wave later: a replicated wave's, which is not
		// durable until its quorum holds it — pushed at once, a result the
		// quorum then misses would outlive it in another shard. A staged
		// remote result is refused (outlives): only its value could wait for
		// a later wave.
		in = append(in, input{producer: o, staged: o.group != c.group && b.replicates(o.group)})
	}
	return in
}

// planStages assigns every call its execution stage and returns the stage
// count — the number of round-trip waves the flush needs:
//
//	stage(c) = max over unsettled inputs i of stage(i.producer) + (1 if i.staged)
//
// and never earlier than the stage c already has (0 for a fresh recording).
// calls is a recording, or — for the stale-route retry, which re-plans after
// roots changed homes — the part of one no wave has run yet, in recording
// order: a settled producer constrains nothing, its value is already at the
// client, and a value edge the move split across two homes is one more push.
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
				continue // an edge with a settled end schedules nothing
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

// outlives returns the refusal of c when it takes a remote result that would
// have to outlive the wave that produced it: a remote result lives in its
// wave's request on its own server and, pushed, in that wave's requests on
// other servers, and nowhere after. So c must not run in a later wave than
// such an input's — staged behind a replicated value, say, or the staged
// result itself — nor take one a settled wave produced (a stale-route retry,
// which re-plans c after that wave ran). On a replicating destination c must
// not take another of the destination's roots, or a remote result one
// produced, either: its followers need not hold that root (ErrCrossRoot).
// Caller holds b.mu.
func outlives(c *recordedCall) *CrossWaveError {
	if c.out.done {
		return nil
	}
	for _, in := range c.inputs() {
		p := in.producer
		if p.kind == kindRemote && (p.stage < c.stage || (p.out.done && p.out.err == nil)) {
			return &CrossWaveError{Endpoint: c.group.endpoint, Method: c.method, Producer: p.method}
		}
	}
	if !c.target.b.replicates(c.group) {
		return nil
	}
	for _, a := range c.args {
		if x, ok := a.(*Proxy); ok && x.group == c.group && rootOf(x) != rootOf(c.target) {
			producer := x.key // a root of a replicating destination has a name
			if x.origin != nil {
				producer = x.origin.method
			}
			return &CrossWaveError{Endpoint: c.group.endpoint, Method: c.method, Producer: producer, Cause: ErrCrossRoot}
		}
	}
	return nil
}
