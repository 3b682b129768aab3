package cluster

import "fmt"

// plan.go is the "plan" phase of the cluster flush pipeline: it turns the
// global recording log into a stage schedule. Stage 0 holds every call
// whose inputs are all immediate (roots, plain values, proxies and futures
// of its own destination); stage k holds the calls whose staged inputs —
// the ones that cross servers — settle in waves < k. Each stage is then
// partitioned per destination exactly like a single-stage flush, so a stage
// costs one parallel fan-out and a flush pays a wave only for the edges
// that really leave a server.

// input is one resolved dependency (an edge of the dataflow DAG): the call
// that produces a value this call consumes.
type input struct {
	producer *recordedCall
	// staged is true when the consumer can only run in a wave after the
	// producer's: the producer's result has to cross the network between
	// stages (a proxy forwarded to a different server, a future's value
	// spliced through the client into another server's wave).
	staged bool
	// export is true when the producer's result must be pinned as an
	// exported reference so the next wave can forward it by reference.
	export bool
}

// inputs enumerates c's dependencies: the call that created its target
// proxy, plus every proxy or future argument. Root proxies contribute
// nothing — their refs exist before the batch does.
func (c *recordedCall) inputs() []input {
	var in []input
	if o := c.target.origin; o != nil {
		// The target is always on the call's own server: same-stage
		// sub-batches resolve it by sequence number, chained sessions
		// across stages too, so the edge is never staged.
		in = append(in, input{producer: o})
	}
	for _, a := range c.args {
		switch x := a.(type) {
		case *Proxy:
			if x.origin == nil {
				continue
			}
			cross := x.group != c.group
			in = append(in, input{producer: x.origin, staged: cross, export: cross})
		case *Future:
			if x.origin == nil {
				continue
			}
			// A value consumed where it is produced is spliced by the server,
			// inside the wave (core.Proxy.Call takes the producer's future).
			// One bound for another server goes through the client, a wave
			// later; so does a cacheable read's, which may settle from
			// another batch's flight and never be sent at all.
			in = append(in, input{producer: x.origin, staged: x.origin.group != c.group || x.origin.ckey != ""})
		}
	}
	return in
}

// planStages assigns every call its execution stage and returns the stage
// count — the number of round-trip waves the flush needs:
//
//	stage(c) = max over unsettled inputs i of stage(i.producer) + (1 if i.staged)
//
// and never earlier than the stage c already has (0 for a fresh recording).
// It also marks producers whose results must be pinned server-side for
// cross-server forwarding (recordedCall.export). calls is a recording, or —
// for the stale-route retry, which re-plans after roots changed homes — the
// part of one no wave has run yet, in recording order: a settled producer
// constrains nothing, its result is already at the client or in its
// destination's session, and a value edge the move split across two homes
// pushes its consumer, and whatever hangs off it, into a later wave.
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
		for _, in := range c.inputs() {
			if in.producer.index >= c.index {
				return 0, fmt.Errorf("cluster: internal: recording is not topologically ordered: "+
					"%s (call %d) consumes the result of %s (call %d)",
					c.method, c.index, in.producer.method, in.producer.index)
			}
			if c.out.done || in.producer.out.done {
				continue // an edge with a settled end schedules nothing and pins nothing
			}
			if in.export {
				in.producer.export = true
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
