package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/statsnode"
	"repro/internal/wire"
)

// checkInvariants runs the model checks against the quiesced cluster. The
// network is healed and the membership reconciled by the time it runs, so
// every remaining mismatch is a genuine violation, not an in-flight state.
func (r *runner) checkInvariants(ctx context.Context) {
	logs := r.collectLogs(ctx)
	if logs == nil {
		return // collection itself recorded the violation
	}
	r.checkProgramOrder(logs)
	r.checkAtMostOnce(logs)
	r.checkFailureIsolation(logs)
	r.checkCachedReads(logs)
	r.checkStreamPrefix()
	r.checkConvergence(ctx, logs)
	r.checkEpochs(ctx)
	// Counters last: checkEpochs runs a final cluster flush, and its calls
	// (retries included) must be on the books before the tally.
	r.checkCounters(ctx)
}

// collectLogs resolves every bound name to its authoritative counter and
// reads its applied-delta log in-process (the harness owns the server
// objects, so no wire traffic can distort the evidence).
func (r *runner) collectLogs(ctx context.Context) map[string][]int64 {
	logs := make(map[string][]int64, len(r.prog.names))
	for _, name := range r.prog.names {
		ctr, ref, err := r.counterFor(ctx, name)
		if err != nil {
			r.violate("migration convergence: %s unresolvable after quiesce: %v", name, err)
			return nil
		}
		log := ctr.History()
		logs[name] = log
		// Self-consistency: the total is exactly the sum of the log (chaos
		// counters are seeded with 0 and mutated only through Apply).
		var sum int64
		for _, d := range log {
			sum += d
		}
		if got := ctr.Get(); got != sum {
			r.violate("state consistency: %s total %d != sum of log %d (ref %v)", name, got, sum, ref)
		}
	}
	return logs
}

// counterFor resolves name through the directory and returns the live
// *clustertest.Counter behind its authoritative reference.
func (r *runner) counterFor(ctx context.Context, name string) (*clustertest.Counter, wire.Ref, error) {
	lctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	ref, err := r.dir.Lookup(lctx, name)
	if err != nil {
		return nil, wire.Ref{}, err
	}
	s := r.tc.Server(ref.Endpoint)
	if s == nil {
		return nil, ref, fmt.Errorf("resolves to unknown endpoint %q", ref.Endpoint)
	}
	obj, ok := s.Peer.LocalObject(ref.ObjID)
	if !ok {
		return nil, ref, fmt.Errorf("ref %v not exported at its endpoint", ref)
	}
	ctr, ok := obj.(*clustertest.Counter)
	if !ok {
		return nil, ref, fmt.Errorf("ref %v resolves to a %T, not a Counter", ref, obj)
	}
	return ctr, ref, nil
}

// checkProgramOrder: invariant 1 — per root (per name), applied tokens
// appear in issue order. The workload chains same-name calls within a
// flush and flushes sequentially across ops, so the issue sequence is the
// authoritative order; faults may drop effects (holes are legal under
// documented windows) but must never reorder them.
func (r *runner) checkProgramOrder(logs map[string][]int64) {
	for name, log := range logs {
		issued := r.issued[name]
		pos := make(map[int64]int, len(issued))
		for i, tok := range issued {
			pos[tok] = i + 1 // 1-based; 0 means never issued
		}
		last := 0
		for i, tok := range log {
			p := pos[tok]
			if p == 0 {
				r.violate("program order: %s log[%d] holds token %d that was never issued for it", name, i, tok)
				continue
			}
			if p <= last {
				r.violate("program order: %s applied token %d (issue #%d) after issue #%d — recording order not preserved (log %v)",
					name, tok, p, last, log)
			}
			if p > last {
				last = p
			}
		}
	}
}

// checkAtMostOnce: invariant 2 — no token is applied twice anywhere:
// redials must not replay frames, wrong-home retries must not re-execute
// delivered waves, and re-run migrations must not double-restore.
func (r *runner) checkAtMostOnce(logs map[string][]int64) {
	seen := make(map[int64]string)
	for name, log := range logs {
		for _, tok := range log {
			if prev, ok := seen[tok]; ok {
				r.violate("at-most-once: token %d applied twice (%s and %s)", tok, prev, name)
			}
			seen[tok] = name
		}
	}
}

// checkFailureIsolation: invariant 3 — per flush: a failed dependency fails
// its dependents; a flush reporting overall success settled every future
// cleanly, and (outside documented migration windows) its effects are all
// present.
func (r *runner) checkFailureIsolation(logs map[string][]int64) {
	applied := make(map[int64]bool)
	for _, log := range logs {
		for _, tok := range log {
			applied[tok] = true
		}
	}
	for fi, f := range r.flushes {
		for i, c := range f.calls {
			if c.Dep >= 0 && f.outcomes[c.Dep] != nil && f.outcomes[i] == nil {
				r.violate("failure isolation: flush %d call %d succeeded although its dependency (call %d) failed: %v",
					fi, i, c.Dep, f.outcomes[c.Dep])
			}
			if f.outcomes[i] != nil && c.Dep >= 0 && f.outcomes[c.Dep] != nil {
				// A dependent whose dependency failed before it ran must not
				// have run: its effect being present is a real leak. Two
				// exceptions. A replication quorum miss — the wave DID execute
				// on its primary (the error reports lost durability, not a lost
				// write), so the dependent's effect being present is the
				// correct outcome. And a dependency whose value reached the
				// dependent inside their wave — in its own sub-batch, or pushed
				// by its server — and whose reply was lost: the dependent ran
				// on a value that existed, and fails with the dependency at the
				// client; the dependency's own token being applied tells that
				// case from a leak. Only an unreplicated cluster pushes (a
				// replicated producer's value goes through the client, a wave
				// later), so with replicas only a same-server dependent is
				// exempt.
				var qe *cluster.QuorumError
				inWave := (f.endpoints[i] == f.endpoints[c.Dep] || r.cfg.Replication <= 1) && applied[f.calls[c.Dep].Token]
				if applied[c.Token] && !inWave && !errors.As(f.outcomes[c.Dep], &qe) {
					r.violate("failure isolation: flush %d call %d (token %d) executed despite a failed dependency",
						fi, i, c.Token)
				}
			}
		}
		if f.flushErr == nil {
			for i := range f.calls {
				if f.outcomes[i] != nil {
					r.violate("failure isolation: flush %d reported success but call %d failed: %v", fi, i, f.outcomes[i])
				}
			}
			if !f.migrationConcurrent {
				// Invariant 8 — no acked flush is ever lost. This check has
				// NO state-loss exemption: the schedule kills primaries
				// mid-flush and the acked tokens must still be here, carried
				// through the follower's replica log and the epoch-bump
				// promotion. Only the documented in-flight migration window
				// (above) exempts a flush.
				for i, c := range f.calls {
					if !applied[c.Token] {
						r.violate("durability: flush %d succeeded with no concurrent migration, but call %d (token %d on %s) left no effect",
							fi, i, c.Token, c.Name)
					}
				}
			}
		}
	}
}

// checkCachedReads: invariant 7 — a cached read never serves a value older
// than its lease epoch allows. A write ends its object's leases at its ack,
// before its flush returns, and membership changes bump the epoch (dropping
// every lease), so for reads outside migration windows:
//
//  1. freshness / read-your-writes: the value includes every token durably
//     applied to the name before the read was issued — a lease minted
//     before one of those writes could not have survived its ack;
//  2. the value is a real counter state: some sum the counter could have
//     held at some instant. The name's tokens apply in issue order, so a
//     real state is a prefix of that order — but with one twist under
//     state-loss kills: a token whose flush never acked can execute, be
//     observed by a read, and then die with its primary (durability only
//     covers acked flushes). Such tokens are absent from the final log yet
//     were real when read. The reachable-state set is therefore built by
//     walking the issue order, treating tokens present in the final log as
//     mandatory and tokens absent from it as optional branches;
//  3. per name, values never regress across reads — the counter only grows,
//     so serving an older lease after a newer fetch would show time moving
//     backward. A regression from a value that is NOT a prefix sum of the
//     final durable log is exempt: that value contained a since-lost
//     unacked token, and the loss (not a stale lease) explains the drop.
//
// Reads that erred or overlapped a rebalance / open migration window are
// exempt: there the counter state itself may regress (a stale-ring write
// superseded by the retried move), which the durability exemption already
// documents — and any lease minted inside a window dies with the epoch bump
// that closes it, so it can never leak into a non-exempt read.
func (r *runner) checkCachedReads(logs map[string][]int64) {
	reachable := make(map[string]map[int64]bool, len(logs))
	durable := make(map[string]map[int64]bool, len(logs))
	for name, log := range logs {
		inLog := make(map[int64]bool, len(log))
		set := map[int64]bool{0: true}
		var sum int64
		for _, d := range log {
			inLog[d] = true
			sum += d
			set[sum] = true
		}
		durable[name] = set
		// Walk the issue order: states branch at optional (never-applied or
		// applied-then-lost) tokens. The branch count is bounded by the few
		// failed flushes a schedule produces, not the token count.
		states := map[int64]bool{0: true}
		all := map[int64]bool{0: true}
		for _, tok := range r.issued[name] {
			next := make(map[int64]bool, 2*len(states))
			for s := range states {
				if !inLog[tok] {
					next[s] = true
				}
				next[s+tok] = true
				all[s+tok] = true
			}
			states = next
		}
		reachable[name] = all
	}
	lastVal := make(map[string]int64)
	for _, rr := range r.reads {
		if rr.err != nil || rr.exempt {
			continue
		}
		if rr.val < rr.required {
			r.violate("cached read: op %d read %s = %d, but %d was durably applied before the read — the lease predates an invalidating write",
				rr.op+1, rr.name, rr.val, rr.required)
		}
		if set, ok := reachable[rr.name]; ok && !set[rr.val] {
			r.violate("cached read: op %d read %s = %d, which is no reachable state of its issue log — the value was never a real counter state",
				rr.op+1, rr.name, rr.val)
		}
		if prev, ok := lastVal[rr.name]; ok && rr.val < prev && durable[rr.name][prev] {
			r.violate("cached read: op %d read %s = %d after an earlier read saw %d — a stale lease outlived its epoch",
				rr.op+1, rr.name, rr.val, prev)
		}
		lastVal[rr.name] = rr.val
	}
}

// checkStreamPrefix: invariant 9 — every getbatch op delivered a
// strictly-ordered prefix of its request: entry indices 0, 1, 2, … with no
// gap and no duplicate. Per-name failures are delivered entries (the
// assembler turns a dead destination into error entries at the failed
// positions), so faults may truncate the stream — Next erroring out before
// io.EOF — but whatever arrived first must be the exact request order. A
// violation here indicts the assembler or the chunked transport beneath
// it: a reordered frame, a dropped chunk acked as delivered, a duplicate
// surviving a redial.
func (r *runner) checkStreamPrefix() {
	for _, sr := range r.streams {
		if len(sr.indices) > len(sr.names) {
			r.violate("stream prefix: op %d delivered %d entries for a %d-name request",
				sr.op+1, len(sr.indices), len(sr.names))
			continue
		}
		for pos, idx := range sr.indices {
			if idx != pos {
				kind := "gap"
				if idx < pos {
					kind = "duplicate"
				}
				r.violate("stream prefix: op %d delivered index %d at position %d (%s; delivered %v of %d names)",
					sr.op+1, idx, pos, kind, sr.indices, len(sr.names))
				break
			}
		}
	}
}

// checkConvergence: invariant 4 — after quiesce every name is homed where
// the ring says, exactly one member's manifest carries it, and (from
// collectLogs) its state is self-consistent: retried rebalances neither
// lost nor duplicated an object.
func (r *runner) checkConvergence(ctx context.Context, logs map[string][]int64) {
	holders := make(map[string][]string, len(logs))
	for _, s := range r.tc.Servers {
		if !r.dir.Ring().Contains(s.Endpoint) {
			// A drained ex-member must hold no clean binding for any name.
			for _, b := range s.Node.Manifest() {
				if _, ours := logs[b.Name]; ours {
					r.violate("migration convergence: ex-member %s still binds %s", s.Endpoint, b.Name)
				}
			}
			continue
		}
		for _, b := range s.Node.Manifest() {
			if _, ours := logs[b.Name]; ours {
				holders[b.Name] = append(holders[b.Name], s.Endpoint)
			}
		}
	}
	for _, name := range r.prog.names {
		hs := holders[name]
		if len(hs) != 1 {
			r.violate("migration convergence: %s bound at %d members %v, want exactly 1", name, len(hs), hs)
			continue
		}
		home, err := r.dir.Home(name)
		if err != nil {
			r.violate("migration convergence: %s has no ring home: %v", name, err)
			continue
		}
		if hs[0] != home {
			r.violate("migration convergence: %s bound at %s, ring home is %s", name, hs[0], home)
		}
	}
}

// checkEpochs: invariant 5 — the directory's observed epoch never
// decreased during the run, no node is ahead of the reconciled directory,
// nodes at the directory's epoch agree on the membership, and a final
// cluster-wide flush terminates (every wrong-home retry resolved).
func (r *runner) checkEpochs(ctx context.Context) {
	for i := 1; i < len(r.epochs); i++ {
		if r.epochs[i] < r.epochs[i-1] {
			r.violate("epoch monotonicity: directory epoch fell %d -> %d at op %d", r.epochs[i-1], r.epochs[i], i+1)
		}
	}
	dirEpoch := r.dir.Epoch()
	members := r.dir.Servers()
	for _, s := range r.tc.Servers {
		if !r.dir.Ring().Contains(s.Endpoint) {
			continue
		}
		snap := s.Node.RingState()
		if snap.Epoch > dirEpoch {
			r.violate("epoch monotonicity: node %s at epoch %d, ahead of the reconciled directory (%d)", s.Endpoint, snap.Epoch, dirEpoch)
		}
		if snap.Epoch == dirEpoch && !slices.Equal(snap.Members, members) {
			r.violate("epoch monotonicity: node %s members %v != directory members %v at epoch %d", s.Endpoint, snap.Members, members, dirEpoch)
		}
	}

	// Wrong-home retry termination: one Apply per name must flush cleanly
	// on the healed, reconciled cluster — any stale route left anywhere
	// resolves in the retry wave or fails this check.
	fctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	//brmivet:ignore unflushed abandoned only on the violation path, which already fails the run
	b := cluster.New(r.tc.Client, cluster.WithDirectory(r.dir))
	tok := int64(9_000_000)
	var futures []*cluster.Future
	for _, name := range r.prog.names {
		p, err := b.RootNamed(fctx, name)
		if err != nil {
			r.violate("wrong-home termination: cannot resolve %s on the quiesced cluster: %v", name, err)
			return
		}
		// Not added to r.issued: logs were collected before this flush, so
		// these tokens are verified through their futures only.
		futures = append(futures, p.Call("Apply", tok, nil))
		tok++
	}
	err := b.Flush(fctx)
	if b.StaleRetried() {
		r.modelStaleRetries++
	}
	if err != nil {
		r.violate("wrong-home termination: final flush failed on the quiesced cluster: %v", err)
		return
	}
	for i, f := range futures {
		if err := f.Err(); err != nil {
			r.violate("wrong-home termination: final call on %s failed: %v", r.prog.names[i], err)
		}
	}
}

// checkCounters: invariant 6 — the observability plane agrees with the
// model. Scraping the quiesced members through the stats.Node service (one
// batched wave — the monitoring path under test IS a cluster flush), it
// asserts:
//
//  1. the client's cluster.wrong_home_retries counter equals the model's
//     tally of batches that spent their stale-route retry — retries never
//     recover silently and are never double-counted;
//  2. a scraped member's core.calls_executed matches its in-process
//     registry — the RMI scrape path reports the truth;
//  3. replay accounting balances: the client never acknowledges a result
//     the servers did not execute (acked ≤ executed cluster-wide), with
//     exact equality on a fault-free schedule — faults may lose responses
//     for executed calls, but nothing may execute unobserved or ack
//     unexecuted.
//
// It runs AFTER checkEpochs: that check's final flush executes calls, and
// the tallies here must include them.
func (r *runner) checkCounters(ctx context.Context) {
	sctx, cancel := context.WithTimeout(ctx, r.cfg.FlushTimeout)
	defer cancel()
	snaps, err := statsnode.ScrapeCluster(sctx, r.tc.Client, r.dir.Servers())
	if err != nil {
		r.violate("counter consistency: stats scrape failed on the healed cluster: %v", err)
		return
	}

	// The client registry is read after the scrape so the scrape's own
	// acked calls are on the books, matching the executed counts its Scrape
	// executions stamped into the server snapshots.
	client := r.tc.ClientStats.Snapshot()
	if got := client.Counter("cluster.wrong_home_retries"); got != int64(r.modelStaleRetries) {
		r.violate("counter consistency: cluster.wrong_home_retries = %d, model observed %d stale-route retries",
			got, r.modelStaleRetries)
	}

	// Work done by killed servers left tc.Servers with them; their tally was
	// saved at kill time and still backs the acked calls the client saw.
	executed := r.lostExecuted
	for _, s := range r.tc.Servers {
		local := s.Stats.Snapshot().Counter("core.calls_executed")
		executed += local
		if scraped, ok := snaps[s.Endpoint]; ok {
			if got := scraped.Counter("core.calls_executed"); got != local {
				r.violate("counter consistency: %s scraped core.calls_executed = %d, in-process registry says %d",
					s.Endpoint, got, local)
			}
		}
	}
	acked := client.Counter("core.calls_acked")
	if acked > executed {
		r.violate("counter consistency: client acked %d executed calls but servers executed only %d", acked, executed)
	}
	if len(r.sched.Events) == 0 && acked != executed {
		r.violate("counter consistency: fault-free run, but servers executed %d calls and the client acked %d", executed, acked)
	}
}
