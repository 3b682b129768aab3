// Package repro is a from-scratch Go reproduction of "Explicit Batching for
// Distributed Objects" (Tilevich & Cook, ICDCS 2009): BRMI — explicit
// batching of remote method invocations — together with every substrate the
// paper depends on (an RMI-like distributed object runtime, serialization,
// transport, naming, distributed GC, and a latency/bandwidth-simulated
// network standing in for the paper's two physical testbeds).
//
// Layout:
//
//   - internal/core      BRMI: batches, futures, cursors, policies, chaining,
//     and the push of a result — a value, or a remote result's reference —
//     to another server of the same cluster flush
//   - internal/rcache    the client-side caching substrate: a lease-backed
//     result cache (TTL + ring epoch + per-object generation; a write's
//     leases end and are renewed at its ack) and the group that
//     collapses concurrent directory refreshes into one poll; cluster
//     batches consume it (WithCache), so a cluster CallRO settles from a
//     lease, a miss is an ordinary call, and an all-hit flush performs zero
//     round trips
//   - internal/cluster   multi-server sharding: epoch-versioned
//     consistent-hash shard map, cluster naming, staged cluster batches —
//     one recording spanning many servers, planned into dependency stages
//     and executed by one wave runner, one parallel round-trip wave per
//     stage (a stale-route retry re-plans and runs one more wave), moving
//     results server to server inside the wave — a remote result by
//     reference, a future's value as a copy — so a dataflow costs one round
//     trip per distinct server — and
//     elastic membership: servers join and leave
//     under live traffic, moved objects migrate server to server — the
//     source hands their Movable snapshots to the new home, which promotes
//     them — in three batched client round trips per flow that carry no
//     object state, and stale routes fail with a typed
//     wrong-home error that epoch-aware lookups and flushes retry once;
//     per-shard replica groups: owner lists (WithReplication), flush waves
//     shipped to followers' ordered shard logs with per-name write quorums
//     (WithQuorum), and epoch-bump failover that promotes the
//     best-credentialed shadow when a primary dies with its state;
//     streaming bulk reads: cluster.GetBatch sends N names as one ordered,
//     name-addressed GetBatch stream per home server — the homes resolve
//     them, so the read costs one round trip per distinct home — and
//     reassembles the streams client-side in exact request order
//   - internal/rmi       distributed object runtime (the "Java RMI" role):
//     reflective dispatch plus opt-in reflection-free skeletons
//     (LocalDispatcher, generated by brmigen like rmic's skeleton classes)
//   - internal/wire      value serialization and remote references: per-type
//     codec plans compiled at Register time, optional hand/generated
//     compiled codecs (RegisterCompiled), pooled encoder/decoder state,
//     append-style marshalling into reusable buffers
//   - internal/transport framed, multiplexed request/response transport:
//     coalesced frame writes (one writev per burst), sharded pending-call
//     table, pooled payload buffers, reusable dispatch workers; payloads
//     larger than one frame stream as chunked multi-frame sequences under
//     per-stream credit flow control, so Call has no single-frame size
//     ceiling
//   - internal/netsim    simulated LAN and wireless links, plus the fault
//     surface chaos testing drives: a pluggable (virtual) clock,
//     directional link partitions, per-link latency jitter and loss,
//     connection drops, and endpoint crash/restart
//   - internal/chaos     seeded deterministic fault-injection harness:
//     randomized workloads (flushes, staged pipelines, live re-sharding)
//     under a seeded fault schedule — including state-loss kills of
//     primaries mid-flush — model-checked against the nine cluster-wide
//     invariants (program order, at-most-once, failure isolation,
//     migration convergence, epoch monotonicity, counter consistency,
//     cached-read freshness, acked-flush durability, stream-prefix
//     delivery); failing
//     schedules shrink automatically to a replayable seed + trace
//     (go test ./internal/chaos -chaos.iters=N -chaos.seed=S)
//   - internal/clustertest shared multi-server test scaffolding: a full
//     deployment (executor, registry, node service per member) plus the
//     movable Counter workload object, used by the cluster tests and chaos
//   - internal/stats     lock-free metrics core threaded through every
//     layer: atomic counters/gauges and fixed-bucket histograms with an
//     allocation-free hot path, snapshot/merge semantics, a pluggable
//     clock (virtual under chaos), and a Prometheus text exporter
//   - internal/statsnode the self-hosted monitoring plane: each server
//     exports a stats.Node system object, and ScrapeCluster collects every
//     member's snapshot with ONE cluster batch flush — a single parallel
//     wave regardless of cluster size — plus the brmitop view derivation
//   - internal/registry  naming service (the "RMI Registry" role)
//   - internal/dgc       lease-based distributed garbage collection
//   - internal/codegen   "rmic -batch" equivalent (typed stubs and server
//     skeletons; cmd/brmigen)
//   - internal/bench     the paper's Figures 5-13 and three ablations as
//     exact counts per series (round trips, loopback calls, bytes), with a
//     latency model checked against netsim's virtual clock
//   - cmd/brmitop        live cluster ops view (QPS, wave latency
//     quantiles, pool/codec reuse, lease-cache hit rate, migration, epoch
//     skew) over batched stats scrapes; -endpoints for live TCP clusters,
//     -sim for a demo
//   - examples/          runnable applications (quickstart, file server,
//     bank, translator, chained batches, sharded multi-server cluster,
//     staged cross-server pipeline, live re-sharding, live ops view)
//
// `go test ./internal/bench -run TestPaperFigures -v` prints the full
// evaluation, checked against the committed BENCH_paper.json (`-update`
// rewrites it); bench_test.go holds two microbenchmarks of the client stack,
// and brmibench (benchmark/) measures the cluster under load. See DESIGN.md
// for the system inventory and the REPRODUCTION table.
package repro
