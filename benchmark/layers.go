package main

// layerInputs is everything the per-layer metrics are computed from. Each
// metric's source is one of: S, a span around a public call sut.go makes;
// A, a span in the benchmark's own remote object; N, the net.Conn wrapper;
// R, an existing registry series (delta over the traced rounds; cs is the
// client peer's registry, ss the four servers' summed); P, an isolated
// probe run after the rounds.
type layerInputs struct {
	w            *workload
	total        roundStats // summed over the traced rounds
	cs, ss       series
	ts           *traceSummary
	dials        int64
	plainGoodput float64
}

func ratio(a, b float64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

// compute returns the layer metrics that apply to this workload. A layer
// the workload never enters is left out, not reported as zero.
func (in *layerInputs) compute(cfg runConfig) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	set := func(name string, v float64) { out[name] = metricValue{Value: v} }
	setIf := func(name string, a, b float64) {
		if v, ok := ratio(a, b); ok {
			set(name, v)
		}
	}
	w, ts, cs, ss := in.w, in.ts, in.cs, in.ss
	ops, calls := float64(in.total.ops), float64(in.total.calls)
	histMean := func(s series, name string) (float64, bool) {
		return ratio(float64(s[name+".sum"]), float64(s[name+".count"]))
	}
	spanTotal := func(k spanKind) float64 { return float64(ts.total[k]) }
	rtt, bitsPerSecond := w.deploy.link()
	rttUs := float64(rtt.Microseconds())
	// A workload that never flushes a core.Batch of its own goes through the
	// cluster package.
	cluster := ts.count[spanCoreFlush] == 0

	// --- R: registry series ---
	setIf("wire.encode_ns_per_call", float64(cs["wire.encode_ns.sum"]+ss["wire.encode_ns.sum"]), calls)
	setIf("wire.decode_ns_per_call", float64(cs["wire.decode_ns.sum"]+ss["wire.decode_ns.sum"]), calls)
	// The codec-state and buffer-pool counters are process-wide, so the
	// client's registry already reads the whole process.
	if gets := float64(cs["wire.enc_state_gets"] + cs["wire.dec_state_gets"]); gets > 0 {
		set("wire.state_reuse_ratio", 1-float64(cs["wire.enc_state_allocs"]+cs["wire.dec_state_allocs"])/gets)
	}
	setIf("transport.pool_hit_ratio", float64(cs["transport.pool_hit"]),
		float64(cs["transport.pool_hit"]+cs["transport.pool_miss"]))
	set("transport.frames_out_per_op", float64(cs["transport.frames_out"])/ops)
	set("transport.frames_in_per_op", float64(cs["transport.frames_in"])/ops)
	set("transport.chunks_per_op", float64(cs["transport.chunks_out"]+cs["transport.chunks_in"])/ops)
	set("transport.redials", float64(cs["transport.redials"]))
	if v, ok := histMean(cs, "transport.writev_frames"); ok {
		set("transport.writev_frames_mean", v)
	}
	set("rmi.calls_per_op", float64(cs["rmi.calls"])/ops)
	if v, ok := histMean(ss, "core.wave_ns"); ok {
		set("core.wave_ns_mean", v)
	}
	if v, ok := histMean(ss, "core.batch_calls"); ok {
		set("core.batch_calls_mean", v)
	}
	setIf("core.replay_parallel_ratio", float64(ss["core.replay_parallel"]),
		float64(ss["core.replay_parallel"]+ss["core.replay_sequential"]))
	setIf("core.calls_executed_per_acked", float64(ss["core.calls_executed"]), float64(cs["core.calls_acked"]))
	wavesPerOp := 0.0
	if cluster {
		wavesPerOp = float64(cs["cluster.flush_waves"]) / ops
		set("cluster.flush_waves_per_op", wavesPerOp)
		if v, ok := histMean(cs, "cluster.stage_ns"); ok {
			set("cluster.stage_ns_mean", v)
		}
		set("cluster.wrong_home_retries", float64(cs["cluster.wrong_home_retries"]))
		set("cluster.lookup_retries", float64(cs["cluster.lookup_retries"]))
	}
	quorumWaitsPerOp := 0.0
	if w.deploy.replicas > 1 {
		quorumWaitsPerOp = float64(cs["cluster.quorum_waits"]) / ops
		set("cluster.quorum_waits_per_op", quorumWaitsPerOp)
		if v, ok := histMean(cs, "cluster.replication_lag"); ok {
			set("cluster.replication_lag_mean", v/1e3)
		}
		set("cluster.replica_appends_per_op", float64(ss["cluster.replica_appends"])/ops)
	}
	if w.deploy.cache {
		setIf("rcache.hit_ratio", float64(cs["cache.hits"]), float64(cs["cache.hits"]+cs["cache.misses"]))
		set("rcache.coalesced_per_op", float64(cs["cache.coalesced"])/ops)
		set("rcache.evictions_per_op", float64(cs["cache.evictions"])/ops)
		set("rcache.invalidations_per_op", float64(cs["cache.invalidations"])/ops)
	}

	// --- N: the client's connections ---
	set("transport.conn_writes_per_op", float64(in.total.conn.writes)/ops)
	set("transport.conn_bytes_out_per_op", float64(in.total.conn.bytesOut)/ops)
	set("transport.conn_bytes_in_per_op", float64(in.total.conn.bytesIn)/ops)
	set("transport.dials", float64(in.dials))

	// --- S: spans around public calls ---
	if n := ts.count[spanCoreFlush]; n > 0 {
		set("core.record_ns_per_call", spanTotal(spanCoreRecord)/calls)
		set("core.flush_us_per_op", spanTotal(spanCoreFlush)/float64(n)/1e3)
		set("core.settle_ns_per_call", spanTotal(spanCoreSettle)/calls)
		for size, name := range map[int]string{1: "core.flush_us.n1", 64: "core.flush_us.n64"} {
			if e := ts.flushBySize[size]; e != nil {
				set(name, float64(e[1])/float64(e[0])/1e3)
			}
		}
	}
	resolvesPerOp := float64(ts.count[spanClusterResolve]) / ops
	if n := ts.count[spanClusterFlush]; n > 0 {
		if w.usesNames {
			set("cluster.resolve_us_per_op", spanTotal(spanClusterResolve)/ops/1e3)
		}
		set("cluster.record_ns_per_call", spanTotal(spanClusterRecord)/calls)
		flushUs := spanTotal(spanClusterFlush) / float64(n) / 1e3
		set("cluster.flush_us_per_op", flushUs)
		// A replicated wave is two sequential trips: execute, then ship.
		set("cluster.flush_residue_us_per_op", flushUs-(wavesPerOp+quorumWaitsPerOp)*rttUs)
	}
	if n := ts.count[spanGetOpen]; n > 0 {
		set("cluster.getbatch_open_us", spanTotal(spanGetOpen)/float64(n)/1e3)
		set("cluster.getbatch_first_entry_us", spanTotal(spanGetFirst)/float64(ts.count[spanGetFirst])/1e3)
		setIf("cluster.getbatch_drain_us_per_entry", spanTotal(spanGetDrain)/1e3, float64(ts.count[spanGetDrain]))
	}

	// --- A: the benchmark's own remote objects ---
	setIf("app.exec_ns_per_call", spanTotal(spanApp), float64(ts.count[spanApp]))
	set("app.execs_per_acked_call", float64(ts.count[spanApp])/calls)

	// --- computed: the simulated wire's share of an op ---
	// Sequential round trips on the op's critical path times the profile's
	// RTT, plus its bytes at the profile's bandwidth. Not measured, and no
	// change to the program can lower it except by removing a round trip.
	// A core flush is one trip; a get-batch is two (its names resolve in
	// parallel, then one stream per destination).
	trips := resolvesPerOp + wavesPerOp + quorumWaitsPerOp +
		float64(ts.count[spanCoreFlush]+2*ts.count[spanGetOpen])/ops
	floorUs := trips * rttUs
	if bitsPerSecond > 0 {
		floorUs += float64(in.total.conn.bytesOut+in.total.conn.bytesIn) / ops * 8 / bitsPerSecond * 1e6
	}
	set("netsim.rtt_floor_us_per_op", floorUs)

	// --- trace bookkeeping ---
	setIf("trace.overhead_ratio", in.plainGoodput, calls/in.total.wall.Seconds())
	setIf("trace.residual_share", float64(ts.self[spanOp]), spanTotal(spanOp))

	// --- P: isolated probes ---
	dur := cfg.probe
	obj, iface, method, args := w.probeCall()
	marshal, unmarshal, err := probeWire(dur, [][]any{args})
	if err != nil {
		return nil, err
	}
	set("wire.marshal_ns_per_call", marshal.nsPerCall)
	set("wire.unmarshal_ns_per_call", unmarshal.nsPerCall)
	set("wire.bytes_per_call", marshal.bytesPerCall)
	set("wire.allocs_per_call", marshal.allocsPerCall+unmarshal.allocsPerCall)

	// The bare transport carries this workload's mean frame sizes.
	reqBytes, _ := ratio(float64(in.total.conn.bytesOut), float64(cs["transport.frames_out"]))
	respBytes, _ := ratio(float64(in.total.conn.bytesIn), float64(cs["transport.frames_in"]))
	tp, err := probeTransport(dur, max(int(reqBytes), 1), max(int(respBytes), 1))
	if err != nil {
		return nil, err
	}
	set("transport.call_us", tp.nsPerCall/1e3)
	set("transport.allocs_per_call", tp.allocsPerCall)

	call, dispatch, err := probeRMI(dur, deployConfig{}, obj, iface, method, args)
	if err != nil {
		return nil, err
	}
	set("rmi.call_us", call.nsPerCall/1e3)
	set("rmi.allocs_per_call", call.allocsPerCall)
	set("rmi.dispatch_ns_per_call", dispatch.nsPerCall)
	// The paper's claim: what the op's calls would cost un-batched, one
	// round trip each on this workload's own link, over what the op did
	// cost. The link's round trip is measured, not taken from the profile:
	// a sandbox's timers can make a nominal 1 ms cost over 2.
	unbatched := call
	if w.deploy.lan {
		if unbatched, _, err = probeRMI(dur/4, deployConfig{lan: true}, obj, iface, method, args); err != nil {
			return nil, err
		}
	}
	setIf("rmi.batching_gain", unbatched.nsPerCall*calls/ops, spanTotal(spanOp)/ops)

	if w.usesNames {
		lookup, err := probeRegistry(dur)
		if err != nil {
			return nil, err
		}
		set("registry.lookup_us", lookup.nsPerCall/1e3)
	}
	if w.deploy.cache {
		key, get, err := probeRcache(dur)
		if err != nil {
			return nil, err
		}
		set("rcache.key_ns", key.nsPerCall)
		set("rcache.get_ns", get.nsPerCall)
	}
	return out, nil
}
