package main

// sut.go is the benchmark's only importer of repro/internal/*: the
// deployment builder, the benchmark's own remote objects, one function per
// client operation, and the isolated probes. Two things follow from keeping
// that surface in one file. A refactor of core/cluster touches this file
// and no other, reviewed as a benchmark change of its own. And these
// functions are exactly the layer boundaries a benchmark living outside the
// program can see, so this is where traced runs open their spans (a nil
// *opSpans makes every hook a nil check).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/registry"
	"repro/internal/rmi"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	numServers   = 4
	clientHost   = "client"
	echoIface    = "brmibench.Echo"
	kvIface      = "brmibench.KV"
	stragglerOWD = 4 * time.Millisecond // extra one-way delay client<->server-3
	leaseTTL     = rcache.DefaultTTL    // the shared cache is built with the default
)

// --- the benchmark's remote objects ------------------------------------------

// Payload is the echo argument and result. Op carries the client op id to
// the server so the method-body span joins its op.
type Payload struct {
	Op   uint64
	Seq  int64
	Name string
	Body []byte
}

// kvState is a KV's migratable state (cluster.Movable snapshot form).
type kvState struct {
	Total   int64
	Version int64
}

// EchoObject returns its argument: each call marshals the payload twice on
// both peers and does nothing else.
type EchoObject struct{ rmi.RemoteBase }

func (e *EchoObject) Echo(p Payload) Payload {
	t := appBegin()
	appEnd(p.Op, t)
	return p
}

// DispatchLocal is the reflection-free skeleton brmigen emits for generated
// stubs; odd argument forms fall back to reflective dispatch.
func (e *EchoObject) DispatchLocal(_ context.Context, method string, args []any, buf []any) ([]any, bool, error) {
	if method != "Echo" || len(args) != 1 {
		return nil, false, nil
	}
	p, ok := args[0].(Payload)
	if !ok {
		return nil, false, nil
	}
	return append(buf[:0], e.Echo(p)), true, nil
}

// KV is the stateful object of the four cluster workloads. The write
// methods carry the op id first; Get takes no argument so it can be a
// GetBatch accessor and a cacheable readonly call.
type KV struct {
	rmi.RemoteBase
	mu      sync.Mutex
	total   int64
	version int64
}

// Add adds delta and returns the running total.
func (k *KV) Add(op uint64, delta int64) int64 {
	t := appBegin()
	k.mu.Lock()
	k.total += delta
	v := k.total
	k.mu.Unlock()
	appEnd(op, t)
	return v
}

// Apply counts as one Add and returns mix(dep, op), which only a client
// that saw dep's producing call settle can predict.
func (k *KV) Apply(op uint64, dep int64) int64 {
	t := appBegin()
	k.mu.Lock()
	k.total++
	k.mu.Unlock()
	v := mix(dep, op)
	appEnd(op, t)
	return v
}

// Put sets the version and returns it.
func (k *KV) Put(op uint64, version int64) int64 {
	t := appBegin()
	k.mu.Lock()
	k.version = version
	k.mu.Unlock()
	appEnd(op, t)
	return version
}

// Get returns the version. Registered //brmi:readonly in init.
func (k *KV) Get() int64 {
	t := appBegin()
	k.mu.Lock()
	v := k.version
	k.mu.Unlock()
	appEnd(0, t)
	return v
}

func (k *KV) Snapshot() (any, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return kvState{Total: k.total, Version: k.version}, nil
}

func (k *KV) Restore(state any) error {
	s, ok := state.(kvState)
	if !ok {
		return fmt.Errorf("brmibench: restore: unexpected state %T", state)
	}
	k.mu.Lock()
	k.total, k.version = s.Total, s.Version
	k.mu.Unlock()
	return nil
}

func (k *KV) readTotal() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

func (k *KV) DispatchLocal(_ context.Context, method string, args []any, buf []any) ([]any, bool, error) {
	if method == "Get" && len(args) == 0 {
		return append(buf[:0], k.Get()), true, nil
	}
	if len(args) != 2 {
		return nil, false, nil
	}
	op, ok1 := args[0].(uint64)
	x, ok2 := args[1].(int64)
	if !ok1 || !ok2 {
		return nil, false, nil
	}
	switch method {
	case "Add":
		return append(buf[:0], k.Add(op, x)), true, nil
	case "Apply":
		return append(buf[:0], k.Apply(op, x)), true, nil
	case "Put":
		return append(buf[:0], k.Put(op, x)), true, nil
	}
	return nil, false, nil
}

func init() {
	wire.MustRegister("brmibench.payload", Payload{})
	wire.MustRegister("brmibench.kvstate", kvState{})
	rmi.RegisterReadOnly(kvIface, "Get")
	cluster.RegisterMovable(kvIface, func() rmi.Remote { return &KV{} })
}

// --- deployment ---------------------------------------------------------------

// deployConfig is what a workload asks of its deployment.
type deployConfig struct {
	lan       bool // netsim.LAN (1 ms RTT, 1 Gbps) instead of netsim.Instant
	replicas  int  // ring replication degree; <=1 is unreplicated
	straggler bool // stragglerOWD each way between the client and server-3
	kvNamed   int  // KVs exported at their ring home and bound as "kv-<i>"
	kvAnon    int  // KVs exported round-robin, addressed by ref
	cache     bool // one cluster.NewCache shared by every client goroutine
	// kvInit is object i's initial version.
	kvInit func(i int) int64
	// stats attaches a registry to every peer (traced runs only).
	stats bool
}

type server struct {
	endpoint string
	peer     *rmi.Peer
	exec     *core.Executor
	reg      *registry.Service
}

// deployment is 4 serving peers and one client peer on one simulated
// network, all in this process.
type deployment struct {
	network *netsim.Network
	servers []*server
	client  *rmi.Peer
	conns   *connCounters // the client's side of every connection
	dir     *cluster.Directory
	cache   *rcache.Cache
	echo    []wire.Ref
	kvs     []*KV
	kvRefs  []wire.Ref
	kvNames []string
}

func silentLogf(string, ...any) {}

func (c deployConfig) profile() netsim.Profile {
	if c.lan {
		return netsim.LAN
	}
	return netsim.Instant
}

// link is the simulated link every connection of the deployment crosses.
func (c deployConfig) link() (rtt time.Duration, bitsPerSecond float64) {
	p := c.profile()
	return p.RTT, p.BitsPerSecond
}

// newDeployment builds the whole system under test: everything setup_s
// times.
func newDeployment(cfg deployConfig) (d *deployment, err error) {
	d = &deployment{network: netsim.New(cfg.profile()), conns: &connCounters{}}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	newRegistry := func() *stats.Registry {
		if !cfg.stats {
			return nil
		}
		return stats.New(stats.WithClock(d.network.Clock()))
	}
	endpoints := make([]string, numServers)
	for i := range endpoints {
		s := &server{endpoint: fmt.Sprintf("server-%d", i)}
		endpoints[i] = s.endpoint
		s.peer = rmi.NewPeer(d.network.Host(s.endpoint), rmi.WithLogf(silentLogf), rmi.WithStatsRegistry(newRegistry()))
		d.servers = append(d.servers, s)
		if err = s.peer.Serve(s.endpoint); err != nil {
			return nil, err
		}
		if s.exec, err = core.Install(s.peer); err != nil {
			return nil, err
		}
		if s.reg, err = registry.Start(s.peer); err != nil {
			return nil, err
		}
		node, err := cluster.StartNode(s.peer, s.reg, nil)
		if err != nil {
			return nil, err
		}
		if _, err = cluster.StartReplica(s.peer, s.reg, node, s.exec); err != nil {
			return nil, err
		}
		ref, err := s.peer.Export(&EchoObject{}, echoIface)
		if err != nil {
			return nil, err
		}
		d.echo = append(d.echo, ref)
	}
	d.client = rmi.NewPeer(&countingNetwork{inner: d.network.Host(clientHost), c: d.conns},
		rmi.WithLogf(silentLogf), rmi.WithStatsRegistry(newRegistry()))
	if cfg.straggler {
		slow := netsim.LinkFaults{ExtraLatency: stragglerOWD}
		d.network.SetLinkFaults(clientHost, endpoints[numServers-1], slow)
		d.network.SetLinkFaults(endpoints[numServers-1], clientHost, slow)
	}
	var ringOpts []cluster.RingOption
	if cfg.replicas > 1 {
		ringOpts = append(ringOpts, cluster.WithReplication(cfg.replicas))
	}
	d.dir = cluster.NewDirectory(d.client, endpoints, ringOpts...)
	if cfg.cache {
		d.cache = cluster.NewCache(d.client, d.dir)
	}

	byEndpoint := make(map[string]*server, numServers)
	for _, s := range d.servers {
		byEndpoint[s.endpoint] = s
	}
	for i := 0; i < cfg.kvNamed+cfg.kvAnon; i++ {
		kv := &KV{}
		if cfg.kvInit != nil {
			kv.version = cfg.kvInit(i)
		}
		s, name := d.servers[i%numServers], ""
		if i < cfg.kvNamed {
			name = fmt.Sprintf("kv-%d", i)
			home, err := d.dir.Home(name)
			if err != nil {
				return nil, err
			}
			s = byEndpoint[home]
		}
		ref, err := s.peer.Export(kv, kvIface)
		if err != nil {
			return nil, err
		}
		if name != "" {
			// Bound by the serving process in its own registry, as a server
			// publishes its objects; clients resolve over the network.
			if err = s.reg.Bind(name, ref); err != nil {
				return nil, err
			}
		}
		d.kvs = append(d.kvs, kv)
		d.kvRefs = append(d.kvRefs, ref)
		d.kvNames = append(d.kvNames, name)
	}
	if cfg.replicas > 1 {
		// The idempotent member re-add seeds every bound name's follower
		// shadows; without it the first measured flushes would pay lazy
		// shadow construction.
		if _, err = cluster.NewRebalancer(d.dir).AddServer(context.Background(), endpoints[0]); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Close stops every peer and waits for their goroutines.
func (d *deployment) Close() {
	if d.client != nil {
		_ = d.client.Close()
	}
	for _, s := range d.servers {
		if s.exec != nil {
			s.exec.Stop()
		}
		if s.peer != nil {
			_ = s.peer.Close()
		}
	}
	_ = d.network.Close()
}

// roundTrips is the client peer's count of remote invocations issued.
func (d *deployment) roundTrips() uint64 { return d.client.CallCount() }

// kvTotals reads every KV's total on its primary, in process.
func (d *deployment) kvTotals() []int64 {
	out := make([]int64, len(d.kvs))
	for i, kv := range d.kvs {
		out[i] = kv.readTotal()
	}
	return out
}

// --- client operations --------------------------------------------------------

// clientScratch holds one client goroutine's reusable future slices.
type clientScratch struct {
	core    []*core.Future
	cluster []*cluster.Future
	roots   []*cluster.Proxy
}

// echoFlush records one Echo per input on one server's echo object in one
// core.Batch, flushes it, and settles every future into out.
func (d *deployment) echoFlush(ctx context.Context, sp *opSpans, sc *clientScratch, server int, in, out []Payload) error {
	b := core.New(d.client, d.echo[server])
	root := b.Root()
	futs := sc.core[:0]
	t := sp.begin()
	for i := range in {
		futs = append(futs, root.Call("Echo", in[i]))
	}
	sp.end(spanCoreRecord, t)
	sc.core = futs

	t = sp.begin()
	err := b.Flush(ctx)
	sp.end(spanCoreFlush, t)
	if err != nil {
		return err
	}

	t = sp.begin()
	defer sp.end(spanCoreSettle, t)
	for i, f := range futs {
		if out[i], err = core.Typed[Payload](f).Get(); err != nil {
			return err
		}
	}
	return nil
}

// kvCall is one recorded KV invocation of a kvBatch. A write's second
// argument is arg, or the future of the earlier call dep when dep >= 0.
type kvCall struct {
	root   int // index into the batch's roots
	method string
	arg    int64
	dep    int
}

// kvBatch describes one cluster.Batch op: roots addressed by name
// (resolved through the directory) or by held ref, then the calls.
type kvBatch struct {
	op     uint64
	named  bool
	objs   []int // KV indexes of the roots
	calls  []kvCall
	quorum int
	cached bool
}

// kvFlush runs one kvBatch and settles call i's result into out[i].
func (d *deployment) kvFlush(ctx context.Context, sp *opSpans, sc *clientScratch, kb *kvBatch, out []int64) error {
	var opts []cluster.Option
	if kb.named {
		opts = append(opts, cluster.WithDirectory(d.dir))
	}
	if kb.quorum > 0 {
		opts = append(opts, cluster.WithQuorum(kb.quorum))
	}
	if kb.cached {
		opts = append(opts, cluster.WithCache(d.cache))
	}
	b := cluster.New(d.client, opts...)
	roots := sc.roots[:0]
	for _, obj := range kb.objs {
		if !kb.named {
			roots = append(roots, b.Root(d.kvRefs[obj]))
			continue
		}
		t := sp.begin()
		p, err := b.RootNamed(ctx, d.kvNames[obj])
		sp.end(spanClusterResolve, t)
		if err != nil {
			return err
		}
		roots = append(roots, p)
	}
	sc.roots = roots

	futs := sc.cluster[:0]
	t := sp.begin()
	for _, c := range kb.calls {
		switch {
		case c.method == "Get":
			futs = append(futs, roots[c.root].CallRO("Get"))
		case c.dep >= 0:
			futs = append(futs, roots[c.root].Call(c.method, kb.op, futs[c.dep]))
		default:
			futs = append(futs, roots[c.root].Call(c.method, kb.op, c.arg))
		}
	}
	sp.end(spanClusterRecord, t)
	sc.cluster = futs

	t = sp.begin()
	err := b.Flush(ctx)
	sp.end(spanClusterFlush, t)
	if err != nil {
		return err
	}

	t = sp.begin()
	defer sp.end(spanClusterSettle, t)
	for i, f := range futs {
		if out[i], err = cluster.Typed[int64](f).Get(); err != nil {
			return err
		}
	}
	return nil
}

// scanEntry is one delivered entry of a get-batch.
type scanEntry struct {
	Index int
	Name  string
	Value int64
}

// getBatch opens one streaming cluster.GetBatch over the named KVs
// first..first+n-1, drains it to io.EOF and returns the entries as
// delivered.
func (d *deployment) getBatch(ctx context.Context, sp *opSpans, first, n int, out []scanEntry) ([]scanEntry, error) {
	t := sp.begin()
	s, err := cluster.GetBatch(ctx, d.client, d.dir, d.kvNames[first:first+n], cluster.WithGetMethod("Get"))
	sp.end(spanGetOpen, t)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out = out[:0]
	kind := spanGetFirst
	for {
		t = sp.begin()
		e, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		sp.end(kind, t)
		kind = spanGetDrain
		if err != nil {
			return out, err
		}
		if e.Err != nil {
			return out, fmt.Errorf("entry %d (%s): %w", e.Index, e.Name, e.Err)
		}
		v, err := wire.As[int64](e.Value)
		if err != nil {
			return out, err
		}
		out = append(out, scanEntry{Index: e.Index, Name: e.Name, Value: v})
	}
}

// --- registry series (traced runs) --------------------------------------------

// series is a flattened stats snapshot: counters and gauges by name, and
// each histogram h as "h.count" and "h.sum".
type series map[string]int64

func flatten(snaps ...*stats.Snapshot) series {
	s := series{}
	for _, snap := range snaps {
		for _, c := range snap.Counters {
			s[c.Name] += c.V
		}
		for _, g := range snap.Gauges {
			s[g.Name] += g.V
		}
		for _, h := range snap.Hists {
			s[h.Name+".count"] += h.Count
			s[h.Name+".sum"] += h.Sum
		}
	}
	return s
}

// clientSeries reads the client peer's registry, serverSeries the sum over
// the four serving peers'.
func (d *deployment) clientSeries() series { return flatten(d.client.Stats().Snapshot()) }

func (d *deployment) serverSeries() series {
	snaps := make([]*stats.Snapshot, len(d.servers))
	for i, s := range d.servers {
		snaps[i] = s.peer.Stats().Snapshot()
	}
	return flatten(snaps...)
}

// --- isolated probes ----------------------------------------------------------
//
// Each probe calls one layer's public function alone, on netsim.Instant, on
// argument vectors sampled from the workload's own ops.

type probeResult struct {
	nsPerCall     float64
	allocsPerCall float64
	bytesPerCall  float64
}

// probeWire times MarshalValuesAppend and UnmarshalValues over the sampled
// argument vectors (one vector = one call's arguments).
func probeWire(dur time.Duration, argVecs [][]any) (marshal, unmarshal probeResult, err error) {
	encoded := make([][]byte, len(argVecs))
	var total int
	for i, vs := range argVecs {
		if encoded[i], err = wire.MarshalValues(vs); err != nil {
			return marshal, unmarshal, err
		}
		total += len(encoded[i])
	}
	var buf []byte
	i := 0
	marshal = timeLoop(dur, func() {
		buf, err = wire.MarshalValuesAppend(buf[:0], argVecs[i%len(argVecs)])
		i++
	})
	if err != nil {
		return marshal, unmarshal, err
	}
	marshal.bytesPerCall = float64(total) / float64(len(argVecs))
	i = 0
	unmarshal = timeLoop(dur, func() {
		_, err = wire.UnmarshalValues(encoded[i%len(encoded)])
		i++
	})
	return marshal, unmarshal, err
}

// probeTransport times Client.Call against a bare transport.Server whose
// handler answers respBytes bytes, at reqBytes per request.
func probeTransport(dur time.Duration, reqBytes, respBytes int) (probeResult, error) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	srv := transport.NewServer(func(_ context.Context, _ []byte) ([]byte, error) {
		return append(transport.GetBuffer(), make([]byte, respBytes)...), nil
	}, transport.WithLogf(silentLogf), transport.WithBufferReuse())
	l, err := network.Listen("probe")
	if err != nil {
		return probeResult{}, err
	}
	if err := srv.Serve(l); err != nil {
		return probeResult{}, err
	}
	defer srv.Close()
	cl := transport.NewClient(network, "probe")
	defer cl.Close()
	req := make([]byte, reqBytes)
	ctx := context.Background()
	var callErr error
	res := timeLoop(dur, func() {
		resp, err := cl.Call(ctx, req)
		if err != nil {
			callErr = err
			return
		}
		transport.PutBuffer(resp)
	})
	return res, callErr
}

// probeRMI times one un-batched Peer.Call of method(args...) on a fresh
// object over the given link, and Peer.InvokeLocal of the same call without
// any network.
func probeRMI(dur time.Duration, link deployConfig, target any, iface, method string, args []any) (call, dispatch probeResult, err error) {
	obj, ok := target.(rmi.Remote)
	if !ok {
		return call, dispatch, fmt.Errorf("brmibench: %T is not a remote object", target)
	}
	network := netsim.New(link.profile())
	defer network.Close()
	srv := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer srv.Close()
	if err = srv.Serve("probe"); err != nil {
		return call, dispatch, err
	}
	ref, err := srv.Export(obj, iface)
	if err != nil {
		return call, dispatch, err
	}
	cl := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer cl.Close()
	ctx := context.Background()
	call = timeLoop(dur, func() {
		if _, cerr := cl.Call(ctx, ref, method, args...); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return call, dispatch, err
	}
	dispatch = timeLoop(dur, func() {
		if _, derr := srv.InvokeLocal(ctx, obj, method, args); derr != nil {
			err = derr
		}
	})
	return call, dispatch, err
}

// probeRegistry times registry.Lookup of one bound name.
func probeRegistry(dur time.Duration) (probeResult, error) {
	network := netsim.New(netsim.Instant)
	defer network.Close()
	srv := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer srv.Close()
	if err := srv.Serve("probe"); err != nil {
		return probeResult{}, err
	}
	reg, err := registry.Start(srv)
	if err != nil {
		return probeResult{}, err
	}
	ref, err := srv.Export(&KV{}, kvIface)
	if err != nil {
		return probeResult{}, err
	}
	if err := reg.Bind("kv-0", ref); err != nil {
		return probeResult{}, err
	}
	cl := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	defer cl.Close()
	ctx := context.Background()
	var lookupErr error
	res := timeLoop(dur, func() {
		if _, err := registry.Lookup(ctx, cl, "probe", "kv-0"); err != nil {
			lookupErr = err
		}
	})
	return res, lookupErr
}

// probeRcache times rcache.Key for a readonly Get and a Cache.Get hit.
func probeRcache(dur time.Duration) (key, get probeResult, err error) {
	ref := wire.Ref{Endpoint: "server-0", ObjID: 4242, Iface: kvIface}
	k, ok := rcache.Key(ref, "Get", nil)
	if !ok {
		return key, get, errors.New("brmibench: Get is not cacheable")
	}
	key = timeLoop(dur, func() { rcache.Key(ref, "Get", nil) })
	c := rcache.New(nil, rcache.WithTTL(time.Hour))
	obj := rcache.ObjKey(ref)
	c.Put(k, obj, int64(1), c.Gen(obj), c.Epoch())
	get = timeLoop(dur, func() {
		if _, hit := c.Get(k); !hit {
			err = errors.New("brmibench: rcache probe missed a warm lease")
		}
	})
	return key, get, err
}
