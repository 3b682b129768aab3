package rmi

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dgc"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Peer is one node of the distributed object system. Every peer can issue
// remote calls; a peer that calls Serve additionally exports objects and
// accepts calls, like a JVM running both RMI client and server roles.
type Peer struct {
	network transport.Network
	opts    options
	exports *exportTable
	pool    *transport.Pool
	leases  *dgc.Table

	clientID string
	dgcSeq   atomic.Uint64
	// calls counts application-level remote invocations issued by this
	// peer (DGC housekeeping excluded), i.e. network round trips. The
	// benchmark harness reports it alongside latency.
	calls atomic.Uint64

	// Observability: reg is the peer's metric registry (nil when not
	// instrumented); tstats is the transport bundle shared by the client
	// pool and the serving side; the histograms time the wire codec on
	// both the issue and dispatch paths.
	reg    *stats.Registry
	tstats *transport.Stats
	encNs  *stats.Histogram
	decNs  *stats.Histogram

	mu        sync.Mutex
	endpoint  string
	tsrv      *transport.Server
	closed    bool
	streams   map[string]StreamServer   // stream services, by name
	forwards  map[uint64]forwardRecord  // migrated-away objects, by old id
	holds     map[string]map[uint64]int // endpoint -> objID -> refcount
	granted   map[string]time.Duration  // endpoint -> lease granted by its DGC
	renewing  bool
	renewKick chan struct{}
	done      chan struct{}
	renewerWG sync.WaitGroup
}

type options struct {
	localShortcut bool
	logf          func(format string, args ...any)
	lease         time.Duration
	sweepEvery    time.Duration
	renewEvery    time.Duration
	reg           *stats.Registry
}

// Option configures a Peer.
type Option func(*options)

// WithLocalShortcut makes the peer resolve inbound refs it owns to the
// local object instead of a loopback stub. This breaks faithful Java RMI
// semantics (§4.4) and exists as an ablation baseline.
func WithLocalShortcut() Option {
	return func(o *options) { o.localShortcut = true }
}

// WithLogf routes diagnostics. Pass a no-op to silence.
func WithLogf(logf func(format string, args ...any)) Option {
	return func(o *options) { o.logf = logf }
}

// WithStatsRegistry attaches a metrics registry: the peer instruments its
// transport (frames, bytes, pending calls, dials, pool hit rate), its
// wire codec (encode/decode latency, pooled-state reuse), and its own
// call counter on r. Without the option the peer runs uninstrumented at
// zero cost (nil metric handles no-op).
func WithStatsRegistry(r *stats.Registry) Option {
	return func(o *options) { o.reg = r }
}

// WithLease sets the DGC lease duration granted to clients of this peer,
// and from which the client-side renewal interval (lease/3) is derived.
func WithLease(d time.Duration) Option {
	return func(o *options) {
		o.lease = d
		o.sweepEvery = d / 4
		o.renewEvery = d / 3
	}
}

// NewPeer creates a peer on the given network. It can issue calls
// immediately; call Serve to also export objects.
func NewPeer(network transport.Network, opts ...Option) *Peer {
	o := options{
		logf:       log.Printf,
		lease:      dgc.DefaultLease,
		sweepEvery: dgc.DefaultLease / 4,
		renewEvery: dgc.DefaultLease / 3,
	}
	for _, opt := range opts {
		opt(&o)
	}
	p := &Peer{
		network:   network,
		opts:      o,
		exports:   newExportTable(),
		pool:      transport.NewPool(network),
		clientID:  newClientID(),
		forwards:  make(map[uint64]forwardRecord),
		holds:     make(map[string]map[uint64]int),
		granted:   make(map[string]time.Duration),
		renewKick: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	p.leases = dgc.NewTable(func(id uint64) { p.exports.collect(id) }, dgc.WithLease(o.lease))
	p.reg = o.reg
	p.tstats = transport.NewStats(o.reg)
	p.pool.SetStats(p.tstats)
	if o.reg != nil {
		p.encNs = o.reg.Histogram("wire.encode_ns")
		p.decNs = o.reg.Histogram("wire.decode_ns")
		o.reg.Func("rmi.calls", func() int64 { return int64(p.calls.Load()) })
		o.reg.Func("rmi.exported_objects", func() int64 { return int64(p.exports.size()) })
		o.reg.Func("wire.enc_state_gets", func() int64 { g, _, _, _ := wire.CodecStats(); return int64(g) })
		o.reg.Func("wire.enc_state_allocs", func() int64 { _, a, _, _ := wire.CodecStats(); return int64(a) })
		o.reg.Func("wire.dec_state_gets", func() int64 { _, _, g, _ := wire.CodecStats(); return int64(g) })
		o.reg.Func("wire.dec_state_allocs", func() int64 { _, _, _, a := wire.CodecStats(); return int64(a) })
	}
	return p
}

// Stats returns the metrics registry attached with WithStatsRegistry, or
// nil for an uninstrumented peer (nil receiver included — plan-only tests
// build recording layers with no peer at all). Layers above (core,
// cluster) hang their own metrics off it.
func (p *Peer) Stats() *stats.Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// newClientID produces a process-unique DGC client identity.
func newClientID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Extremely unlikely; a fixed id only weakens DGC accounting.
		return "client-entropy-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ClientID returns this peer's DGC identity.
func (p *Peer) ClientID() string { return p.clientID }

// Endpoint returns the serving endpoint, or "" for client-only peers.
func (p *Peer) Endpoint() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.endpoint
}

// Serve starts accepting remote calls at endpoint. It exports the DGC
// system service and starts the lease sweeper.
func (p *Peer) Serve(endpoint string) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if p.endpoint != "" {
		p.mu.Unlock()
		return fmt.Errorf("rmi: peer already serving at %s", p.endpoint)
	}
	p.endpoint = endpoint
	p.mu.Unlock()

	if err := p.exports.addAt(DGCObjID, &dgcService{table: p.leases}, DGCIface); err != nil {
		return err
	}
	l, err := p.network.Listen(endpoint)
	if err != nil {
		return fmt.Errorf("rmi: listen %s: %w", endpoint, err)
	}
	tsrv := transport.NewServer(p.handle, transport.WithLogf(p.opts.logf), transport.WithBufferReuse(),
		transport.WithStats(p.tstats), transport.WithStreamHandler(p.handleStream))
	if err := tsrv.Serve(l); err != nil {
		_ = l.Close()
		return err
	}
	p.mu.Lock()
	p.tsrv = tsrv
	p.mu.Unlock()
	p.leases.Start(p.opts.sweepEvery)
	return nil
}

// Export makes obj callable remotely under the given interface name and
// returns its reference. Exported objects are pinned: DGC never collects
// them. Exporting the same object again returns the same reference.
func (p *Peer) Export(obj Remote, iface string) (wire.Ref, error) {
	endpoint := p.Endpoint()
	if endpoint == "" {
		return wire.Ref{}, ErrClientOnly
	}
	if iface == "" {
		iface = ifaceNameFor(obj)
	}
	id, err := p.exports.add(obj, iface, true)
	if err != nil {
		return wire.Ref{}, err
	}
	return wire.Ref{Endpoint: endpoint, ObjID: id, Iface: iface}, nil
}

// ExportSystem installs a system service at a reserved object id
// (id < FirstUserObjID). Used by internal/registry and internal/core.
func (p *Peer) ExportSystem(id uint64, obj Remote, iface string) (wire.Ref, error) {
	endpoint := p.Endpoint()
	if endpoint == "" {
		return wire.Ref{}, ErrClientOnly
	}
	if err := p.exports.addAt(id, obj, iface); err != nil {
		return wire.Ref{}, err
	}
	return wire.Ref{Endpoint: endpoint, ObjID: id, Iface: iface}, nil
}

// exportAuto exports a remote object that is being marshalled out as a
// method result (Java RMI's automatic stub creation). Auto exports live
// under DGC: the marshalling itself grants an initial lease so the object
// survives until the receiving client starts renewing.
func (p *Peer) exportAuto(obj Remote) (wire.Ref, error) {
	endpoint := p.Endpoint()
	if endpoint == "" {
		return wire.Ref{}, fmt.Errorf("rmi: cannot marshal remote object from non-serving peer: %w", ErrClientOnly)
	}
	iface := ifaceNameFor(obj)
	id, err := p.exports.add(obj, iface, false)
	if err != nil {
		return wire.Ref{}, err
	}
	p.leases.Dirty(marshalHolder, 0, []uint64{id})
	return wire.Ref{Endpoint: endpoint, ObjID: id, Iface: iface}, nil
}

// Unexport removes an object from the export table. Outstanding refs to it
// start failing with NoSuchObjectError.
func (p *Peer) Unexport(ref wire.Ref) bool {
	return p.exports.remove(ref.ObjID)
}

// forwardRecord is the tombstone left behind when an object migrates to a
// new home server: enough for a stale caller to re-route (the cluster-wide
// key) and to know how stale it is (the membership epoch of the move).
type forwardRecord struct {
	key   string
	epoch uint64
	at    time.Time
}

// ForwardTTL bounds how long a migration tombstone answers for a departed
// object. It caps the memory a long-lived server spends on re-sharding
// history, and with it how stale a client may be and still receive the
// typed wrong-home redirect; beyond it, calls degrade to NoSuchObjectError.
const ForwardTTL = 30 * time.Minute

// ForwardObject unexports objID and leaves a forwarding tombstone: calls
// routed here with a stale shard map fail with *WrongHomeError carrying the
// object's cluster-wide key and the membership epoch of the move, instead of
// an opaque NoSuchObjectError. The cluster rebalancer installs tombstones
// when it migrates objects off this server. Tombstones expire after
// ForwardTTL.
func (p *Peer) ForwardObject(objID uint64, key string, epoch uint64) {
	// Tombstone first, then unexport: a concurrent call landing between the
	// two must see WrongHome (retryable), never NoSuchObject (terminal).
	now := time.Now()
	p.mu.Lock()
	for id, f := range p.forwards {
		if now.Sub(f.at) > ForwardTTL {
			delete(p.forwards, id)
		}
	}
	p.forwards[objID] = forwardRecord{key: key, epoch: epoch, at: now}
	p.mu.Unlock()
	p.exports.remove(objID)
}

// ForwardedObject reports the wrong-home error for a migrated-away object
// id, if one is recorded and has not expired. The dispatch layer and the
// BRMI batch executor consult it when an id is absent from the export
// table.
func (p *Peer) ForwardedObject(objID uint64) (*WrongHomeError, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.forwards[objID]
	if !ok {
		return nil, false
	}
	if time.Since(f.at) > ForwardTTL {
		delete(p.forwards, objID)
		return nil, false
	}
	return &WrongHomeError{Key: f.key, NewEpoch: f.epoch}, true
}

// LocalObject resolves an object id in this peer's export table. The BRMI
// batch executor uses it to obtain the root object of a batch.
func (p *Peer) LocalObject(objID uint64) (any, bool) {
	e, ok := p.exports.get(objID)
	if !ok {
		return nil, false
	}
	return e.obj, true
}

// LocalRef returns the full reference of an object id in this peer's export
// table: the interface it was exported under is what a replica needs to build
// its shadow of the object.
func (p *Peer) LocalRef(objID uint64) (wire.Ref, bool) {
	e, ok := p.exports.get(objID)
	if !ok {
		return wire.Ref{}, false
	}
	return wire.Ref{Endpoint: p.Endpoint(), ObjID: objID, Iface: e.iface}, true
}

// ExportedID returns the export id of obj, if it is exported.
func (p *Peer) ExportedID(obj any) (uint64, bool) { return p.exports.idOf(obj) }

// NumExported returns the current export table size (system services
// included). Exposed for tests and DGC observability.
func (p *Peer) NumExported() int { return p.exports.size() }

// Deref returns an Invoker for ref without contacting the server (stubs are
// lazy, like RMI stubs).
func (p *Peer) Deref(ref wire.Ref) Invoker {
	v := p.stubFor(ref)
	if inv, ok := v.(Invoker); ok {
		return inv
	}
	// A registered typed stub that is not an Invoker itself; wrap again.
	return &Stub{peer: p, ref: ref}
}

// DerefTyped returns the typed stub for ref (via the registered factory),
// or the generic *Stub when no factory exists.
func (p *Peer) DerefTyped(ref wire.Ref) any { return p.stubFor(ref) }

// Call invokes a remote method on ref. Arguments are marshalled with
// pass-by-reference semantics for remote objects/stubs and pass-by-copy for
// everything else. Returned refs arrive as stubs.
func (p *Peer) Call(ctx context.Context, ref wire.Ref, method string, args ...any) ([]any, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ref.ObjID != DGCObjID {
		p.calls.Add(1)
	}

	req := &callRequest{ObjID: ref.ObjID, Method: method, Args: make([]any, len(args))}
	for i, a := range args {
		w, err := p.ToWire(a)
		if err != nil {
			return nil, fmt.Errorf("rmi: marshal arg %d of %s: %w", i, method, err)
		}
		req.Args[i] = w
	}
	// Encode into a pooled buffer: the transport hands the payload to the
	// connection synchronously, so once Call returns the buffer is free.
	encStart := p.statsNow()
	buf := transport.GetBuffer()
	payload, err := wire.MarshalAppend(buf, req)
	if err != nil {
		transport.PutBuffer(buf)
		return nil, fmt.Errorf("rmi: encode call %s: %w", method, err)
	}
	p.observeSince(p.encNs, encStart)

	respBytes, err := p.pool.Call(ctx, ref.Endpoint, payload)
	transport.PutBuffer(payload)
	if err != nil {
		return nil, &RemoteException{Op: "call " + method, Endpoint: ref.Endpoint, Err: err}
	}
	decStart := p.statsNow()
	msg, err := wire.Unmarshal(respBytes)
	transport.PutBuffer(respBytes)
	p.observeSince(p.decNs, decStart)
	if err != nil {
		return nil, &RemoteException{Op: "decode " + method, Endpoint: ref.Endpoint, Err: err}
	}
	resp, ok := msg.(*callResponse)
	if !ok {
		return nil, &RemoteException{Op: "decode " + method, Endpoint: ref.Endpoint,
			Err: fmt.Errorf("unexpected response type %T", msg)}
	}
	if resp.Err != nil {
		return nil, resp.Err
	}
	results := make([]any, len(resp.Results))
	for i, r := range resp.Results {
		results[i] = p.FromWire(r)
	}
	return results, nil
}

// statsNow reads the registry clock, or the zero time when the peer is
// uninstrumented (keeping the clock read off the fast path).
func (p *Peer) statsNow() time.Time {
	if p.reg == nil {
		return time.Time{}
	}
	return p.reg.Now()
}

// observeSince records the elapsed nanoseconds since start on h. A zero
// start (uninstrumented peer) records nothing.
func (p *Peer) observeSince(h *stats.Histogram, start time.Time) {
	if h == nil || start.IsZero() {
		return
	}
	h.Observe(p.reg.Now().Sub(start).Nanoseconds())
}

// trackHold records that this peer holds a reference to ref, starts the
// renewal loop if needed, and kicks an immediate asynchronous dirty call for
// newly held objects (mirroring Java's DGCClient, which enqueues a dirty as
// soon as a remote reference is unmarshalled). System objects are pinned and
// not tracked.
func (p *Peer) trackHold(ref wire.Ref) {
	if ref.ObjID < FirstUserObjID || ref.Endpoint == "" {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	m := p.holds[ref.Endpoint]
	if m == nil {
		m = make(map[uint64]int)
		p.holds[ref.Endpoint] = m
	}
	m[ref.ObjID]++
	fresh := m[ref.ObjID] == 1
	if !p.renewing {
		p.renewing = true
		p.renewerWG.Add(1)
		go p.renewLoop()
	}
	p.mu.Unlock()
	if fresh {
		select {
		case p.renewKick <- struct{}{}:
		default: // a kick is already queued
		}
	}
}

// releaseHold decrements the refcount for ref and sends a DGC clean call
// when it reaches zero.
func (p *Peer) releaseHold(ctx context.Context, ref wire.Ref) {
	p.releaseHolds(ctx, []wire.Ref{ref})
}

// releaseHolds decrements the refcount of each ref, batching the resulting
// DGC clean calls — one Clean per endpoint (the protocol takes a list of
// object ids), sent in parallel across endpoints.
func (p *Peer) releaseHolds(ctx context.Context, refs []wire.Ref) {
	p.mu.Lock()
	toClean := make(map[string][]uint64)
	for _, ref := range refs {
		if ref.ObjID < FirstUserObjID || ref.Endpoint == "" {
			continue
		}
		m := p.holds[ref.Endpoint]
		if m == nil || m[ref.ObjID] == 0 {
			continue
		}
		m[ref.ObjID]--
		if m[ref.ObjID] == 0 {
			delete(m, ref.ObjID)
			toClean[ref.Endpoint] = append(toClean[ref.Endpoint], ref.ObjID)
		}
	}
	closed := p.closed
	p.mu.Unlock()
	if closed || len(toClean) == 0 {
		return
	}
	var wg sync.WaitGroup
	for endpoint, ids := range toClean {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dgcRef := SystemRef(endpoint, DGCObjID, DGCIface)
			if _, err := p.Call(ctx, dgcRef, "Clean", p.clientID, p.dgcSeq.Add(1), ids); err != nil {
				p.opts.logf("rmi: dgc clean %s%v: %v", endpoint, ids, err)
			}
		}()
	}
	wg.Wait()
}

// renewLoop renews leases for all held references. It wakes on a timer
// derived from the shortest lease any server granted (renew at lease/3), or
// immediately when a kick reports a newly held reference.
func (p *Peer) renewLoop() {
	defer p.renewerWG.Done()
	for {
		timer := time.NewTimer(p.renewInterval())
		select {
		case <-timer.C:
			p.renewAll()
		case <-p.renewKick:
			timer.Stop()
			p.renewAll()
		case <-p.done:
			timer.Stop()
			return
		}
	}
}

// renewInterval derives the wake-up period from granted leases.
func (p *Peer) renewInterval() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	interval := p.opts.renewEvery
	for _, lease := range p.granted {
		if d := lease / 3; d < interval {
			interval = d
		}
	}
	const floor = 5 * time.Millisecond
	if interval < floor {
		interval = floor
	}
	return interval
}

func (p *Peer) renewAll() {
	p.mu.Lock()
	snapshot := make(map[string][]uint64, len(p.holds))
	for endpoint, m := range p.holds {
		if len(m) == 0 {
			continue
		}
		ids := make([]uint64, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		snapshot[endpoint] = ids
	}
	p.mu.Unlock()

	for endpoint, ids := range snapshot {
		ctx, cancel := context.WithTimeout(context.Background(), p.opts.renewEvery)
		res, err := p.Call(ctx, SystemRef(endpoint, DGCObjID, DGCIface), "Dirty", p.clientID, p.dgcSeq.Add(1), ids)
		cancel()
		if err != nil {
			p.opts.logf("rmi: dgc dirty %s: %v", endpoint, err)
			continue
		}
		if len(res) == 1 {
			if lease, ok := res[0].(time.Duration); ok && lease > 0 {
				p.mu.Lock()
				p.granted[endpoint] = lease
				p.mu.Unlock()
			}
		}
	}
}

// RenewNow synchronously renews all held leases once. Exposed for tests.
func (p *Peer) RenewNow() { p.renewAll() }

// HoldRef begins DGC lease tracking for ref without materializing a stub:
// the peer dirties the reference immediately and keeps renewing its lease
// until a matching ReleaseRef. The cluster layer uses it to keep pinned
// batch results (core.Proxy.ExportedRef) alive between pipeline stages.
func (p *Peer) HoldRef(ref wire.Ref) { p.trackHold(ref) }

// ReleaseRef drops one HoldRef (or stub) hold on ref, sending the DGC clean
// call when the last local hold disappears.
func (p *Peer) ReleaseRef(ctx context.Context, ref wire.Ref) { p.releaseHold(ctx, ref) }

// ReleaseRefs drops one hold on each ref, batching the DGC clean traffic:
// one Clean call per endpoint, endpoints in parallel. The cluster layer
// uses it to unwind a whole pipeline's pinned-result leases in a single
// round-trip wave.
func (p *Peer) ReleaseRefs(ctx context.Context, refs []wire.Ref) { p.releaseHolds(ctx, refs) }

// CallCount returns the number of application-level remote invocations this
// peer has issued (DGC housekeeping excluded). One invocation is one
// network round trip.
func (p *Peer) CallCount() uint64 { return p.calls.Load() }

// Close shuts the peer down: the renewal loop stops, the lease sweeper
// stops, the transport server closes, and pooled client connections close.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	tsrv := p.tsrv
	p.mu.Unlock()

	close(p.done)
	p.renewerWG.Wait()
	p.leases.Stop()
	if tsrv != nil {
		_ = tsrv.Close()
	}
	return p.pool.Close()
}

// dgcService exposes the lease table as the reserved system object,
// mirroring java.rmi.dgc.DGC's dirty/clean protocol.
type dgcService struct {
	RemoteBase
	table *dgc.Table
}

// marshalHolder is the synthetic lease holder protecting a freshly
// auto-exported object until the receiving client's first dirty arrives.
const marshalHolder = "__marshal"

// Dirty grants/renews leases for clientID and returns the lease duration.
// The first client dirty for an object completes the marshal handoff: the
// synthetic marshal lease is dropped so collection tracks real clients.
// (If a second client's ref is in flight at that instant, its own marshal
// grace was refreshed at marshal time; the handoff race window is one
// client round trip, same as Java RMI's.)
func (s *dgcService) Dirty(clientID string, seq uint64, objIDs []uint64) time.Duration {
	lease := s.table.Dirty(clientID, seq, objIDs)
	s.table.ForceClean(marshalHolder, objIDs)
	return lease
}

// Clean releases clientID's leases. Sequence numbers prevent dirty/clean
// reordering races (paper-era Java DGC does the same).
func (s *dgcService) Clean(clientID string, seq uint64, objIDs []uint64) {
	s.table.Clean(clientID, seq, objIDs)
}
