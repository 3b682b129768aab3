package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// numShards splits the pending-call table so concurrent callers on one
// client do not serialize on a single lock. Must be a power of two.
const numShards = 16

// Client issues requests to a single endpoint over one shared connection,
// multiplexing concurrent calls by request id. It redials transparently
// after a connection failure. Safe for concurrent use.
//
// The hot path is lock-light: request ids come from an atomic counter, the
// live connection is an atomic pointer (the mutex is only taken to dial,
// tear down, or close), and the pending-call table is sharded by id.
type Client struct {
	network  Network
	endpoint string
	st       *Stats

	nextID atomic.Uint64
	cur    atomic.Pointer[clientConn]

	mu      sync.Mutex // serializes dial, teardown, close
	closed  bool
	gen     uint64 // bumped per successful dial; tags pending calls
	readers sync.WaitGroup

	shards [numShards]pendingShard
}

type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]*pendingCall
}

// pendingCall carries one in-flight request's response channel, tagged with
// the generation of the connection it was issued on so a dying connection
// fails exactly the calls that rode it. Records (and their channels) are
// pooled. A stream call (CallStream) carries its reader instead; stream
// records are never pooled.
type pendingCall struct {
	ch     chan response
	gen    uint64
	stream *StreamReader
}

var pendingPool = sync.Pool{New: func() any {
	return &pendingCall{ch: make(chan response, 1)}
}}

// clientConn is one dialed connection's immutable state. ct is the
// send-side flow control for chunked messages issued on this connection;
// asm reassembles inbound chunked responses (read loop only).
type clientConn struct {
	conn net.Conn
	fw   *frameWriter
	gen  uint64
	ct   *creditTable
	asm  *assembler
}

type response struct {
	payload []byte
	err     error
}

// NewClient creates a client for endpoint. No connection is opened until
// the first Call.
func NewClient(network Network, endpoint string) *Client {
	c := &Client{network: network, endpoint: endpoint, st: noStats}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*pendingCall)
	}
	return c
}

// SetStats attaches the transport metric bundle. Call before the first
// Call; a nil bundle detaches.
func (c *Client) SetStats(st *Stats) {
	if st == nil {
		st = noStats
	}
	c.st = st
}

// Endpoint returns the endpoint this client dials.
func (c *Client) Endpoint() string { return c.endpoint }

// Call sends payload and blocks until the response, a connection failure,
// or ctx cancellation. On cancellation the pending entry is abandoned; a
// late response is discarded. The returned payload buffer is owned by the
// caller, which may return it to the pool with PutBuffer after decoding.
//
// A payload larger than one frame is chunked transparently (see
// stream.go), so there is no send-side size ceiling; should a single-frame
// ErrTooLarge still surface, it fails only this call — the connection
// stays up and concurrent calls proceed undisturbed.
//
// A one-frame request that fails to send before any byte of it left — the
// peer closed the connection, and the read loop has not noticed yet — is
// sent once more on a new connection: the peer cannot have seen it.
func (c *Client) Call(ctx context.Context, payload []byte) ([]byte, error) {
	id, pc, err := c.send(ctx, payload)
	var ns *notSentError
	if errors.As(err, &ns) && len(payload) <= maxDirectPayload {
		id, pc, err = c.send(ctx, payload)
	}
	if err != nil {
		return nil, err
	}
	select {
	case resp := <-pc.ch:
		pendingPool.Put(pc)
		return resp.payload, resp.err
	case <-ctx.Done():
		if c.remove(id) {
			// No sender took the record; safe to recycle.
			pendingPool.Put(pc)
		}
		// Else a response/teardown is in flight; abandon the record.
		return nil, ctx.Err()
	}
}

// send registers a pending call for payload on the live connection, dialing
// one if needed, and sends the request. A failed send drops the connection,
// unless the request was too large to be one frame.
func (c *Client) send(ctx context.Context, payload []byte) (uint64, *pendingCall, error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return 0, nil, err
	}
	id := c.nextID.Add(1)
	pc := pendingPool.Get().(*pendingCall)
	pc.gen = cc.gen
	sh := &c.shards[id&(numShards-1)]
	sh.mu.Lock()
	sh.m[id] = pc
	sh.mu.Unlock()
	c.st.Pending.Add(1)

	if err := sendMessage(ctx, cc.fw, cc.ct, c.st, frameRequest, id, payload); err != nil {
		if errors.Is(err, ErrTooLarge) {
			// Nothing was buffered or sent; fail this call only.
			if c.remove(id) {
				pendingPool.Put(pc)
			}
			return 0, nil, err
		}
		c.dropConn(cc)
		if c.remove(id) {
			pendingPool.Put(pc)
		}
		return 0, nil, fmt.Errorf("transport: send to %s: %w", c.endpoint, err)
	}
	return id, pc, nil
}

// CallStream sends payload as a stream request: the response arrives as an
// ordered chunk stream delivered through the returned reader while later
// chunks are still in flight (the server must install a stream handler,
// see WithStreamHandler). The reader must be drained to io.EOF or closed;
// Close cancels the sender via a zero-credit grant. Oversized request
// payloads are chunked like Call's.
func (c *Client) CallStream(ctx context.Context, payload []byte) (*StreamReader, error) {
	cc, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	id := c.nextID.Add(1)
	r := newStreamReader(ctx, c, cc, id)
	pc := &pendingCall{gen: cc.gen, stream: r}
	sh := &c.shards[id&(numShards-1)]
	sh.mu.Lock()
	sh.m[id] = pc
	sh.mu.Unlock()
	c.st.Pending.Add(1)

	if err := sendMessage(ctx, cc.fw, cc.ct, c.st, frameStreamReq, id, payload); err != nil {
		c.remove(id)
		r.deliver(0, nil, 0, false, err)
		c.dropConn(cc)
		return nil, fmt.Errorf("transport: send to %s: %w", c.endpoint, err)
	}
	return r, nil
}

// remove deletes a pending entry, reporting whether it was still present
// (present means no response/failure path owns it).
func (c *Client) remove(id uint64) bool {
	sh := &c.shards[id&(numShards-1)]
	sh.mu.Lock()
	_, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok {
		c.st.Pending.Add(-1)
	}
	return ok
}

// take claims the pending entry for id, if any.
func (c *Client) take(id uint64) *pendingCall {
	sh := &c.shards[id&(numShards-1)]
	sh.mu.Lock()
	pc := sh.m[id]
	if pc != nil {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if pc != nil {
		c.st.Pending.Add(-1)
	}
	return pc
}

// peek returns the pending entry for id without claiming it — chunk frames
// address the same id many times before the stream completes.
func (c *Client) peek(id uint64) *pendingCall {
	sh := &c.shards[id&(numShards-1)]
	sh.mu.Lock()
	pc := sh.m[id]
	sh.mu.Unlock()
	return pc
}

// conn returns the live connection, dialing under the mutex if needed.
func (c *Client) conn(ctx context.Context) (*clientConn, error) {
	if cc := c.cur.Load(); cc != nil {
		return cc, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if cc := c.cur.Load(); cc != nil {
		return cc, nil
	}
	conn, err := c.network.Dial(ctx, c.endpoint)
	if err != nil {
		return nil, &DialError{Endpoint: c.endpoint, Err: err}
	}
	c.gen++
	c.st.Dials.Inc()
	if c.gen > 1 {
		c.st.Redials.Inc()
	}
	cc := &clientConn{
		conn: conn,
		fw:   newFrameWriter(conn, c.st),
		gen:  c.gen,
		ct:   newCreditTable(),
		asm:  newAssembler(),
	}
	c.cur.Store(cc)
	c.readers.Add(1)
	go c.readLoop(cc)
	return cc, nil
}

// readLoop delivers responses until the connection dies, then fails the
// pending calls that were issued on that connection.
func (c *Client) readLoop(cc *clientConn) {
	defer c.readers.Done()
	br := bufio.NewReader(cc.conn)
	for {
		kind, id, payload, size, err := readFrame(br)
		if err != nil {
			var of *OversizedFrameError
			if errors.As(err, &of) {
				// The peer sent a single frame beyond the ceiling. The
				// payload was drained and the connection is healthy, so
				// fail only the addressed call — the receive-side mirror of
				// the send path's fail-one-call ErrTooLarge contract.
				if pc := c.take(of.ID); pc != nil {
					c.deliver(pc, response{err: fmt.Errorf("transport: response from %s: %w", c.endpoint, of)})
				}
				continue
			}
			c.failConn(cc, fmt.Errorf("transport: connection to %s lost: %w", c.endpoint, err))
			return
		}
		c.st.FramesIn.Inc()
		c.st.BytesIn.Add(uint64(size))
		switch kind {
		case frameCredit:
			if n, ok := parseCredit(payload); ok {
				cc.ct.grant(id, n)
			}
			PutBuffer(payload)
			continue
		case frameChunk:
			if err := c.handleChunk(cc, id, payload); err != nil {
				c.failConn(cc, fmt.Errorf("transport: connection to %s lost: %w", c.endpoint, err))
				return
			}
			continue
		}
		pc := c.take(id)
		if pc == nil {
			PutBuffer(payload) // canceled call; drop late response
			continue
		}
		switch kind {
		case frameRespOK:
			c.deliver(pc, response{payload: payload})
		case frameRespErr:
			msg := string(payload)
			PutBuffer(payload)
			c.deliver(pc, response{err: &HandlerError{Endpoint: c.endpoint, Msg: msg}})
		default:
			PutBuffer(payload)
			c.deliver(pc, response{err: fmt.Errorf("transport: unexpected frame kind %d from %s", kind, c.endpoint)})
		}
	}
}

// handleChunk routes one frameChunk frame: stream-call chunks feed the
// pending call's reader incrementally, chunks of an ordinary oversized
// response reassemble into one payload. A returned error is a protocol
// violation and connection-fatal.
func (c *Client) handleChunk(cc *clientConn, id uint64, payload []byte) error {
	cv, err := parseChunk(payload)
	if err != nil {
		PutBuffer(payload)
		return err
	}
	c.st.ChunksIn.Inc()
	c.st.StreamBytesIn.Add(uint64(len(cv.data)))
	pc := c.peek(id)
	if pc == nil {
		// Abandoned call: drop the chunk but keep granting credit so the
		// sender runs to its fin instead of blocking on a dead window.
		cc.asm.drop(id)
		n := len(cv.data)
		fin := cv.fin
		PutBuffer(payload)
		if !fin && n > 0 {
			_ = writeCredit(cc.fw, id, n)
		}
		return nil
	}
	if r := pc.stream; r != nil {
		// The reader owns the whole payload (it grants credit as the consumer
		// reads the data span behind the chunk header) and returns it to the
		// pool intact — handing it only the data span would shave the header
		// off the buffer's capacity on every trip through the pool.
		var terminal bool
		switch cv.inner {
		case frameRespOK:
			terminal = r.deliver(cv.seq, payload, cv.off, cv.fin, nil)
		case frameRespErr:
			msg := string(cv.data)
			PutBuffer(payload)
			terminal = r.deliver(cv.seq, nil, 0, cv.fin, &HandlerError{Endpoint: c.endpoint, Msg: msg})
		default:
			PutBuffer(payload)
			terminal = r.deliver(cv.seq, nil, 0, cv.fin, fmt.Errorf("transport: unexpected chunked frame kind %d from %s", cv.inner, c.endpoint))
		}
		if terminal {
			c.remove(id)
		}
		return nil
	}
	// Ordinary call whose response outgrew one frame: reassemble, granting
	// credit immediately — reassembly consumes as fast as the wire delivers.
	inner, msg, done, aerr := cc.asm.add(id, cv)
	n := len(cv.data)
	PutBuffer(payload)
	if aerr != nil {
		return aerr
	}
	if !done {
		if n > 0 {
			_ = writeCredit(cc.fw, id, n)
		}
		return nil
	}
	if pc := c.take(id); pc != nil {
		switch inner {
		case frameRespOK:
			c.deliver(pc, response{payload: msg})
		case frameRespErr:
			s := string(msg)
			PutBuffer(msg)
			c.deliver(pc, response{err: &HandlerError{Endpoint: c.endpoint, Msg: s}})
		default:
			PutBuffer(msg)
			c.deliver(pc, response{err: fmt.Errorf("transport: unexpected chunked frame kind %d from %s", inner, c.endpoint)})
		}
	} else {
		PutBuffer(msg)
	}
	return nil
}

// deliver completes one claimed pending call: plain calls through their
// response channel, stream calls through their reader (a stream call
// completed here received a non-chunk outcome — a transport error or an
// unexpected plain response).
func (c *Client) deliver(pc *pendingCall, resp response) {
	if r := pc.stream; r != nil {
		err := resp.err
		if err == nil {
			PutBuffer(resp.payload)
			err = fmt.Errorf("transport: unchunked response to stream call from %s", c.endpoint)
		}
		r.deliver(0, nil, 0, false, err)
		return
	}
	pc.ch <- resp
}

// failConn tears down cc (if still current) and fails every pending call
// issued on it. Calls already riding a newer connection are left alone;
// senders blocked on stream credit are woken with the failure.
func (c *Client) failConn(cc *clientConn, err error) {
	c.cur.CompareAndSwap(cc, nil)
	_ = cc.conn.Close()
	cc.ct.fail(err)
	c.failPending(func(pc *pendingCall) bool { return pc.gen == cc.gen }, err)
}

// failPending sweeps the shards and fails every pending call matching the
// filter. Each call receives exactly one completion: senders claim records
// by removing them from the shard map first.
func (c *Client) failPending(match func(*pendingCall) bool, err error) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var failed []*pendingCall
		for id, pc := range sh.m {
			if match(pc) {
				delete(sh.m, id)
				failed = append(failed, pc)
			}
		}
		sh.mu.Unlock()
		c.st.Pending.Add(-int64(len(failed)))
		for _, pc := range failed {
			c.deliver(pc, response{err: err})
		}
	}
}

// dropConn closes the connection behind cc if it is still current, forcing
// the next call to redial.
func (c *Client) dropConn(cc *clientConn) {
	if c.cur.CompareAndSwap(cc, nil) {
		_ = cc.conn.Close()
	}
}

// Close terminates the connection and fails outstanding calls with
// ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.readers.Wait()
		return nil
	}
	c.closed = true
	cc := c.cur.Swap(nil)
	c.mu.Unlock()

	if cc != nil {
		_ = cc.conn.Close()
	}
	c.failPending(func(*pendingCall) bool { return true }, ErrClosed)
	c.readers.Wait()
	return nil
}

// Pool caches one Client per endpoint, mirroring RMI's connection reuse.
// Safe for concurrent use. The endpoint set stabilizes immediately in
// steady state, so Get reads a copy-on-write snapshot without locking.
type Pool struct {
	network Network
	st      *Stats

	snap    atomic.Pointer[map[string]*Client]
	mu      sync.Mutex
	clients map[string]*Client
	closed  bool
}

// NewPool creates an empty client pool over network.
func NewPool(network Network) *Pool {
	p := &Pool{network: network, st: noStats, clients: make(map[string]*Client)}
	empty := map[string]*Client{}
	p.snap.Store(&empty)
	return p
}

// SetStats attaches the transport metric bundle; clients created after
// the call inherit it. Call before first use; a nil bundle detaches.
func (p *Pool) SetStats(st *Stats) {
	if st == nil {
		st = noStats
	}
	p.mu.Lock()
	p.st = st
	p.mu.Unlock()
}

// Get returns the pooled client for endpoint, creating it if needed.
func (p *Pool) Get(endpoint string) (*Client, error) {
	if c, ok := (*p.snap.Load())[endpoint]; ok {
		return c, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if c, ok := p.clients[endpoint]; ok {
		return c, nil
	}
	c := NewClient(p.network, endpoint)
	c.SetStats(p.st)
	p.clients[endpoint] = c
	next := make(map[string]*Client, len(p.clients))
	for k, v := range p.clients {
		next[k] = v
	}
	p.snap.Store(&next)
	return c, nil
}

// Call is shorthand for Get(endpoint).Call(ctx, payload).
func (p *Pool) Call(ctx context.Context, endpoint string, payload []byte) ([]byte, error) {
	c, err := p.Get(endpoint)
	if err != nil {
		return nil, err
	}
	return c.Call(ctx, payload)
}

// CallStream is shorthand for Get(endpoint).CallStream(ctx, payload).
func (p *Pool) CallStream(ctx context.Context, endpoint string, payload []byte) (*StreamReader, error) {
	c, err := p.Get(endpoint)
	if err != nil {
		return nil, err
	}
	return c.CallStream(ctx, payload)
}

// Close closes every pooled client.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	clients := make([]*Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.clients = nil
	empty := map[string]*Client{}
	p.snap.Store(&empty)
	p.mu.Unlock()

	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}
