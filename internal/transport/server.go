package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
)

// Server accepts connections from a Network listener and dispatches request
// frames to a Handler. Responses may complete out of order; the request id
// correlates them.
//
// Dispatch reuses a small pool of long-lived worker goroutines (their grown
// stacks stay warm across requests, which per-request goroutines cannot
// offer); when every worker is busy a request gets its own goroutine, so
// handler concurrency remains unbounded exactly as before.
type Server struct {
	handler Handler
	stream  StreamHandler
	logf    func(format string, args ...any)
	reuse   bool
	st      *Stats

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	wg sync.WaitGroup // accept loop + per-conn loops

	// tasks is the unbuffered handoff to idle dispatch workers: a send
	// succeeds only when a worker is ready to take the request, so a busy
	// pool never queues one request behind another.
	tasks    chan dispatchTask
	workerWG sync.WaitGroup // core workers + overflow dispatch goroutines

	ctx    context.Context
	cancel context.CancelFunc
}

type dispatchTask struct {
	fw      *frameWriter
	ct      *creditTable
	kind    byte
	id      uint64
	payload []byte
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLogf routes server diagnostics (connection failures) to logf instead
// of the standard logger. Pass a no-op to silence.
func WithLogf(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithBufferReuse opts the server into recycling message buffers through
// the shared pool: request payloads are returned to the pool after the
// handler returns, and response payloads after they are written. The
// handler must therefore not retain the request payload past its return,
// and must hand back response buffers it owns outright (ideally from
// GetBuffer) — never the request payload or a slice of it. The rmi layer
// satisfies both and opts in; handlers with other ownership conventions
// leave the option off and keep the allocate-per-message behavior.
func WithBufferReuse() ServerOption {
	return func(s *Server) { s.reuse = true }
}

// WithStreamHandler installs h for stream requests (Client.CallStream):
// instead of returning one response payload, h writes the response
// incrementally through a StreamWriter and the transport streams it to the
// caller in credit-gated chunks. Servers without the option reject stream
// requests with an error response.
func WithStreamHandler(h StreamHandler) ServerOption {
	return func(s *Server) { s.stream = h }
}

// WithStats attaches the transport metric bundle to the server's frame
// traffic (frames/bytes in and out, writev batch sizes).
func WithStats(st *Stats) ServerOption {
	return func(s *Server) {
		if st != nil {
			s.st = st
		}
	}
}

// NewServer creates a Server that dispatches to handler.
func NewServer(handler Handler, opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		handler: handler,
		logf:    log.Printf,
		st:      noStats,
		conns:   make(map[net.Conn]struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve begins accepting connections on l. It returns immediately; use
// Close to stop. Serve may be called once per server.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.listener != nil {
		s.mu.Unlock()
		return errors.New("transport: Serve called twice")
	}
	s.listener = l
	s.mu.Unlock()

	workers := 4 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	s.tasks = make(chan dispatchTask)
	for i := 0; i < workers; i++ {
		s.workerWG.Add(1)
		go s.dispatchWorker()
	}
	s.wg.Add(1)
	go s.acceptLoop(l)
	return nil
}

// dispatchWorker processes requests until the task channel closes (after
// every connection loop has exited, so no task can be lost).
func (s *Server) dispatchWorker() {
	defer s.workerWG.Done()
	for t := range s.tasks {
		s.dispatch(t.fw, t.ct, t.kind, t.id, t.payload)
	}
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()

	fw := newFrameWriter(conn, s.st)
	ct := newCreditTable()
	asm := newAssembler()
	defer ct.fail(net.ErrClosed) // wake stream handlers blocked on credit
	br := bufio.NewReader(conn)
	for {
		kind, id, payload, size, err := readFrame(br)
		if err != nil {
			var of *OversizedFrameError
			if errors.As(err, &of) {
				// The payload was drained; the connection is healthy. Fail
				// only the offending request — mirror the client read loop.
				if of.Kind == frameRequest || of.Kind == frameStreamReq {
					if werr := fw.write(frameRespErr, of.ID, []byte(of.Error())); werr != nil {
						s.logf("transport: server write error response: %v", werr)
					}
				}
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				s.logf("transport: server read: %v", err)
			}
			return
		}
		s.st.FramesIn.Inc()
		s.st.BytesIn.Add(uint64(size))
		switch kind {
		case frameRequest, frameStreamReq:
			s.submit(dispatchTask{fw: fw, ct: ct, kind: kind, id: id, payload: payload})
		case frameCredit:
			if n, ok := parseCredit(payload); ok {
				ct.grant(id, n)
			}
			PutBuffer(payload)
		case frameChunk:
			if err := s.handleChunk(fw, ct, asm, id, payload); err != nil {
				s.logf("transport: server read: %v", err)
				return
			}
		default:
			s.logf("transport: server ignoring frame kind %d", kind)
		}
	}
}

// submit hands one request to an idle dispatch worker, or a fresh goroutine
// when every worker is busy, so slow handlers never delay concurrent
// requests.
func (s *Server) submit(t dispatchTask) {
	select {
	case s.tasks <- t:
	default:
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			s.dispatch(t.fw, t.ct, t.kind, t.id, t.payload)
		}()
	}
}

// handleChunk folds one inbound chunk of an oversized request into the
// connection's assembler, granting credit as it consumes; a completed
// message dispatches under its inner kind. A returned error is a protocol
// violation and connection-fatal.
func (s *Server) handleChunk(fw *frameWriter, ct *creditTable, asm *assembler, id uint64, payload []byte) error {
	cv, err := parseChunk(payload)
	if err != nil {
		PutBuffer(payload)
		return err
	}
	s.st.ChunksIn.Inc()
	s.st.StreamBytesIn.Add(uint64(len(cv.data)))
	inner, msg, done, aerr := asm.add(id, cv)
	n := len(cv.data)
	PutBuffer(payload)
	if aerr != nil {
		return aerr
	}
	if !done {
		if n > 0 {
			_ = writeCredit(fw, id, n)
		}
		return nil
	}
	switch inner {
	case frameRequest, frameStreamReq:
		s.submit(dispatchTask{fw: fw, ct: ct, kind: inner, id: id, payload: msg})
		return nil
	default:
		PutBuffer(msg)
		return fmt.Errorf("transport: chunked message %d has request-invalid kind %d", id, inner)
	}
}

func (s *Server) dispatch(fw *frameWriter, ct *creditTable, kind byte, id uint64, payload []byte) {
	if kind == frameStreamReq {
		s.dispatchStream(fw, ct, id, payload)
		return
	}
	resp, err := s.handler(s.ctx, payload)
	if s.reuse {
		PutBuffer(payload)
	}
	if err != nil {
		if werr := fw.write(frameRespErr, id, []byte(err.Error())); werr != nil {
			s.logf("transport: server write error response: %v", werr)
		}
		return
	}
	// Responses larger than one frame chunk transparently (credit-gated),
	// lifting the response-size ceiling for ordinary calls.
	werr := sendMessage(s.ctx, fw, ct, s.st, frameRespOK, id, resp)
	if s.reuse {
		PutBuffer(resp)
	}
	if werr != nil {
		s.logf("transport: server write response: %v", werr)
	}
}

// dispatchStream runs the stream handler for one frameStreamReq, delivering
// its incremental writes as a chunk stream and its final status as the
// stream's terminator.
func (s *Server) dispatchStream(fw *frameWriter, ct *creditTable, id uint64, payload []byte) {
	if s.stream == nil {
		if s.reuse {
			PutBuffer(payload)
		}
		if werr := fw.write(frameRespErr, id, []byte("transport: server has no stream handler")); werr != nil {
			s.logf("transport: server write error response: %v", werr)
		}
		return
	}
	s.st.StreamsOpen.Add(1)
	w := newStreamWriter(s.ctx, fw, ct, s.st, id)
	herr := s.stream(s.ctx, payload, w)
	if s.reuse {
		PutBuffer(payload)
	}
	w.finish(herr)
	s.st.StreamsOpen.Add(-1)
}

// Close stops accepting, closes all connections, and waits for in-flight
// handlers to drain. It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.workerWG.Wait()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	if l != nil {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	// Connection loops first (they are the only task producers), then the
	// workers: closing tasks after the last producer exits cannot race.
	s.wg.Wait()
	if s.tasks != nil {
		close(s.tasks)
	}
	s.workerWG.Wait()
	return nil
}
