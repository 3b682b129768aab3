// Package transport implements the message transport beneath the RMI
// substrate: length-framed, request-ID-multiplexed request/response exchange
// over any net.Conn provider.
//
// It plays the role JRMP (the RMI wire protocol) plays for Java RMI. The
// payloads are opaque byte slices; internal/rmi encodes its call frames with
// internal/wire and hands them to a Client, and serves them via a Server.
//
// A Network abstracts connection establishment so the same client/server
// code runs over real TCP (TCPNetwork) or the simulated links provided by
// internal/netsim.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
)

// DialError reports a failure to ESTABLISH a connection: the request was
// never written to the wire, so the remote call is known not to have
// executed. Callers with idempotence concerns (e.g. the cluster layer's
// stale-route retry) rely on that distinction — a mid-call connection loss
// is NOT a DialError, because the server may have executed the request
// before the response was lost.
type DialError struct {
	Endpoint string
	Err      error
}

func (e *DialError) Error() string {
	return fmt.Sprintf("transport: dial %s: %v", e.Endpoint, e.Err)
}

func (e *DialError) Unwrap() error { return e.Err }

// Network provides connections between named endpoints. Implementations:
// TCPNetwork (host:port endpoints) and netsim.Network (in-memory simulated
// links). Implementations must be safe for concurrent use.
type Network interface {
	// Dial opens a connection to the named endpoint.
	Dial(ctx context.Context, endpoint string) (net.Conn, error)
	// Listen starts accepting connections at the named endpoint.
	Listen(endpoint string) (net.Listener, error)
}

// Frame layout (after the 4-byte big-endian length prefix):
//
//	1 byte  kind (request / response-ok / response-error / ...)
//	8 bytes request id (big endian)
//	N bytes payload
//
// A frameChunk payload opens with a 6-byte chunk header (inner kind, flags,
// 4-byte sequence number) followed by chunk data; see stream.go.
const (
	frameRequest byte = 1
	frameRespOK  byte = 2
	frameRespErr byte = 3 // payload is a UTF-8 error string
	// Kind 4 is unassigned: a server ignores such a frame, and fails the
	// connection of a chunked message that claims it as its inner kind.

	// frameChunk carries one chunk of a logical message spanning many
	// frames — an oversized call being transparently chunked, or one hop of
	// a response stream. The frame id is the stream id; chunks of different
	// streams interleave freely on one connection.
	frameChunk byte = 5
	// frameCredit is a flow-control grant for the stream named by the frame
	// id: the 4-byte big-endian payload credits the sender with that many
	// more data bytes. A zero grant cancels the stream (the receiver is
	// gone; stop sending).
	frameCredit byte = 6
	// frameStreamReq is a request whose response arrives as a frameChunk
	// stream (see Client.CallStream / WithStreamHandler).
	frameStreamReq byte = 7

	frameKindMax = frameStreamReq
	frameHeader  = 1 + 8
)

// MaxFrameSize bounds a single wire frame. Larger logical messages are
// legal: the send path splits them into frameChunk frames and the receiver
// reassembles (see stream.go); only a single frame claiming more than this
// is rejected, protecting against corrupt length prefixes.
const MaxFrameSize = 64 << 20

// Exported errors.
var (
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("transport: closed")

	// ErrTooLarge reports a single frame exceeding MaxFrameSize. On the
	// send side it is checked before anything is buffered or written; on the
	// receive side the oversized payload is drained without allocating
	// (see OversizedFrameError). Both sides fail the offending call only —
	// the connection and all concurrent calls on it stay healthy. Match
	// with errors.Is.
	ErrTooLarge = errors.New("transport: frame too large")

	// ErrStreamCanceled reports that the stream's receiver canceled it (a
	// zero-credit grant): the consumer closed its reader, so the sender
	// must stop producing.
	ErrStreamCanceled = errors.New("transport: stream canceled by receiver")
)

// OversizedFrameError reports an inbound frame whose declared length
// exceeds MaxFrameSize. readFrame validates the header's shape first,
// drains the payload without allocating for it, and returns this typed
// error so the read loops can fail only the addressed call and keep the
// connection — the receive-side mirror of the send path's fail-one-call
// ErrTooLarge contract. errors.Is(err, ErrTooLarge) matches.
type OversizedFrameError struct {
	Kind byte
	ID   uint64
	Size uint64
}

func (e *OversizedFrameError) Error() string {
	return fmt.Sprintf("transport: inbound frame too large: %d bytes (kind %d, id %d)", e.Size, e.Kind, e.ID)
}

func (e *OversizedFrameError) Unwrap() error { return ErrTooLarge }

// HandlerError is the client-side form of an error string returned by the
// remote handler at the transport level (the request never reached, or blew
// up inside, the application dispatcher).
type HandlerError struct {
	Endpoint string
	Msg      string
}

func (e *HandlerError) Error() string {
	return fmt.Sprintf("transport: remote handler at %s: %s", e.Endpoint, e.Msg)
}

// Handler processes one request payload and returns the response payload.
// Handlers run concurrently; they must be safe for concurrent use. A
// returned error is transported to the caller as a HandlerError.
//
// Under WithBufferReuse the server recycles both buffers through the
// shared pool: the handler must not retain payload after returning, and the
// response must be a buffer the handler owns outright (see GetBuffer).
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// StreamHandler processes one stream request (sent with Client.CallStream)
// by writing the response incrementally through w: bytes written stream to
// the caller in credit-gated chunks while the handler keeps producing. A
// returned error is delivered to the caller's reader after the data
// written so far; returning ErrStreamCanceled (which Write surfaces when
// the caller abandons the stream) is the clean way to stop early. Stream
// handlers run concurrently, like Handlers, and the same WithBufferReuse
// payload rules apply.
type StreamHandler func(ctx context.Context, payload []byte, w *StreamWriter) error

// TCPNetwork implements Network over the operating system's TCP stack.
// Endpoints are "host:port" strings.
type TCPNetwork struct{}

var _ Network = TCPNetwork{}

// Dial implements Network.
func (TCPNetwork) Dial(ctx context.Context, endpoint string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", endpoint)
}

// Listen implements Network.
func (TCPNetwork) Listen(endpoint string) (net.Listener, error) {
	return net.Listen("tcp", endpoint)
}
