// Package core implements Batched Remote Method Invocation (BRMI), the
// paper's contribution: explicit batching of remote method calls over the
// RMI substrate in internal/rmi.
//
// A client wraps a remote reference in a Batch (the equivalent of
// BRMI.create). Method calls recorded through the batch's proxies return
// futures instead of values; calling Flush ships the entire recording to the
// server in a single round trip, where it is replayed against local objects,
// and the results are distributed to the futures (paper §3, §4).
//
// The package provides every feature of the paper's system:
//
//   - batch object proxies and futures (§3.2),
//   - dependency-aware exception propagation and exception policies —
//     abort, continue, and custom break/continue/repeat/restart (§3.3),
//   - array cursors that apply a sub-batch to every element of a returned
//     slice (§3.4),
//   - chained batches via FlushAndContinue, with server-side sessions that
//     keep earlier results addressable (§3.5),
//   - server-side remote reference identity: replayed calls operate on the
//     identical local objects, which plain RMI cannot guarantee (§4.4).
//
// Go has no dynamic proxies, so typed batch interfaces (BFile, CFile, ...)
// are generated by cmd/brmigen on top of the dynamic Proxy/Future API here.
package core

import (
	"errors"
	"fmt"
)

// Exported errors.
var (
	// ErrPending reports a Future.Get before the batch was flushed
	// ("any attempt to get the value of a future before flush results in an
	// error", §3.2).
	ErrPending = errors.New("brmi: future not yet flushed")

	// ErrBatchClosed reports recording on (or flushing) a batch whose chain
	// was completed by Flush.
	ErrBatchClosed = errors.New("brmi: batch closed")

	// ErrForeignProxy reports an argument proxy that belongs to a different
	// batch chain ("an error is raised if the stub was created within a
	// different batch chain", §4.1).
	ErrForeignProxy = errors.New("brmi: proxy belongs to a different batch")

	// ErrCursorInterleaved reports cursor operations interleaved with
	// non-cursor operations, violating the contiguity constraint (§4.1).
	ErrCursorInterleaved = errors.New("brmi: cursor operations must be contiguous")

	// ErrCursorNotStarted reports reading a cursor future before Next.
	ErrCursorNotStarted = errors.New("brmi: cursor not started; call Next first")

	// ErrCursorExhausted reports reading a cursor future after Next
	// returned false.
	ErrCursorExhausted = errors.New("brmi: cursor exhausted")

	// ErrNestedCursor reports a cursor-returning call on a cursor-derived
	// proxy, which BRMI does not support.
	ErrNestedCursor = errors.New("brmi: nested cursors are not supported")

	// ErrNoBatchService reports a flush against a server that did not
	// install the batch executor.
	ErrNoBatchService = errors.New("brmi: server does not support batching")

	// ErrForeignRoot reports an AddRoot ref living on a different server
	// than the batch's root: a batch is one round trip to one server.
	ErrForeignRoot = errors.New("brmi: additional root belongs to a different server")
)

// BatchError wraps a failure of the batch machinery itself (recording
// violation or transport failure at flush). Every future of the affected
// flush returns the same BatchError, mirroring the paper's rule that
// network and communication errors are raised by flush.
type BatchError struct {
	Err error
}

func (e *BatchError) Error() string { return "brmi: batch failed: " + e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// SessionExpiredError reports a chained flush against a server session that
// timed out or was never created.
type SessionExpiredError struct {
	Session uint64
}

func (e *SessionExpiredError) Error() string {
	return fmt.Sprintf("brmi: session %d expired or unknown", e.Session)
}

// UnresolvedRefError reports a call whose target or argument names, by
// sequence number, nothing the executor can hand it: no root, no remote
// result the chain kept, no value a call earlier in the same request
// returned. The call is not executed; the rest of the request is unaffected.
type UnresolvedRefError struct {
	Seq int64
}

func (e *UnresolvedRefError) Error() string {
	return fmt.Sprintf("brmi: reference %d names no batch object or value of this request", e.Seq)
}

// KindMismatchError reports a recording that disagrees with the server-side
// method shape, e.g. Call (future) used for a method returning a remote
// object, which must be recorded with CallBatch.
type KindMismatchError struct {
	Method string
	Want   string
}

func (e *KindMismatchError) Error() string {
	return fmt.Sprintf("brmi: method %s must be recorded with %s", e.Method, e.Want)
}
