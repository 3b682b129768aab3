package core

import (
	"context"

	"repro/internal/wire"
)

// Proxy is a batch object: the client-side recording stub for one remote
// object involved in a batch (§3.2, §4.1). Method calls on a proxy are
// recorded, not sent; futures and further proxies are returned immediately.
//
// Proxies are NOT RMI stubs: creating one involves no network traffic and no
// distributed GC, which is one of the paper's measured advantages.
type Proxy struct {
	b *Batch
	// seq identifies the call that created this proxy (RootTarget for the
	// batch root). It is how the proxy is named in the wire protocol.
	seq int64
	// cursor is the owning cursor when this proxy was derived from cursor
	// operations; nil otherwise.
	cursor *Cursor
	// base is the server-assigned id of this proxy's per-element results
	// (cursor-owned proxies only), set at flush.
	base int64
	// failed is the error of the creating call (or its dependency) after
	// flush; Ok reports it.
	failed error
	// settled is true once flush processed the creating call.
	settled bool
	// root is true for proxies returned by Batch.Root / Batch.AddRoot /
	// Batch.AddRootNamed (see RootRef).
	root bool
}

// Batch returns the batch this proxy records into.
func (p *Proxy) Batch() *Batch { return p.b }

// Call records a method invocation whose result is a value, returning its
// future. Use CallBatch for methods returning remote objects and CallCursor
// for methods returning slices of remote objects.
//
// Besides plain values and proxies, an argument may be a *Future of this
// batch that has not been flushed yet: it travels as a reference to its
// producing call, and the server hands the consumer that call's value inside
// the same flush — or, if the producer failed, fails the consumer with the
// producer's error, unexecuted. (A future an earlier FlushAndContinue settled
// goes as the literal it holds; another batch's is ErrForeignProxy.) The
// same holds for CallRO, CallBatch and CallCursor.
func (p *Proxy) Call(method string, args ...any) *Future {
	return p.b.recordValue(p, method, args)
}

// CallRO records a method invocation declared //brmi:readonly. On a core
// batch it is Call: generated batch stubs emit it for annotated methods, and
// only a cluster batch (cluster.Proxy.CallRO) serves it from a lease cache.
func (p *Proxy) CallRO(method string, args ...any) *Future { return p.Call(method, args...) }

// CallBatch records a method invocation whose result is a remote object.
// The result stays on the server (§4.2: "normal RMI proxies are never
// returned to the client"); the returned proxy records further calls on it.
func (p *Proxy) CallBatch(method string, args ...any) *Proxy {
	return p.b.recordRemote(p, method, args)
}

// RootRef returns the exported object a root proxy (Batch.Root, AddRoot,
// AddRootNamed) stands for. A name-addressed root's ObjID is 0 until a
// FlushAndContinue returned with what the serving peer resolved the name to;
// a Flush, which ends the chain, is not told. Proxies that are not roots
// return the zero Ref.
func (p *Proxy) RootRef() wire.Ref {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	if !p.root {
		return wire.Ref{}
	}
	return *p.b.rootAt(int(RootTarget - p.seq))
}

// CallCursor records a method invocation whose result is a slice. The
// returned cursor applies subsequently recorded operations to every element
// (§3.4) and iterates the results after flush.
func (p *Proxy) CallCursor(method string, args ...any) *Cursor {
	return p.b.recordCursor(p, method, args)
}

// Ok rethrows any exception on which this batch object depends, mirroring
// the paper's Batch.ok method (§3.3). Before flush it returns ErrPending.
func (p *Proxy) Ok() error {
	p.b.mu.Lock()
	defer p.b.mu.Unlock()
	if p.b.failure != nil {
		return p.b.failure
	}
	if !p.settled && p.seq != RootTarget {
		return ErrPending
	}
	return p.failed
}

// Flush executes the batch and closes the chain (§3.2). Equivalent to the
// paper's flush() on the root batch interface.
func (p *Proxy) Flush(ctx context.Context) error { return p.b.Flush(ctx) }

// FlushAndContinue executes the recorded calls and keeps the server context
// alive so a chained batch can reference earlier results (§3.5).
func (p *Proxy) FlushAndContinue(ctx context.Context) error { return p.b.FlushAndContinue(ctx) }

// currentSeq returns the id this proxy is addressed by when recording a
// call right now. For proxies created inside a cursor that has already been
// flushed, that is the server-assigned id of the element at the cursor's
// current position ("after that batch is flushed, the cursor represents
// individual items from the array", §3.5).
func (p *Proxy) currentSeq() (int64, error) {
	if p.cursor == nil || !p.cursor.flushed {
		return p.seq, nil
	}
	pos := p.cursor.pos
	switch {
	case pos < 0:
		return 0, ErrCursorNotStarted
	case pos >= int(p.cursor.count):
		return 0, ErrCursorExhausted
	}
	return p.base + int64(pos), nil
}

// recordingOwner returns the cursor whose sub-batch a call on this proxy
// belongs to: the owning cursor while it is still recording (not flushed).
func (p *Proxy) recordingOwner() *Cursor {
	if p.cursor != nil && !p.cursor.flushed {
		return p.cursor
	}
	return nil
}

// Cursor is a batch object standing for every element of a slice returned
// within a batch (§3.4). Before flush, recorded operations apply to all
// elements; after flush it iterates: Next advances to the following element
// and re-points all futures created from the cursor.
type Cursor struct {
	Proxy

	// flushed is true once the creating batch executed.
	flushed bool
	// runClosed marks the end of this cursor's contiguous recording run:
	// once another call interrupts it, further recording on the cursor is
	// an ErrCursorInterleaved violation (§4.1).
	runClosed bool
	// count is the number of elements, known after flush.
	count int64
	// pos is the iteration position (-1 before the first Next).
	pos int
}

// Next advances the cursor to the next element, returning false when the
// elements are exhausted. Futures created from this cursor then read the
// values of the current element.
func (c *Cursor) Next() bool {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if !c.flushed || c.failed != nil {
		return false
	}
	if c.pos+1 >= int(c.count) {
		c.pos = int(c.count) // exhausted; futures report ErrCursorExhausted
		return false
	}
	c.pos++
	return true
}

// Len returns the element count, or an error before flush / after a failed
// creating call.
func (c *Cursor) Len() (int, error) {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.b.failure != nil {
		return 0, c.b.failure
	}
	if !c.flushed {
		return 0, ErrPending
	}
	if c.failed != nil {
		return 0, c.failed
	}
	return int(c.count), nil
}

// Reset rewinds the cursor to before the first element so the results can
// be iterated again.
func (c *Cursor) Reset() {
	c.b.mu.Lock()
	defer c.b.mu.Unlock()
	if c.flushed {
		c.pos = -1
	}
}
