// Fixture for the futurederef analyzer: reads of batch futures before the
// owning batch's Flush.
package futurederef

import (
	"context"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

func preFlushRead(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	fut := b.Root().Call("Get")
	_, _ = fut.Get() // want `future fut is read before the owning batch's Flush`
	_ = b.Flush(context.Background())
}

func preFlushErr(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	fut := b.Root().CallRO("Stat")
	_ = fut.Err() // want `future fut is read before the owning batch's Flush`
	_ = b.Flush(context.Background())
}

func typedPreFlush(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	tf := core.Typed[int64](b.Root().CallRO("Size"))
	_, _ = tf.Get() // want `future tf is read before the owning batch's Flush`
	_ = b.Flush(context.Background())
}

func chainedRead(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	_, _ = b.Root().Call("Get").Get() // want `read in the same expression that records it`
	_ = b.Flush(context.Background())
}

func readAfterFlush(peer *rmi.Peer, root wire.Ref) error {
	b := core.New(peer, root)
	fut := b.Root().Call("Get")
	if err := b.Flush(context.Background()); err != nil {
		return err
	}
	_, err := fut.Get()
	return err
}

func typedAfterFlush(peer *rmi.Peer, root wire.Ref) (int64, error) {
	b := core.New(peer, root)
	tf := core.Typed[int64](b.Root().CallRO("Size"))
	if err := b.Flush(context.Background()); err != nil {
		return 0, err
	}
	return tf.Get()
}

// A future received from elsewhere is assumed settled by its producer.
func paramFuture(fut *core.Future) (any, error) {
	return fut.Get()
}

// A core future is a legal call argument before the flush: it travels as a
// reference and the server splices the value inside the flush.
func splicedArgument(peer *rmi.Peer, root wire.Ref) error {
	b := core.New(peer, root)
	dir := b.Root().Call("Lookup", "etc")
	b.Root().Call("Open", dir)
	return b.Flush(context.Background())
}

// Passing a future on settles nothing at the client: Get before the flush is
// still a pre-flush read.
func splicedThenRead(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	dir := b.Root().Call("Lookup", "etc")
	b.Root().Call("Open", dir)
	_, _ = dir.Get() // want `future dir is read before the owning batch's Flush`
	_ = b.Flush(context.Background())
}

func suppressedRead(peer *rmi.Peer, root wire.Ref) {
	b := core.New(peer, root)
	fut := b.Root().Call("Get")
	//brmivet:ignore futurederef exercising core.ErrPending on purpose
	_, _ = fut.Get()
	_ = b.Flush(context.Background())
}
