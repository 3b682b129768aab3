package clustertest

import (
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// BlobIface is the interface name every Blob exports under.
const BlobIface = "clustertest.Blob"

// BlobState is the movable snapshot of a Blob: its payload.
type BlobState struct {
	Data []byte
}

func init() {
	wire.MustRegister("clustertest.blobState", &BlobState{})
	cluster.RegisterMovable(BlobIface, func() rmi.Remote { return &Blob{} })
}

// Blob is a movable object whose state is an opaque payload of a chosen
// size, for the tests that weigh what moving state costs.
type Blob struct {
	rmi.RemoteBase
	mu   sync.Mutex
	data []byte
}

// NewBlob creates a blob holding size bytes.
func NewBlob(size int) *Blob { return &Blob{data: make([]byte, size)} }

// Len returns the payload's size.
func (b *Blob) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.data)
}

// Snapshot implements cluster.Movable.
func (b *Blob) Snapshot() (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return &BlobState{Data: append([]byte(nil), b.data...)}, nil
}

// Restore implements cluster.Movable.
func (b *Blob) Restore(state any) error {
	s, ok := state.(*BlobState)
	if !ok {
		return fmt.Errorf("restore: unexpected state %T", state)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = append([]byte(nil), s.Data...)
	return nil
}
