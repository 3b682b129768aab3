package cluster

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// ShipHook is the hook StartReplica installed on the replica's executor, for
// a test that swapped it out to put back.
func (r *Replica) ShipHook() core.ShipHook { return r.admit }

// Shadow returns the live object behind this follower's seeded shadow of
// name in primary's shard, for a test that reads what the follower replayed.
func (r *Replica) Shadow(primary, name string) (obj any, ok bool) {
	r.mu.Lock()
	var sd *shadowObj
	if sh := r.shards[primary]; sh != nil {
		sd = sh.shadows[name]
	}
	r.mu.Unlock()
	if sd == nil || !sd.seeded {
		return nil, false
	}
	return r.peer.LocalObject(sd.ref.ObjID)
}

// SetShipTimeoutForTest shrinks the replication-ship deadline so the
// goroutine-leak tests can watch a wedged straggler expire in test time.
// The returned func restores the previous value.
func SetShipTimeoutForTest(d time.Duration) (restore func()) {
	old := shipTimeout
	shipTimeout = d
	return func() { shipTimeout = old }
}

// TripKind and its values re-export the control plane's trip kinds, and
// SetProbe its fault-injection seam, to the package's external tests: the
// probe runs immediately before every batched trip of the rebalancer and an
// error it returns aborts the operation right there.
type TripKind = tripKind

const (
	TripSnapshot = tripSnapshot
	TripArrive   = tripArrive
	TripPlace    = tripPlace
	TripDepart   = tripDepart
	TripPromote  = tripPromote
)

func (r *Rebalancer) SetProbe(p func(kind TripKind, endpoint string, names []string) error) {
	r.probe = p
}

// SnapshotTrip runs the control plane's multi-root snapshot trip at src over
// refs, the movable objects bound under names, and returns their states in
// that order.
func (r *Rebalancer) SnapshotTrip(ctx context.Context, src string, names []string, refs []wire.Ref) ([]any, error) {
	moves := make([]move, len(refs))
	for i := range refs {
		moves[i] = move{name: names[i], ref: refs[i], movable: true}
	}
	if err := r.snapshot(ctx, src, moves); err != nil {
		return nil, err
	}
	states := make([]any, len(moves))
	for i := range moves {
		states[i] = moves[i].state
	}
	return states, nil
}
