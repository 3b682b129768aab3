package cluster

import (
	"time"

	"repro/internal/core"
)

// ShipHook is the hook StartReplica installed on the replica's executor, for
// a test that swapped it out to put back.
func (r *Replica) ShipHook() core.ShipHook { return r.admit }

// ShardInfo reports this follower's replica of primary's shard, for a test
// that reads its shadows' election credentials.
func (r *Replica) ShardInfo(primary string) *ShardInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.shardInfo(primary)
}

// Shadow returns the live object behind this follower's seeded shadow of
// name in primary's shard, for a test that reads what the follower replayed.
func (r *Replica) Shadow(primary, name string) (obj any, ok bool) {
	r.mu.Lock()
	sd := r.shards[primary][name]
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
	TripHand    = tripHand
	TripArrive  = tripArrive
	TripPlace   = tripPlace
	TripSurvey  = tripSurvey
	TripDepart  = tripDepart
	TripPromote = tripPromote
)

func (r *Rebalancer) SetProbe(p func(kind TripKind, endpoint string, names []string) error) {
	r.probe = p
}
