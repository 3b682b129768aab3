package cluster

import "time"

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
