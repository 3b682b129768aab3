package netsim

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts the time source behind the simulator. Every temporal
// decision in the network — chunk due times, bandwidth pacing horizons, read
// deadlines, and the timers that wake blocked readers — goes through the
// network's Clock, never through the time package directly. The default is
// the real wall clock; the chaos harness substitutes a VirtualClock so that
// simulated latency costs (almost) no wall time and a run's timing is
// decoupled from host scheduling jitter.
type Clock interface {
	// Now returns the current (possibly simulated) time.
	Now() time.Time
	// AfterFunc schedules fn to run once d has elapsed on this clock and
	// returns a handle that can cancel it.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// realClock routes through the time package.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

// RealClock is the wall-clock time source, the default for every Network.
var RealClock Clock = realClock{}

// VirtualClock is a discrete-event time source: it holds a logical "now" and
// a heap of pending timers, and advances now straight to the earliest
// pending due time whenever the simulation goes quiet — so an 80 ms
// simulated RTT costs microseconds of wall time, and timing depends on the
// event schedule rather than on how fast the host happens to run.
//
// Quiescence is approximated, not proven: the clock advances only after
// clockGrace (a small real-time window) passes with no new timer armed, giving
// in-flight goroutines the chance to schedule earlier events first. This
// keeps every blocked reader live (no lost wakeups) while compressing idle
// simulated time. The chaos harness's determinism does not ride on this —
// its fault schedules are fixed up front from the seed — the virtual clock
// is what makes a high-latency fault schedule cheap to execute.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	gen    uint64
	timers vtimerHeap

	kick chan struct{}
	done chan struct{}
	once sync.Once
}

// clockGrace is the real-time quiet window the clock waits for before
// advancing to the next due timer: long enough for a goroutine woken by the
// last event to arm an earlier one, short enough that idle simulated time
// stays cheap.
const clockGrace = 200 * time.Microsecond

// NewVirtualClock creates a running virtual clock starting at an arbitrary
// fixed epoch. Call Stop when done to release its scheduler goroutine.
func NewVirtualClock() *VirtualClock {
	c := &VirtualClock{
		// A fixed, nonzero epoch: zero time.Time means "no deadline" to
		// net.Conn users, so the clock must never report it.
		now:  time.Unix(1_000_000_000, 0),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go c.run()
	return c
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules fn at virtual now+d. fn runs on the clock's scheduler
// goroutine; it must not block for long.
func (c *VirtualClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.mu.Lock()
	t := &vtimer{clock: c, due: c.now.Add(d), seq: c.seq, fn: fn}
	c.seq++
	c.gen++
	heap.Push(&c.timers, t)
	c.mu.Unlock()
	c.kickScheduler()
	return t
}

// Stop shuts the clock down. Pending timers never fire.
func (c *VirtualClock) Stop() {
	c.once.Do(func() { close(c.done) })
}

func (c *VirtualClock) kickScheduler() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the scheduler: wait for pending timers, let a grace window pass
// with no new arrivals, then jump now to the earliest due time and fire
// everything due at it.
func (c *VirtualClock) run() {
	for {
		c.mu.Lock()
		for len(c.timers) > 0 && c.timers[0].stopped {
			heap.Pop(&c.timers)
		}
		if len(c.timers) == 0 {
			c.mu.Unlock()
			select {
			case <-c.kick:
				continue
			case <-c.done:
				return
			}
		}
		gen := c.gen
		c.mu.Unlock()

		grace := time.NewTimer(clockGrace)
		select {
		case <-c.done:
			grace.Stop()
			return
		case <-c.kick:
			// A new timer arrived; reassess which event is earliest.
			grace.Stop()
			continue
		case <-grace.C:
		}

		c.mu.Lock()
		if c.gen != gen {
			c.mu.Unlock()
			continue
		}
		var fire []*vtimer
		for len(c.timers) > 0 {
			t := c.timers[0]
			if t.stopped {
				heap.Pop(&c.timers)
				continue
			}
			if len(fire) == 0 {
				if t.due.After(c.now) {
					c.now = t.due
				}
			} else if t.due.After(c.now) {
				break
			}
			t.fired = true
			fire = append(fire, heap.Pop(&c.timers).(*vtimer))
		}
		c.mu.Unlock()
		for _, t := range fire {
			t.fn()
		}
	}
}

// vtimer is one pending virtual timer. Stopped timers stay in the heap and
// are discarded lazily when they surface, so no index bookkeeping is
// needed.
type vtimer struct {
	clock   *VirtualClock
	due     time.Time
	seq     uint64
	fn      func()
	stopped bool
	fired   bool
}

func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// vtimerHeap orders timers by due time, ties broken by arming order.
type vtimerHeap []*vtimer

func (h vtimerHeap) Len() int { return len(h) }

func (h vtimerHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}

func (h vtimerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}

func (h *vtimerHeap) Push(x any) {
	*h = append(*h, x.(*vtimer))
}

func (h *vtimerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
