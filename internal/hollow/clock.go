package hollow

import (
	"sync"
	"time"
)

// Clock abstracts time for scenario runs. The wall clock is the
// default; the virtual clock makes hollow-worker scenarios fast and
// deterministic — sleeping advances a counter instead of blocking, so
// a scenario that "takes" seconds of simulated time finishes in
// microseconds and measures the same latencies on every run.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// WallClock is real time: time.Now and time.Sleep.
type WallClock struct{}

func (WallClock) Now() time.Time        { return time.Now() }
func (WallClock) Sleep(d time.Duration) { time.Sleep(d) }

// VirtualClock is simulated time. Sleep advances the reading by the
// requested amount without blocking; Now returns the accumulated
// reading. It is safe for concurrent use, but note that concurrent
// sleepers interleave their advances — fully deterministic latency
// measurement needs a serialized submission order (the scenario runner
// uses a synchronous loop when Concurrency is 1 for exactly this
// reason).
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtualClock starts at a fixed epoch so two runs of the same
// scenario read identical timestamps.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: time.Unix(0, 0)}
}

func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}
