package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"vcsched/internal/ir"
)

// fakeClock is a hand-advanced clock for deterministic watchdog and
// breaker tests; a service on it runs no sweeper. (The loadsim virtual
// clock lives downstream of this package and cannot be imported
// without a cycle.)
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// scriptedRunner is a programmable Runner: per-block hard failures, an
// optional wall-clock block gate, and an optional per-call hook (used
// to advance a fake clock mid-execution).
type scriptedRunner struct {
	mu     sync.Mutex
	fail   map[string]bool // block names that hard-fail
	gate   chan struct{}   // non-nil: Run blocks until closed
	onRun  func()
	calls  map[string]int
	totals int
}

func newScriptedRunner() *scriptedRunner {
	return &scriptedRunner{fail: map[string]bool{}, calls: map[string]int{}}
}

func (r *scriptedRunner) Run(req *Request, fp string, remaining time.Duration) (Result, bool) {
	r.mu.Lock()
	r.calls[req.SB.Name]++
	r.totals++
	gate := r.gate
	hook := r.onRun
	failing := r.fail[req.SB.Name]
	r.mu.Unlock()
	if hook != nil {
		hook()
	}
	if gate != nil {
		<-gate
	}
	if failing {
		return Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Err:         "scripted hard failure",
			Taxonomy:    "panic",
			HardFailure: true,
		}, false
	}
	return Result{
		Block:       req.SB.Name,
		Fingerprint: fp,
		Tier:        "scripted",
		Schedule:    "scripted " + fp + "\n",
		Taxonomy:    "ok",
	}, true
}

func (r *scriptedRunner) callsFor(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls[name]
}

// TestWatchdogKillsWedgedExecutionAndRestoresCapacity wedges the
// single worker's execution on a wall-clock gate: with no watchdog
// setting at all, the sweeper must declare it wedged past
// deadline+grace with an explicit verdict, a replacement worker must
// serve the next job while the wedged execution is still running
// (visible as watchdog_leaks=1), and the leak must settle to zero once
// the gate opens.
func TestWatchdogKillsWedgedExecutionAndRestoresCapacity(t *testing.T) {
	runner := newScriptedRunner()
	gate := make(chan struct{})
	runner.gate = gate
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	s := New(Config{Workers: 1, Runner: runner})
	// Cleanups run last-in first-out: the gate opens before Close
	// waits for the workers.
	t.Cleanup(s.Close)
	t.Cleanup(release)

	req := testRequest(ir.PaperFigure1(), 1)
	req.Deadline = 20 * time.Millisecond
	done := make(chan Result, 1)
	go func() { done <- s.Submit(req) }()
	var wedged Result
	select {
	case wedged = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no verdict for an execution stuck 5s past its 20ms deadline")
	}
	if wedged.OK() || wedged.Taxonomy != "watchdog" {
		t.Fatalf("wedged submit = %+v, want watchdog verdict", wedged)
	}
	if !strings.Contains(wedged.Err, "watchdog killed execution") {
		t.Fatalf("watchdog verdict carries no reason: %q", wedged.Err)
	}
	st := s.Stats()
	if st.WatchdogKills != 1 || st.WatchdogLeaks != 1 {
		t.Fatalf("after kill: kills=%d leaks=%d, want 1/1", st.WatchdogKills, st.WatchdogLeaks)
	}

	// The wedged execution still holds the gate: only a replacement
	// worker can complete a fresh job.
	runner.mu.Lock()
	runner.gate = nil
	runner.mu.Unlock()
	healthy := s.Submit(testRequest(ir.Diamond(), 1))
	if !healthy.OK() {
		t.Fatalf("worker not replaced after watchdog kill: %+v", healthy)
	}

	// Releasing the gate lets the wedged execution return; its worker
	// exits and the leak gauge settles back to zero.
	release()
	waitFor(t, s, "wedged execution to return", func(st Stats) bool { return st.WatchdogLeaks == 0 })
	if st := s.Stats(); st.WatchdogKills != 1 || st.Scheduled != 1 {
		t.Fatalf("after settle: %+v, want 1 kill and only the healthy job scheduled", st)
	}
}

// TestWatchdogBoundsReplacements wedges twice as many executions as
// there are workers, then sends one more request. The sweeper replaces
// only the first Workers wedged workers; the rest get their verdicts
// but keep their slots. So no more than 2×Workers Runners ever run at
// once, and the last request waits in the queue instead of starting
// another goroutine. Once the gate opens, the slot holders serve the
// queue and the leak gauge settles to zero.
func TestWatchdogBoundsReplacements(t *testing.T) {
	const workers = 2
	runner := newScriptedRunner()
	gate := make(chan struct{})
	runner.gate = gate
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	s := New(Config{Workers: workers, Runner: runner})
	t.Cleanup(s.Close)
	t.Cleanup(release)

	seed := int64(0)
	submit := func() <-chan Result {
		seed++
		req := testRequest(ir.Diamond(), seed)
		req.Deadline = 50 * time.Millisecond
		done := make(chan Result, 1)
		go func() { done <- s.Submit(req) }()
		return done
	}
	// The first round wedges the original workers, which are replaced;
	// the second wedges the replacements, which are not.
	for round := 0; round < 2; round++ {
		var pending []<-chan Result
		for i := 0; i < workers; i++ {
			pending = append(pending, submit())
		}
		for _, done := range pending {
			select {
			case res := <-done:
				if res.Taxonomy != "watchdog" {
					t.Fatalf("round %d: wedged submit = %+v, want watchdog verdict", round, res)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: no verdict 5s past a 50ms deadline", round)
			}
		}
	}
	if st := s.Stats(); st.WatchdogKills != 2*workers || st.WatchdogLeaks != workers {
		t.Fatalf("after two rounds: kills=%d leaks=%d, want %d/%d", st.WatchdogKills, st.WatchdogLeaks, 2*workers, workers)
	}

	// Every slot is held by a wedged worker: the next request queues
	// and reaches no Runner, however many sweeps pass.
	last := submit()
	time.Sleep(50*time.Millisecond + watchdogGrace + 4*sweepInterval)
	select {
	case res := <-last:
		t.Fatalf("request answered while every slot was wedged: %+v", res)
	default:
	}
	runner.mu.Lock()
	running := runner.totals
	runner.mu.Unlock()
	if running != 2*workers {
		t.Fatalf("%d Runners started with the gate shut, want at most %d", running, 2*workers)
	}
	if st := s.Stats(); st.WatchdogLeaks != workers {
		t.Fatalf("leaks=%d with the gate shut, want %d", st.WatchdogLeaks, workers)
	}

	// Opening the gate frees the slot holders, which answer the queued
	// request (its deadline passed in the queue); the replaced workers
	// exit.
	release()
	if res := <-last; res.Taxonomy != "timeout" {
		t.Fatalf("queued request = %+v, want a queue timeout", res)
	}
	waitFor(t, s, "replaced workers to exit", func(st Stats) bool { return st.WatchdogLeaks == 0 })
	if got := runner.callsFor("diamond"); got != 2*workers {
		t.Fatalf("runner ran %d times, want %d", got, 2*workers)
	}
}

// TestWatchdogJudgesVirtualOvershootAtCompletion: on an injected clock
// no sweeper runs and real time need not pass, so a stalled execution
// is only visible in retrospect — the runner advances simulated time
// past deadline+grace and then returns. The worker must discard the
// late result and issue the watchdog verdict, with no leaked execution.
func TestWatchdogJudgesVirtualOvershootAtCompletion(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.onRun = func() { clock.advance(time.Second + watchdogGrace + time.Millisecond) }
	s := newTestService(t, Config{
		Workers:         1,
		DefaultDeadline: time.Second,
		Now:             clock.now,
		Runner:          runner,
	})

	res := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if res.OK() || res.Taxonomy != "watchdog" {
		t.Fatalf("late completion = %+v, want watchdog verdict", res)
	}
	if st := s.Stats(); st.WatchdogKills != 1 || st.WatchdogLeaks != 0 {
		t.Fatalf("after late completion: kills=%d leaks=%d, want 1/0", st.WatchdogKills, st.WatchdogLeaks)
	}
	// The discarded late result must not have been cached.
	runner.mu.Lock()
	runner.onRun = nil
	runner.mu.Unlock()
	retry := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if !retry.OK() || retry.CacheHit {
		t.Fatalf("retry after a late completion = %+v, want fresh success", retry)
	}
}

// TestRetryAfterHint: before any job the hint is the floor; after a
// job of known (simulated) duration the hint reflects the EWMA, and it
// stays inside its clamp band.
func TestRetryAfterHint(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.onRun = func() { clock.advance(100 * time.Millisecond) }
	s := newTestService(t, Config{
		Workers:         1,
		DefaultDeadline: 20 * time.Second,
		Now:             clock.now,
		Runner:          runner,
	})
	if got := s.RetryAfter(); got != 10*time.Millisecond {
		t.Fatalf("cold RetryAfter = %v, want the 10ms floor", got)
	}
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); !res.OK() {
		t.Fatalf("submit failed: %+v", res)
	}
	// One 100ms job, empty queue, one worker: (0+1) × 100ms / 1.
	if got := s.RetryAfter(); got != 100*time.Millisecond {
		t.Fatalf("RetryAfter after one 100ms job = %v, want 100ms", got)
	}
	if st := s.Stats(); st.AvgServiceMS != 100 {
		t.Fatalf("AvgServiceMS = %v, want 100", st.AvgServiceMS)
	}
}
