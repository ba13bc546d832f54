package service

import (
	"strings"
	"sync"
	"testing"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// breakerService builds a service with a scripted runner on an
// injected clock, so no sweeper drops its breakers behind the test's
// back.
func breakerService(t *testing.T, runner *scriptedRunner, clock *fakeClock) *Service {
	t.Helper()
	return newTestService(t, Config{
		Workers:         2,
		DefaultDeadline: 20 * time.Second,
		Now:             clock.now,
		Runner:          runner,
	})
}

// trip hard-fails the block's fingerprint breakerThreshold times.
func trip(t *testing.T, s *Service, sb *ir.Superblock) {
	t.Helper()
	for i := 0; i < breakerThreshold; i++ {
		if res := s.Submit(testRequest(sb, 1)); !res.HardFailure {
			t.Fatalf("submit %d = %+v, want scripted hard failure", i, res)
		}
	}
}

// TestBreakerTripsAfterConsecutiveHardFailures: breakerThreshold
// consecutive hard failures on one fingerprint open its breaker;
// further submissions fast-fail with the "poisoned" taxonomy without
// touching a worker, while other fingerprints are untouched.
func TestBreakerTripsAfterConsecutiveHardFailures(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.fail["paper-fig1"] = true
	s := breakerService(t, runner, clock)

	for i := 0; i < breakerThreshold; i++ {
		res := s.Submit(testRequest(ir.PaperFigure1(), 1))
		if !res.HardFailure || res.Taxonomy != "panic" {
			t.Fatalf("submit %d = %+v, want scripted hard failure", i, res)
		}
	}
	if got := runner.callsFor("paper-fig1"); got != breakerThreshold {
		t.Fatalf("runner ran %d times before trip, want %d", got, breakerThreshold)
	}

	// The breaker is now open: fast-fail, no worker execution.
	for i := 0; i < 2; i++ {
		res := s.Submit(testRequest(ir.PaperFigure1(), 1))
		if res.Taxonomy != "poisoned" || res.HardFailure || res.Shed {
			t.Fatalf("post-trip submit = %+v, want poisoned fast-fail", res)
		}
		if !strings.Contains(res.Err, "circuit breaker open") || !strings.Contains(res.Err, "panic") {
			t.Fatalf("fast-fail verdict lacks cause: %q", res.Err)
		}
	}
	if got := runner.callsFor("paper-fig1"); got != breakerThreshold {
		t.Fatalf("open breaker still ran the runner: %d calls", got)
	}

	// A different fingerprint sails through.
	if res := s.Submit(testRequest(ir.Diamond(), 1)); !res.OK() {
		t.Fatalf("healthy fingerprint blocked by another's breaker: %+v", res)
	}

	st := s.Stats()
	if st.BreakerTrips != 1 || st.BreakerFastFails != 2 || st.BreakerOpen != 1 {
		t.Fatalf("stats = trips %d fastfails %d open %d, want 1/2/1",
			st.BreakerTrips, st.BreakerFastFails, st.BreakerOpen)
	}
	if st.HardFailures != breakerThreshold {
		t.Fatalf("fast-fails counted as hard failures: %d", st.HardFailures)
	}
}

// TestBreakerHalfOpenProbeHealsOnSuccess: after the cooloff one probe
// is admitted; when the request has stopped failing, the probe's
// success closes the breaker and traffic flows (and caches) again.
func TestBreakerHalfOpenProbeHealsOnSuccess(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.fail["paper-fig1"] = true
	s := breakerService(t, runner, clock)

	trip(t, s, ir.PaperFigure1())
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); res.Taxonomy != "poisoned" {
		t.Fatalf("breaker not open: %+v", res)
	}

	// Cooloff passes and the request is healthy again: the probe closes
	// the breaker.
	clock.advance(breakerCooloff)
	runner.mu.Lock()
	runner.fail["paper-fig1"] = false
	runner.mu.Unlock()
	probe := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if !probe.OK() || probe.CacheHit {
		t.Fatalf("half-open probe = %+v, want fresh success", probe)
	}
	st := s.Stats()
	if st.BreakerHalfOpens != 1 || st.BreakerOpen != 0 {
		t.Fatalf("after probe: halfopens %d open %d, want 1/0", st.BreakerHalfOpens, st.BreakerOpen)
	}
	// Healed: the success was cached like any other.
	if warm := s.Submit(testRequest(ir.PaperFigure1(), 1)); !warm.CacheHit {
		t.Fatalf("post-heal submit = %+v, want cache hit", warm)
	}
}

// TestBreakerHalfOpenProbeReopensOnFailure: a probe that hard-fails
// reopens the breaker immediately for a fresh cooloff — one failure is
// enough in half-open, the threshold does not apply again.
func TestBreakerHalfOpenProbeReopensOnFailure(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.fail["paper-fig1"] = true
	s := breakerService(t, runner, clock)

	trip(t, s, ir.PaperFigure1())
	clock.advance(breakerCooloff)
	probe := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if !probe.HardFailure {
		t.Fatalf("still-poisonous probe = %+v, want hard failure", probe)
	}
	// Reopened: fast-fail again without a worker execution.
	calls := runner.callsFor("paper-fig1")
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); res.Taxonomy != "poisoned" {
		t.Fatalf("post-reopen submit = %+v, want poisoned fast-fail", res)
	}
	if got := runner.callsFor("paper-fig1"); got != calls {
		t.Fatalf("reopened breaker ran the runner: %d -> %d calls", calls, got)
	}
	st := s.Stats()
	if st.BreakerTrips != 2 || st.BreakerHalfOpens != 1 || st.BreakerOpen != 1 {
		t.Fatalf("stats = trips %d halfopens %d open %d, want 2/1/1",
			st.BreakerTrips, st.BreakerHalfOpens, st.BreakerOpen)
	}
}

// TestBreakerIgnoresSoftFailures: timeouts and watchdog kills describe
// load, not the request's content — they must neither trip a closed
// breaker nor count toward the threshold.
func TestBreakerIgnoresSoftFailures(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	// Every execution overshoots its deadline past the watchdog's grace.
	runner.onRun = func() { clock.advance(time.Second + watchdogGrace + time.Millisecond) }
	s := newTestService(t, Config{
		Workers:         1,
		DefaultDeadline: time.Second,
		Now:             clock.now,
		Runner:          runner,
	})
	for i := 0; i <= breakerThreshold; i++ {
		res := s.Submit(testRequest(ir.PaperFigure1(), 1))
		if res.Taxonomy != "watchdog" {
			t.Fatalf("submit %d = %+v, want watchdog kill", i, res)
		}
	}
	st := s.Stats()
	if st.BreakerTrips != 0 || st.BreakerOpen != 0 || st.BreakerFastFails != 0 {
		t.Fatalf("soft failures moved the breaker: %+v", st)
	}
}

// TestBreakerCoalesceJoinsProbe: duplicates that arrive while the
// half-open probe is in flight coalesce onto it instead of fast-failing
// — the coalesce check runs before the breaker check.
func TestBreakerCoalesceJoinsProbe(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.fail["paper-fig1"] = true
	s := breakerService(t, runner, clock)
	trip(t, s, ir.PaperFigure1())
	clock.advance(breakerCooloff)

	// Heal the request, gate the probe so duplicates can pile on.
	gate := make(chan struct{})
	runner.mu.Lock()
	runner.fail["paper-fig1"] = false
	runner.gate = gate
	runner.mu.Unlock()

	var wg sync.WaitGroup
	results := make([]Result, 3)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Submit(testRequest(ir.PaperFigure1(), 1))
		}(i)
	}
	// Wait until the probe execution holds the gate, then release it —
	// by then the laggards have either coalesced or fast-failed.
	waitFor(t, s, "probe to reach the runner", func(Stats) bool {
		return runner.callsFor("paper-fig1") == breakerThreshold+1
	})
	waitFor(t, s, "duplicates to settle", func(st Stats) bool {
		return st.Coalesced+st.BreakerFastFails == 2
	})
	runner.mu.Lock()
	runner.gate = nil
	runner.mu.Unlock()
	close(gate)
	wg.Wait()

	ok, poisoned := 0, 0
	for _, res := range results {
		switch {
		case res.OK():
			ok++
		case res.Taxonomy == "poisoned":
			poisoned++
		default:
			t.Fatalf("unexpected result %+v", res)
		}
	}
	// Exactly one execution ran (the probe); every duplicate either
	// joined it via coalescing or fast-failed — none ran the runner.
	if got := runner.callsFor("paper-fig1"); got != breakerThreshold+1 { // failures + 1 probe
		t.Fatalf("runner ran %d times, want %d (probe coalesced)", got, breakerThreshold+1)
	}
	st := s.Stats()
	if int64(ok-1) != st.Coalesced || int64(poisoned) != st.BreakerFastFails {
		t.Fatalf("ok=%d poisoned=%d but stats coalesced=%d fastfails=%d",
			ok, poisoned, st.Coalesced, st.BreakerFastFails)
	}
	if st.BreakerOpen != 0 {
		t.Fatalf("probe success did not close the breaker: %+v", st)
	}
}

// TestBreakerPoisonsLadderHardFailures: with no breaker setting at
// all, a block the real ladder cannot schedule (a mem instruction on
// the section-5 machine, which has no mem unit) hard-fails
// breakerThreshold times and is then answered "poisoned" without
// reaching a worker.
func TestBreakerPoisonsLadderHardFailures(t *testing.T) {
	s := newTestService(t, Config{})
	b := ir.NewBuilder("mem-on-sec5")
	ld := b.Instr("ld", ir.Mem, 2)
	add := b.Instr("add", ir.Int, 1)
	x := b.Exit("br", 1, 1.0)
	b.Data(ld, add).Ctrl(add, x)
	req := &Request{SB: b.MustFinish(), Machine: machine.PaperExampleSection5(), PinSeed: 1, MaxSteps: 20000}

	for i := 0; i < 3; i++ {
		if res := s.Submit(req); !res.HardFailure {
			t.Fatalf("submit %d = %+v, want a hard failure", i, res)
		}
	}
	res := s.Submit(req)
	if res.Taxonomy != "poisoned" || res.HardFailure {
		t.Fatalf("fourth submit = %+v, want poisoned fast-fail", res)
	}
	if st := s.Stats(); st.HardFailures != 3 || st.BreakerTrips != 1 || st.BreakerFastFails != 1 {
		t.Fatalf("stats %+v, want 3 hard failures, 1 trip, 1 fast-fail", st)
	}
}

// TestSweepDropsIdleBreakers: a sweep at a chosen time forgets a
// closed breaker whose latest hard failure is a cooloff old, but keeps
// a younger entry, a half-open one whose probe is still in flight, and
// an open one through its half-open window: swept at cooloff+ε, that
// open breaker still half-opens on its next submission and one failed
// probe reopens it. An open breaker goes only once it has been
// half-open-able for a further cooloff with no probe.
func TestSweepDropsIdleBreakers(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	for _, name := range []string{"paper-fig1", "diamond", "straight", "wide"} {
		runner.fail[name] = true
	}
	s := breakerService(t, runner, clock)
	t0 := clock.now()

	s.Submit(testRequest(ir.PaperFigure1(), 1)) // closed, one failure at t0
	trip(t, s, ir.Diamond())                    // open since t0
	trip(t, s, ir.Straight(4))                  // open since t0; probed below
	clock.advance(breakerCooloff)
	s.Submit(testRequest(ir.Wide(4), 1)) // closed, one failure at t0+cooloff

	// Gate the healed probe so it stays in flight across the sweep. A
	// failing check must still open the gate, or Close waits forever.
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	runner.mu.Lock()
	runner.fail["straight"] = false
	runner.gate = gate
	runner.mu.Unlock()
	probe := make(chan Result, 1)
	go func() { probe <- s.Submit(testRequest(ir.Straight(4), 1)) }()
	waitFor(t, s, "half-open probe", func(st Stats) bool { return st.BreakerHalfOpens == 1 })

	fingerprints := func() map[string]breakerState {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := map[string]breakerState{}
		for fp, b := range s.breakers {
			out[fp] = b.state
		}
		return out
	}
	fpOf := func(sb *ir.Superblock) string { return Fingerprint(testRequest(sb, 1)) }

	s.sweep(t0.Add(breakerCooloff - time.Nanosecond))
	if got := fingerprints(); len(got) != 4 {
		t.Fatalf("sweep before a cooloff passed dropped entries: %v", got)
	}
	s.sweep(t0.Add(breakerCooloff + time.Nanosecond))
	got := fingerprints()
	if len(got) != 3 || got[fpOf(ir.Straight(4))] != breakerHalfOpen || got[fpOf(ir.Diamond())] != breakerOpen {
		t.Fatalf("after sweep: %v, want the open breaker, the half-open probe and the young failure", got)
	}
	if _, ok := got[fpOf(ir.Wide(4))]; !ok {
		t.Fatalf("sweep dropped a failure younger than a cooloff: %v", got)
	}

	release()
	if res := <-probe; !res.OK() {
		t.Fatalf("probe = %+v, want success", res)
	}
	// The swept open breaker still probes: one failed probe reopens it
	// and the next submission fast-fails without a worker.
	if res := s.Submit(testRequest(ir.Diamond(), 1)); !res.HardFailure {
		t.Fatalf("probe of the swept open breaker = %+v, want a hard failure", res)
	}
	if res := s.Submit(testRequest(ir.Diamond(), 1)); res.Taxonomy != "poisoned" {
		t.Fatalf("after the failed probe = %+v, want poisoned", res)
	}
	if got := runner.callsFor("diamond"); got != breakerThreshold+1 {
		t.Fatalf("runner ran %d times on the open breaker, want %d", got, breakerThreshold+1)
	}
	if st := s.Stats(); st.BreakerHalfOpens != 2 || st.BreakerTrips != 3 {
		t.Fatalf("half-opens %d trips %d, want 2/3", st.BreakerHalfOpens, st.BreakerTrips)
	}

	// Two cooloffs after t0 the young failure has aged, and the
	// reopened breaker (failed at t0+cooloff) is only half-open-able.
	s.sweep(t0.Add(2 * breakerCooloff))
	if got := fingerprints(); len(got) != 1 || got[fpOf(ir.Diamond())] != breakerOpen {
		t.Fatalf("after the young failure aged: %v, want only the reopened breaker", got)
	}
	// A further cooloff with no probe drops it.
	s.sweep(t0.Add(3 * breakerCooloff))
	if got := fingerprints(); len(got) != 0 {
		t.Fatalf("after an unprobed half-open window: %v", got)
	}
}

// TestBreakerSoftFailedProbeProbesAgain: a half-open probe that ends
// in a soft failure (here a watchdog kill on the injected clock) says
// nothing about the request's content. The breaker must go back to
// open with its cooloff served, so the next submission is a fresh
// probe rather than a poisoned fast-fail for good.
func TestBreakerSoftFailedProbeProbesAgain(t *testing.T) {
	clock := newFakeClock()
	runner := newScriptedRunner()
	runner.fail["paper-fig1"] = true
	s := breakerService(t, runner, clock)
	trip(t, s, ir.PaperFigure1())
	clock.advance(breakerCooloff)

	runner.mu.Lock()
	runner.fail["paper-fig1"] = false
	runner.onRun = func() { clock.advance(20*time.Second + watchdogGrace + time.Millisecond) }
	runner.mu.Unlock()
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); res.Taxonomy != "watchdog" {
		t.Fatalf("probe = %+v, want a watchdog kill", res)
	}

	runner.mu.Lock()
	runner.onRun = nil
	runner.mu.Unlock()
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); !res.OK() {
		t.Fatalf("submit after a soft-failed probe = %+v, want a fresh probe that succeeds", res)
	}
	st := s.Stats()
	if st.BreakerHalfOpens != 2 || st.BreakerTrips != 1 || st.BreakerFastFails != 0 || st.BreakerOpen != 0 {
		t.Fatalf("stats %+v, want 2 half-opens, 1 trip, no fast-fail, none open", st)
	}
}
