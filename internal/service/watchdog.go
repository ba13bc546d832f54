package service

import (
	"fmt"
	"time"
)

// The worker watchdog guards the pool against wedged executions: a
// Runner that stalls past its request's deadline (a livelocked search,
// a stuck injected fault, a bug) would otherwise pin its worker
// forever and silently shrink the pool.
//
// A worker calls the Runner itself and registers the job as in flight
// while it runs. An execution still running watchdogGrace past its
// deadline is wedged: its caller gets the watchdog verdict (taxonomy
// "watchdog", never cached) and its late result is dropped.
//
//   - On the wall clock (Config.Now nil) a sweeper scans the in-flight
//     jobs every sweepInterval and publishes a wedged one's verdict at
//     once. While fewer than Workers replaced workers are stuck, it
//     also starts a replacement that takes over the wedged worker's
//     slot; the wedged goroutine exits when its Runner returns. Past
//     that bound a wedged worker keeps its slot and returns to the
//     queue, so at most 2×Workers Runners run at once however many
//     requests wedge (CARS, for one, does not read the deadline).
//   - On an injected clock (the loadsim virtual clock) no sweeper
//     runs: the worker judges the execution when it returns, so chaos
//     scenarios count kills deterministically.
//
// The watchdog_leaks gauge counts replaced workers whose Runner has
// not returned yet; a nonzero residue after a drain is a red build in
// the chaos harness. Each sweep also drops idle circuit-breaker
// entries (see breaker.go).
const (
	// watchdogGrace is how long past its deadline an execution may run
	// before it is declared wedged. The search polls its deadline
	// inside propagation and the stage-3 matching, so a healthy ladder
	// run returns well inside it.
	watchdogGrace = 250 * time.Millisecond
	// sweepInterval is the sweeper's wall-clock period.
	sweepInterval = 25 * time.Millisecond
)

// execute runs one job on the calling worker and publishes its result,
// unless the sweeper declared it wedged meanwhile: then the result is
// dropped, and execute reports false when a replacement holds this
// worker's slot, so the caller must exit.
func (s *Service) execute(j *job) bool {
	j.start = s.now()
	remaining := j.deadline.Sub(j.start)
	// A job that expired in the queue never reaches the Runner, so the
	// watchdog does not track it.
	watched := remaining > 0
	if watched {
		s.mu.Lock()
		s.inflight[j] = struct{}{}
		s.mu.Unlock()
	}
	res, cacheable := s.run(j, remaining)
	end := s.now()
	s.mu.Lock()
	if j.wedged {
		if j.replaced {
			s.stats.WatchdogLeaks--
		}
		s.mu.Unlock()
		return !j.replaced
	}
	if watched {
		delete(s.inflight, j)
		if end.After(j.deadline.Add(watchdogGrace)) {
			s.stats.WatchdogKills++
			res, cacheable = watchdogResult(j), false
		}
	}
	s.record(j, res, cacheable, end.Sub(j.start))
	s.mu.Unlock()
	s.flight.Finish(j.fp, res)
	return true
}

// watchdogResult is the explicit verdict a wedged execution's caller
// receives. It is a soft failure, not a hard one: the scheduler did not
// break the request, the watchdog refused to keep burning a worker on
// it. Never cacheable — the kill describes this execution, not the
// request's content.
func watchdogResult(j *job) Result {
	return Result{
		Block:       j.req.SB.Name,
		Fingerprint: j.fp,
		Err:         fmt.Sprintf("watchdog killed execution stuck %v past its deadline", watchdogGrace),
		Taxonomy:    "watchdog",
	}
}

// sweeper calls sweep every sweepInterval from New until Close has
// drained the workers.
func (s *Service) sweeper() {
	defer close(s.sweepDone)
	tick := time.NewTicker(sweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-tick.C:
			s.sweep(s.now())
		}
	}
}

// sweep declares every in-flight job past deadline+grace at now wedged
// — publishing its verdict and, within the leak bound, starting the
// worker that replaces its own — and drops the breaker entries idle at
// now.
func (s *Service) sweep(now time.Time) {
	var wedged []*job
	replace := 0
	s.mu.Lock()
	for j := range s.inflight {
		if now.After(j.deadline.Add(watchdogGrace)) {
			delete(s.inflight, j)
			j.wedged = true
			s.stats.WatchdogKills++
			if s.stats.WatchdogLeaks < int64(s.cfg.Workers) {
				j.replaced = true
				s.stats.WatchdogLeaks++
				replace++
			}
			s.record(j, watchdogResult(j), false, now.Sub(j.start))
			wedged = append(wedged, j)
		}
	}
	s.dropIdleBreakers(now)
	s.mu.Unlock()
	for _, j := range wedged {
		s.flight.Finish(j.fp, watchdogResult(j))
	}
	for ; replace > 0; replace-- {
		go s.worker()
	}
}
