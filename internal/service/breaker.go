package service

import "time"

// The per-fingerprint circuit breaker quarantines poison requests. A
// request whose content reliably hard-fails the ladder (a panic-bait
// vector, a block using a class the machine has no unit of) would
// otherwise burn a full worker execution on every resubmission — and
// under duplicate-heavy traffic one poison fingerprint can eat a
// meaningful slice of pool capacity. The breaker is the classic
// three-state machine, keyed by content fingerprint so it quarantines
// exactly the poison request and nothing else:
//
//	closed     normal operation; consecutive hard failures counted
//	open       breakerThreshold consecutive hard failures: further
//	           submissions fast-fail in admit with the "poisoned"
//	           taxonomy (an explicit verdict, not a shed) without
//	           touching a worker, until breakerCooloff has passed
//	half-open  one probe is admitted; success closes the breaker,
//	           another hard failure reopens it for a fresh cooloff
//
// The numbers are the router's shard breaker's. Entries exist only for
// fingerprints with recent hard failures: a success deletes its entry,
// and the watchdog's sweep drops idle ones (see dropIdleBreakers), so
// the map stays proportional to the number of currently-poisonous
// fingerprints, not to traffic.
// All state is guarded by s.mu; time is read from the service clock,
// so cooloffs work on virtual time in the chaos harness.
const (
	breakerThreshold = 3
	breakerCooloff   = 5 * time.Second
)

type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one fingerprint's state. consecutive counts hard failures
// since the last success; failed is when the latest one was recorded
// (an open breaker's cooloff runs from it); taxonomy remembers the
// class that tripped it for the fast-fail verdict.
type breaker struct {
	state       breakerState
	consecutive int
	failed      time.Time
	taxonomy    string
}

// breakerDenies reports whether the fingerprint's breaker refuses this
// submission. Called from admit with s.mu held. An open breaker whose
// cooloff has passed transitions to half-open and admits the caller as
// the probe; a half-open breaker with its probe still in flight keeps
// fast-failing.
func (s *Service) breakerDenies(fp string) (bool, *breaker) {
	b := s.breakers[fp]
	if b == nil {
		return false, nil
	}
	switch b.state {
	case breakerOpen:
		if s.now().Before(b.failed.Add(breakerCooloff)) {
			return true, b
		}
		b.state = breakerHalfOpen
		s.stats.BreakerHalfOpens++
		return false, b // this submission is the probe
	case breakerHalfOpen:
		return true, b
	}
	return false, b
}

// breakerRecord feeds a finished execution's outcome back into the
// fingerprint's breaker. Called with s.mu held. Only hard failures
// advance the machine: soft failures (timeouts, watchdog kills)
// describe load, not the request's content, so they neither trip nor
// heal a breaker; a half-open one whose probe soft-failed reopens with
// its cooloff served, so the next submission probes again.
func (s *Service) breakerRecord(fp string, res Result) {
	switch {
	case res.HardFailure:
		b := s.breakers[fp]
		if b == nil {
			b = &breaker{}
			s.breakers[fp] = b
		}
		b.consecutive++
		b.failed = s.now()
		b.taxonomy = res.Taxonomy
		// A failed half-open probe reopens immediately; a closed
		// breaker opens once the threshold is reached.
		if b.state == breakerHalfOpen || b.consecutive >= breakerThreshold {
			b.state = breakerOpen
			s.stats.BreakerTrips++
		}
	case res.Err == "" && !res.Shed:
		// Success closes the breaker and forgets the fingerprint.
		delete(s.breakers, fp)
	default:
		if b := s.breakers[fp]; b != nil && b.state == breakerHalfOpen {
			b.state = breakerOpen
		}
	}
}

// dropIdleBreakers forgets the breakers of fingerprints that stopped
// arriving: a closed one a cooloff after its latest hard failure, an
// open one a further cooloff after it could half-open, so a
// resubmission inside that window still gets its single probe. A
// half-open one has its probe in flight. Called with s.mu held.
func (s *Service) dropIdleBreakers(now time.Time) {
	for fp, b := range s.breakers {
		idle := now.Sub(b.failed)
		if b.state == breakerClosed && idle >= breakerCooloff ||
			b.state == breakerOpen && idle >= 2*breakerCooloff {
			delete(s.breakers, fp)
		}
	}
}

// RetryAfter estimates how long a shed client should wait before
// retrying: the refused request would land behind the current queue
// occupancy, and each queued job costs roughly the EWMA service time
// spread over the worker pool. The hint is clamped to [10ms, 2s] so a
// cold EWMA or a pathological spike cannot produce a useless (or
// abusive) header; with no service time observed yet the floor is the
// answer. cmd/vcschedd derives the 429 Retry-After headers from this.
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	occupancy := time.Duration(len(s.queue) + 1)
	perJob := s.ewma
	s.mu.Unlock()
	hint := occupancy * perJob / time.Duration(s.cfg.Workers)
	const floor, ceil = 10 * time.Millisecond, 2 * time.Second
	if hint < floor {
		return floor
	}
	if hint > ceil {
		return ceil
	}
	return hint
}
