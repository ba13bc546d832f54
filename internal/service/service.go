// Package service turns the one-shot scheduling stack into a
// long-running scheduling service: callers submit superblocks and get
// schedules back, and the service amortizes the expensive SG/DP search
// across repeated and concurrent traffic the way dynamic cluster
// schedulers amortize task placement.
//
// The request path is a pipeline:
//
//		fingerprint → result cache → singleflight → admission → worker → ladder
//
//	 1. Every request is reduced to a content-addressed fingerprint
//	    (see Fingerprint): a hash of the canonical superblock bytes, the
//	    machine configuration, the pin seed and the step budget. Two
//	    requests with the same fingerprint are guaranteed to deserve
//	    byte-identical responses.
//	 2. The fingerprint indexes an LRU result cache. A hit returns the
//	    cached response — byte-identical to the cold run that produced
//	    it — without touching a worker.
//	 3. Concurrent duplicates are coalesced (singleflight): the first
//	    miss becomes the leader and computes; followers arriving while
//	    the leader is in flight wait for its result instead of queueing
//	    duplicate work.
//	 4. Admission control: leaders enter a bounded queue. When the queue
//	    is full the request is shed immediately with an explicit shed
//	    response — the service degrades by refusing work, never by
//	    growing its queue without bound.
//	 5. A fixed pool of workers (sized by Config.Workers) drains the
//	    queue. Each worker runs the block through the
//	    internal/resilient degradation ladder, so a poisoned request
//	    degrades per the error taxonomy instead of killing the daemon,
//	    and maps the request's remaining deadline onto core.Options.
//	    Timeout — which core wires into deduce.Budget.SetDeadline, so
//	    the deadline interrupts propagation runs deep inside the DP.
//
// Close drains gracefully: new requests are refused with a draining
// response, queued and in-flight work completes, then the workers
// exit.
package service

import (
	"fmt"
	"sync"
	"time"

	"vcsched/internal/resilient"
	"vcsched/internal/version"
)

// Config sizes the service. The zero value selects sensible defaults.
type Config struct {
	// Workers is the worker pool size. 0 takes Ladder.Core.Parallelism;
	// values below 1 are clamped to 1. Each worker runs one serial
	// search at a time: parallelism lives in the pool, as searches in
	// flight, and changes throughput, never results.
	Workers int
	// QueueDepth bounds the admission queue (0 = 4×Workers; values
	// below 1 are clamped to 1). A full queue sheds.
	QueueDepth int
	// CacheEntries bounds the result cache. 0 picks the default of
	// 4096 entries; any negative value disables caching entirely (the
	// service then recomputes every non-coalesced request). Config
	// validation is the single owner of this defaulting — the cache
	// constructor itself rejects non-positive capacities.
	CacheEntries int
	// DefaultDeadline applies to requests that name no deadline
	// (0 = 5s).
	DefaultDeadline time.Duration
	// MaxDeadline caps requested deadlines (0 = 60s).
	MaxDeadline time.Duration
	// Ladder sizes the worker pool when Workers is 0, through its
	// Core.Parallelism; no other field of it is read. perfbench sizes
	// its shard pools this way. A search takes its options from the
	// request alone (see Request).
	Ladder resilient.Options
	// Runner executes admitted requests on the worker pool. nil picks
	// the production resilient ladder. Injecting a synthetic Runner —
	// e.g. the hollow recorded-cost stub in internal/hollow — swaps the
	// scheduler out while keeping the whole fingerprint → cache →
	// coalesce → admit → work pipeline real, so load harnesses measure
	// the service, not the DP.
	Runner Runner
	// Now is the clock the service reads for request deadlines, the
	// worker watchdog and the circuit breaker (nil = time.Now). It is
	// the clock half of the Runner seam: internal/loadsim injects
	// internal/hollow's virtual clock here so chaos scenarios exercise
	// deadline, watchdog and breaker behavior on deterministic
	// simulated time. Only the wall clock (nil) runs the watchdog's
	// sweeper; on an injected clock an execution is judged when it
	// completes (see watchdog.go).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = c.Ladder.Core.Parallelism
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Result is one block's response. For a cache hit or a coalesced
// follower the Schedule/ExitCycles/Tier/AWCT fields are byte-for-byte
// the ones the cold run produced; CacheHit/Coalesced/Shed describe how
// this particular response was served and are never cached.
type Result struct {
	Block       string  // superblock name
	Fingerprint string  // content address of the request
	Tier        string  // ladder tier that produced the schedule
	AWCT        float64 // of the accepted schedule
	ExitCycles  string  // sched.FormatExitCycles of the schedule
	Schedule    string  // canonical sched.WriteText serialization
	Err         string  // non-empty when no schedule was produced
	Taxonomy    string  // error-taxonomy class; "ok" on success, "shed"/"draining" on refusal
	HardFailure bool    // every ladder tier failed
	CacheHit    bool    // served from the result cache
	Coalesced   bool    // joined an in-flight duplicate's computation
	Shed        bool    // refused by admission control (or drain)
}

// OK reports whether the result carries a schedule.
func (r *Result) OK() bool { return r.Err == "" && !r.Shed }

// Stats is a point-in-time counter snapshot. It marshals with
// deterministic field ordering (struct order), so two encodings of the
// same snapshot are byte-identical — /v1/statsz is diffable.
type Stats struct {
	Version       string `json:"version"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queue_depth"`
	QueueLen      int    `json:"queue_len"`
	Draining      bool   `json:"draining"`
	Requests      int64  `json:"requests"`
	CacheHits     int64  `json:"cache_hits"`
	CacheMisses   int64  `json:"cache_misses"`
	CacheEntries  int    `json:"cache_entries"`
	Coalesced     int64  `json:"coalesced"`
	Shed          int64  `json:"shed"`
	QueueTimeouts int64  `json:"queue_timeouts"`
	Scheduled     int64  `json:"scheduled"`
	HardFailures  int64  `json:"hard_failures"`
	// WatchdogKills counts executions the watchdog declared wedged past
	// deadline+grace; WatchdogLeaks is the gauge of replaced workers
	// whose Runner has not returned yet — after a drain it must settle
	// back to zero or the service leaked a goroutine.
	WatchdogKills int64 `json:"watchdog_kills"`
	WatchdogLeaks int64 `json:"watchdog_leaks"`
	// Breaker counters: trips (closed/half-open → open transitions),
	// half-open probes admitted, fast-failed submissions while open,
	// and the gauge of currently open breakers.
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerFastFails int64 `json:"breaker_fast_fails"`
	BreakerOpen      int   `json:"breaker_open"`
	// AvgServiceMS is the EWMA per-job service time backing the
	// Retry-After hint on shed responses.
	AvgServiceMS float64 `json:"avg_service_ms"`
	// Scheduled results per ladder tier. The ladder runs CARS first, so
	// TierSG counts only searches that beat CARS's AWCT, and TierCARS
	// also counts blocks where CARS met a bound or the search's ceiling.
	TierSG    int64 `json:"tier_sg"`
	TierCARS  int64 `json:"tier_cars"`
	TierNaive int64 `json:"tier_naive"`
}

// job is one admitted request waiting for (or on) a worker.
type job struct {
	req      *Request
	fp       string
	deadline time.Time
	call     *Call
	start    time.Time // when a worker picked it up
	wedged   bool      // declared wedged by the sweeper; guarded by s.mu
	replaced bool      // wedged, and a replacement holds its worker's slot
}

// Service is the scheduling service. Create with New, stop with Close.
type Service struct {
	cfg     Config
	runner  Runner
	queue   chan *job
	workers sync.WaitGroup
	now     func() time.Time

	stopSweep chan struct{} // non-nil when the watchdog sweeper runs
	sweepDone chan struct{}
	drained   chan struct{} // closed once the first Close finishes

	// s.mu serializes admissions and result publication. flight and
	// cache carry their own (or no) locking for standalone use, but the
	// Service always touches them under s.mu: that is what makes
	// "insert the cache entry and remove the flight entry" one atomic
	// step, and what guarantees at most one leader per fingerprint.
	mu       sync.Mutex
	cache    *Cache // nil when caching is disabled
	flight   *Flight
	inflight map[*job]struct{}   // jobs whose Runner is running
	breakers map[string]*breaker // only fingerprints with recent hard failures
	ewma     time.Duration       // EWMA per-job service time
	draining bool
	stats    Stats
}

// New starts a service: the worker pool is running on return.
func New(cfg Config) *Service {
	wall := cfg.Now == nil
	cfg = cfg.withDefaults()
	runner := cfg.Runner
	if runner == nil {
		runner = ladderRunner{}
	}
	s := &Service{
		cfg:      cfg,
		runner:   runner,
		queue:    make(chan *job, cfg.QueueDepth),
		now:      cfg.Now,
		drained:  make(chan struct{}),
		flight:   NewFlight(),
		inflight: make(map[*job]struct{}),
		breakers: make(map[string]*breaker),
	}
	if cfg.CacheEntries > 0 {
		s.cache = NewCache(cfg.CacheEntries)
	}
	if wall {
		s.stopSweep = make(chan struct{})
		s.sweepDone = make(chan struct{})
		go s.sweeper()
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Stats returns a counter snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Version = version.String()
	st.Workers = s.cfg.Workers
	st.QueueDepth = s.cfg.QueueDepth
	st.QueueLen = len(s.queue)
	st.Draining = s.draining
	if s.cache != nil {
		st.CacheEntries = s.cache.Len()
	}
	for _, b := range s.breakers {
		if b.state == breakerOpen {
			st.BreakerOpen++
		}
	}
	st.AvgServiceMS = float64(s.ewma) / float64(time.Millisecond)
	return st
}

// Close drains the service: admission stops (new submissions get a
// draining response), queued and in-flight jobs run to completion, the
// workers exit, and the watchdog sweeper stops. Close is idempotent;
// concurrent callers all return after the drain finishes. Workers the
// watchdog replaced are NOT waited for — they exit when their Runner
// returns and are visible as the watchdog_leaks gauge until they do. A
// wedged worker past the replacement bound keeps its slot, so Close
// waits for its Runner.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		<-s.drained
		return
	}
	close(s.queue)
	s.workers.Wait()
	if s.stopSweep != nil {
		close(s.stopSweep)
		<-s.sweepDone
	}
	close(s.drained)
}

// Submit schedules one block, blocking until a result is available:
// from the cache, from a coalesced in-flight duplicate, or from a
// worker. Shed and draining refusals return immediately. Submit is
// safe for arbitrary concurrent use.
func (s *Service) Submit(req *Request) Result {
	adms := s.admit([]*Request{req})
	return s.await(req, &adms[0])
}

// SubmitBatch schedules every block concurrently and returns results
// in request order. The batch is admitted in one step (see admit), so a
// block repeated within its batch always coalesces with its first copy.
func (s *Service) SubmitBatch(reqs []*Request) []Result {
	adms := s.admit(reqs)
	out := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		if adms[i].call == nil {
			out[i] = adms[i].res
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = s.await(reqs[i], &adms[i])
		}(i)
	}
	wg.Wait()
	return out
}

// admission is the front half's verdict on one request: either a
// final result (call == nil: hit, shed, draining, breaker, admission
// panic) or the call to wait on; res.Coalesced distinguishes followers
// from the leader.
type admission struct {
	fp       string
	deadline time.Time
	shed     error // forced by the service.admit fault point
	panicked bool  // prepare recovered a panic; res is final
	res      Result
	call     *Call
}

// admit runs the front half of the pipeline for a batch: fingerprint,
// cache, singleflight, breaker, fault point, bounded queue. Every
// request is prepared outside the lock, then all are admitted in
// request order under one hold of s.mu. No leader can publish while
// the lock is held, so a block repeated within its batch finds its
// first copy in flight and coalesces; admitted one by one, it would
// race that copy into the cache, and goroutine scheduling would pick
// hit or coalesced.
func (s *Service) admit(reqs []*Request) []admission {
	adms := make([]admission, len(reqs))
	for i, req := range reqs {
		s.prepare(req, &adms[i])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, req := range reqs {
		if !adms[i].panicked {
			s.admitLocked(req, &adms[i])
		}
	}
	return adms
}

// prepare runs the unlocked part of one admission: the fingerprint,
// the deadline and the service.admit fault point, which fires outside
// the lock so a sleep kind stalls this submission, not the whole
// service. An injected service.admit panic (or a real one here)
// refuses this one request.
func (s *Service) prepare(req *Request, a *admission) {
	defer func() {
		if r := recover(); r != nil {
			a.panicked = true
			a.res = Result{
				Block:       req.SB.Name,
				Err:         fmt.Sprintf("panic during admission: %v", r),
				Taxonomy:    "panic",
				HardFailure: true,
			}
			s.mu.Lock()
			s.stats.Requests++
			s.stats.HardFailures++
			s.mu.Unlock()
		}
	}()
	a.fp = Fingerprint(req)
	a.deadline = s.now().Add(s.clampDeadline(req.Deadline))
	a.shed = injectAdmitFault()
}

// admitLocked admits one prepared request. s.mu must be held.
func (s *Service) admitLocked(req *Request, a *admission) {
	fp := a.fp
	s.stats.Requests++
	if s.draining {
		s.stats.Shed++
		a.res = Result{Block: req.SB.Name, Fingerprint: fp, Err: "service draining", Taxonomy: "draining", Shed: true}
		return
	}
	if s.cache != nil {
		if cached, ok := s.cache.Get(fp); ok {
			s.stats.CacheHits++
			cached.CacheHit = true
			a.res = cached
			return
		}
	}
	if inflight, ok := s.flight.Lookup(fp); ok {
		// Coalescing runs before the breaker check so duplicates of a
		// half-open probe join the probe instead of fast-failing.
		s.stats.Coalesced++
		a.res, a.call = Result{Fingerprint: fp, Coalesced: true}, inflight
		return
	}
	if denied, b := s.breakerDenies(fp); denied {
		s.stats.BreakerFastFails++
		a.res = Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Err: fmt.Sprintf("circuit breaker open: %d consecutive hard failures (%s) on this fingerprint, cooling off",
				b.consecutive, b.taxonomy),
			Taxonomy: "poisoned",
		}
		return
	}
	if a.shed != nil {
		s.stats.Shed++
		a.res = Result{Block: req.SB.Name, Fingerprint: fp, Err: a.shed.Error(), Taxonomy: "shed", Shed: true}
		return
	}
	// Register-then-maybe-Forget is safe only because s.mu is held: no
	// concurrent submission can Lookup the entry between the two, so a
	// shed leaves no stranded followers behind.
	leader := s.flight.Register(fp)
	select {
	case s.queue <- &job{req: req, fp: fp, deadline: a.deadline, call: leader}:
		s.stats.CacheMisses++
		a.res, a.call = Result{Fingerprint: fp}, leader
	default:
		s.flight.Forget(fp)
		s.stats.Shed++
		a.res = Result{Block: req.SB.Name, Fingerprint: fp, Err: "admission queue full", Taxonomy: "shed", Shed: true}
	}
}

// await finishes one admitted request: a final result returns at
// once, a leader waits for its execution, and a follower waits at
// most its own deadline — coalescing must not silently extend a
// short-deadline request to its leader's budget.
func (s *Service) await(req *Request, a *admission) Result {
	if a.call == nil {
		return a.res
	}
	if a.res.Coalesced {
		var timer *time.Timer
		var expired <-chan time.Time
		if wait := a.deadline.Sub(s.now()); wait > 0 {
			timer = time.NewTimer(wait)
			expired = timer.C
		}
		select {
		case <-a.call.Done():
			if timer != nil {
				timer.Stop()
			}
		case <-expired:
			s.mu.Lock()
			s.stats.QueueTimeouts++
			s.mu.Unlock()
			return Result{
				Block:       req.SB.Name,
				Fingerprint: a.fp,
				Err:         "deadline expired waiting for the in-flight duplicate",
				Taxonomy:    "timeout",
				Coalesced:   true,
			}
		}
		out := a.call.Result()
		out.CacheHit = false
		out.Coalesced = true
		return out
	}
	<-a.call.Done()
	return a.call.Result()
}

func (s *Service) clampDeadline(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// worker drains the queue. A worker whose wedged execution the sweeper
// replaced exits without giving up its slot: the replacement holds it
// (see watchdog.go).
func (s *Service) worker() {
	for j := range s.queue {
		if !s.execute(j) {
			return
		}
	}
	s.workers.Done()
}

// record accounts for a job's result: cache it (when eligible), feed
// the breaker and the service-time EWMA, and bump counters. s.mu must
// be held. The caller then closes the singleflight entry with
// Flight.Finish after releasing the lock: the cache entry is inserted
// before the flight entry is removed, so a submission arriving in
// between sees either the cache hit or the still-in-flight call —
// never neither.
func (s *Service) record(j *job, res Result, cacheable bool, dur time.Duration) {
	if cacheable && s.cache != nil {
		s.cache.Add(j.fp, res)
	}
	s.breakerRecord(j.fp, res)
	// EWMA (α = ¼) of per-job service time: recent enough to track a
	// load shift, smooth enough that one slow job does not whipsaw the
	// Retry-After hint.
	if s.ewma == 0 {
		s.ewma = dur
	} else {
		s.ewma = (3*s.ewma + dur) / 4
	}
	switch {
	case res.HardFailure:
		s.stats.HardFailures++
	case res.Err != "":
		if res.Taxonomy == "timeout" {
			s.stats.QueueTimeouts++
		}
	default:
		s.stats.Scheduled++
		switch res.Tier {
		case resilient.TierSG.String():
			s.stats.TierSG++
		case resilient.TierCARS.String():
			s.stats.TierCARS++
		case resilient.TierNaive.String():
			s.stats.TierNaive++
		}
	}
}

// run executes one job on the calling worker with remaining, its
// deadline's distance from pickup: the service.worker fault point, then
// the configured Runner (the resilient ladder in production). A panic
// anywhere — injected or real — is recovered into an error result, so
// a poisoned request degrades instead of killing the pool.
//
// The returned cacheable flag is false for every non-success and for
// successes whose descent was shaped by the wall clock (for the ladder
// Runner: any attempt died of core.ErrTimeout): such results depend on
// load and deadline, not on the request's content, and caching them
// would break the warm-equals-cold byte-identity guarantee.
func (s *Service) run(j *job, remaining time.Duration) (res Result, cacheable bool) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Block:       j.req.SB.Name,
				Fingerprint: j.fp,
				Err:         fmt.Sprintf("panic in worker: %v", r),
				Taxonomy:    "panic",
				HardFailure: true,
			}
			cacheable = false
		}
	}()

	if remaining <= 0 {
		return Result{
			Block:       j.req.SB.Name,
			Fingerprint: j.fp,
			Err:         "deadline expired in the admission queue",
			Taxonomy:    "timeout",
		}, false
	}
	if err := injectWorkerFault(); err != nil {
		return Result{
			Block:       j.req.SB.Name,
			Fingerprint: j.fp,
			Err:         err.Error(),
			Taxonomy:    "internal",
		}, false
	}
	return s.runner.Run(j.req, j.fp, remaining)
}
