// Package loadsim is the kubemark-style synthetic load harness for
// the scheduling service: declarative scenarios (rps ramp stages,
// duplicate rate, deadline mix, batch size, concurrency) drive
// internal/service in-process and measure service-level objectives —
// latency percentiles, cache hit rate, shed rate, the error-taxonomy
// histogram, and a hard-failure count that must be zero.
//
// Two ingredients make scenarios cheap and deterministic enough to
// gate CI on:
//
//   - hollow workers: the resilient ladder is swapped (via the
//     service.Runner seam) for a recorded-cost stub whose per-
//     fingerprint cost and result bytes are pure functions of the
//     fingerprint, so the fingerprint → cache → coalesce → admit →
//     work pipeline is exercised at very high request counts without
//     burning scheduler CPU;
//   - a virtual clock: sleeping advances a counter instead of
//     blocking, so a scenario that simulates seconds of traffic runs
//     in microseconds and measures identical latencies every run.
//
// Fleet scenarios put the real internal/router in front of in-process
// shards, and Replay (cmd/vcload) offers the same traffic over HTTP.
//
// cmd/vcslo replays the checked-in suite under scenarios/ and emits
// a BENCH_service.json document; cmd/benchgate -service requires it to
// equal the checked-in golden copy in every field but the version, so
// any service-level change is a red build until it is re-recorded.
package loadsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"vcsched/internal/difftest"
	"vcsched/internal/faultpoint"
	"vcsched/internal/hollow"
	"vcsched/internal/ir"
	"vcsched/internal/leakcheck"
	"vcsched/internal/machine"
	"vcsched/internal/service"
	"vcsched/internal/stats"
)

// statsWait bounds the real-time wait for service counters to settle
// in the overload flow.
const statsWait = 10 * time.Second

// Run executes one scenario against a fresh service instance on
// hollow workers and returns the measured report. A scenario without
// hollow workers is refused: the real scheduler is load-tested over
// HTTP, by vcload against vcschedd.
func Run(sc *Scenario) (*Report, error) {
	d := sc.withDefaults()
	if d.Hollow == nil {
		return nil, fmt.Errorf("loadsim: scenario %s: the in-process harness runs hollow workers only; replay real-scheduler traffic with vcload against vcschedd", d.Name)
	}
	m, pool, err := prepare(&d)
	if err != nil {
		return nil, err
	}

	var clock hollow.Clock = hollow.WallClock{}
	if d.VirtualClock {
		clock = hollow.NewVirtualClock()
	}

	hcfg := hollow.HollowConfig{
		CostMin: time.Duration(d.Hollow.CostMinMS * float64(time.Millisecond)),
		CostMax: time.Duration(d.Hollow.CostMaxMS * float64(time.Millisecond)),
		Clock:   clock,
	}
	if len(d.Hollow.Poison) > 0 {
		hcfg.Poison = make(map[string]bool, len(d.Hollow.Poison))
		for _, p := range d.Hollow.Poison {
			hcfg.Poison[pool[p].fp] = true
		}
	}
	runner := hollow.NewHollowRunner(hcfg)
	cfg := service.Config{
		Workers:          d.Service.Workers,
		QueueDepth:       d.Service.QueueDepth,
		CacheEntries:     d.Service.CacheEntries,
		DefaultDeadline:  time.Duration(d.Service.DefaultDeadlineMS) * time.Millisecond,
		WatchdogGrace:    time.Duration(d.Service.WatchdogGraceMS) * time.Millisecond,
		BreakerThreshold: d.Service.BreakerThreshold,
		BreakerCooloff:   time.Duration(d.Service.BreakerCooloffMS) * time.Millisecond,
		Now:              clock.Now,
		Runner:           runner,
	}
	if d.VirtualClock {
		// On simulated time the real-time sweeper is both meaningless
		// (no wall time passes while an execution "runs") and a source
		// of nondeterminism (it races the retrospective overshoot check
		// for who publishes the kill). Park it; virtual watchdog kills
		// are judged deterministically at completion.
		cfg.WatchdogInterval = time.Hour
	}

	// Chaos scenarios take over the (global) faultpoint registry and
	// sleeper for the duration of the run: KindSleep stalls advance the
	// virtual clock instead of burning real seconds, and the registry is
	// reset afterwards no matter how the run ends. The goroutine
	// baseline is captured before the service spins up so the post-drain
	// leak check covers the service's own goroutines too.
	chaotic := len(d.Faults) > 0 || len(d.Hollow.Poison) > 0
	baseline := runtime.NumGoroutine()
	if d.VirtualClock {
		prevSleeper := faultpoint.SetSleeper(clock.Sleep)
		defer faultpoint.SetSleeper(prevSleeper)
	}
	var chaos *chaosController
	if chaotic {
		chaos = newChaosController(d.Faults)
		defer faultpoint.Reset()
	}

	// Fleet mode puts N shard replicas behind the real router instead
	// of one service; the stage loop sees one submitter either way.
	var (
		shards []*service.Service
		target submitter
	)
	if d.Fleet != nil {
		flt, err := newFleet(&d, cfg, clock)
		if err != nil {
			return nil, err
		}
		defer flt.router.Close()
		shards, target = flt.shards, flt.front
	} else {
		shards = []*service.Service{service.New(cfg)}
		target = shards[0]
	}
	defer drain(shards)

	col := newCollector(d.Name)
	start := clock.Now()
	if d.Overload != nil {
		if err := runOverload(&d, shards[0], runner, pool, m, clock, col); err != nil {
			return nil, err
		}
	} else {
		runStages(&d, target, pool, m, clock, chaos, col)
	}
	col.rep.DurationMS = stats.Millis(clock.Now().Sub(start))

	// Drain before snapshotting the service counters: watchdog leaks
	// must have settled (a residue means a worker execution never
	// returned) and the breaker/watchdog totals must be final. Fleet
	// runs sum their shards' counters.
	st := service.MergeStats(drain(shards)...)
	col.rep.WatchdogKills = int(st.WatchdogKills)
	col.rep.WatchdogLeaks = int(st.WatchdogLeaks)
	col.rep.BreakerTrips = int(st.BreakerTrips)
	col.rep.BreakerFastFails = int(st.BreakerFastFails)
	if chaotic {
		if col.rep.WatchdogLeaks != 0 {
			return nil, fmt.Errorf("loadsim: scenario %s: %d watchdog leaks survived the drain", d.Name, col.rep.WatchdogLeaks)
		}
		if err := leakcheck.Settle(baseline, 0); err != nil {
			return nil, fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
		}
	}
	if d.Fleet != nil {
		col.rep.Shards = len(shards)
		col.rep.LeaderExecs = runner.Calls()
		for _, src := range pool {
			n := runner.CallsFor(src.fp)
			if n > 0 {
				col.rep.DistinctSources++
			}
			if d.Fleet.ExactOnce && n > 1 {
				return nil, fmt.Errorf("loadsim: scenario %s: fingerprint %s executed %d times across the fleet (exact_once requires 1)",
					d.Name, src.fp, n)
			}
		}
	}
	col.rep.finalize()
	return &col.rep, nil
}

// drain closes every shard and snapshots its final counters.
func drain(shards []*service.Service) []service.Stats {
	out := make([]service.Stats, len(shards))
	for i, s := range shards {
		s.Close()
		out[i] = s.Stats()
	}
	return out
}

// prepare validates the defaulted scenario d and builds its source
// pool for its machine.
func prepare(d *Scenario) (*machine.Config, []source, error) {
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	m, err := machine.ByKey(d.Machine)
	if err != nil {
		return nil, nil, fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
	}
	pool, err := buildPool(d, m)
	return m, pool, err
}

// source is one pool entry: a superblock plus the fingerprint a
// submission of it hashes to.
type source struct {
	sb *ir.Superblock
	fp string
}

// buildPool collects the source pool: every superblock of the Corpus
// files (sorted by file name), then Gen generated superblocks with
// pairwise-distinct fingerprints (the generator very occasionally
// repeats a block, and the overload flow needs genuinely unique
// fingerprints).
func buildPool(d *Scenario, m *machine.Config) ([]source, error) {
	fingerprint := func(sb *ir.Superblock) string {
		return service.Fingerprint(d.request(m, source{sb: sb}, 0))
	}
	blocks, err := readCorpus(d.Corpus)
	if err != nil {
		return nil, fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
	}
	corpus := len(blocks)
	g := difftest.NewGen(d.Seed, d.MaxInstrs)
	seen := make(map[string]bool, d.Gen)
	for tries := 0; len(blocks)-corpus < d.Gen; tries++ {
		if tries > 20*d.Gen {
			return nil, fmt.Errorf("loadsim: scenario %s: generator produced only %d distinct fingerprints of %d",
				d.Name, len(blocks)-corpus, d.Gen)
		}
		sb := g.Next()
		fp := fingerprint(sb)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		blocks = append(blocks, sb)
	}
	// Generated blocks take per-scenario names. The rename changes the
	// canonical form, so fingerprints are taken after it, matching what
	// a submission will hash to (the poison set is keyed by them).
	pool := make([]source, len(blocks))
	for i, sb := range blocks {
		if i >= corpus {
			sb.Name = fmt.Sprintf("%s-src%03d", d.Name, i-corpus)
		}
		pool[i] = source{sb: sb, fp: fingerprint(sb)}
	}
	return pool, nil
}

// readCorpus parses every .sb file in dir, in file-name order ("" =
// no corpus).
func readCorpus(dir string) ([]*ir.Superblock, error) {
	if dir == "" {
		return nil, nil
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.sb")) // sorted; the only error is a bad pattern
	if len(paths) == 0 {
		return nil, fmt.Errorf("corpus: no .sb files in %s", dir)
	}
	var blocks []*ir.Superblock
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		sbs, err := ir.ReadAll(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("corpus %s: %w", p, err)
		}
		blocks = append(blocks, sbs...)
	}
	return blocks, nil
}

func (d *Scenario) request(m *machine.Config, src source, deadline time.Duration) *service.Request {
	return &service.Request{SB: src.sb, Machine: m, PinSeed: d.PinSeed, Deadline: deadline}
}

// submission is one pre-drawn unit of offered load: the source picks
// for a batch, its deadline, and the pacing sleep that precedes it.
// Drawing every submission up front (single-threaded, seeded rng)
// makes the offered sequence deterministic regardless of worker
// interleaving.
type submission struct {
	picks    []int
	deadline time.Duration
	pace     time.Duration
}

// drawSubmissions materializes the stage ramp over a pool of n
// sources into the deterministic submission sequence.
func drawSubmissions(d *Scenario, n int) []submission {
	rng := rand.New(rand.NewSource(d.Seed))
	var subs []submission
	var totalWeight float64
	for _, b := range d.DeadlineMix {
		totalWeight += b.Weight
	}
	picks := 0
	for _, st := range d.Stages {
		pace, _ := PacingInterval(st.RPS) // validated already
		for i := 0; i < st.Requests; i++ {
			s := submission{picks: make([]int, d.Batch), pace: pace}
			for b := range s.picks {
				if picks > 0 && rng.Float64() < d.DupRate {
					s.picks[b] = rng.Intn(min(picks, n))
				} else {
					s.picks[b] = picks % n
				}
				picks++
			}
			if totalWeight > 0 {
				x := rng.Float64() * totalWeight
				for _, band := range d.DeadlineMix {
					x -= band.Weight
					if x < 0 {
						s.deadline = band.duration()
						break
					}
				}
			}
			subs = append(subs, s)
		}
	}
	return subs
}

// submitter is what the stage loop drives: a *service.Service, or a
// daemon or router behind remote.
type submitter interface {
	SubmitBatch(reqs []*service.Request) []service.Result
}

// runStages offers the ramp. Concurrency 1 is a fully synchronous
// loop — pacing, submission and measurement interleave in one
// goroutine, so virtual-clock latencies are exact. Higher concurrency
// uses a dispatcher plus a worker pool.
func runStages(d *Scenario, svc submitter, pool []source, mach *machine.Config, clock hollow.Clock, chaos *chaosController, col *collector) {
	subs := drawSubmissions(d, len(pool))

	deliver := func(s submission) {
		reqs := make([]*service.Request, len(s.picks))
		for i, p := range s.picks {
			reqs[i] = d.request(mach, pool[p], s.deadline)
		}
		t0 := clock.Now()
		out := svc.SubmitBatch(reqs)
		col.record(clock.Now().Sub(t0), out...)
	}

	if d.Concurrency == 1 {
		start := clock.Now()
		for _, s := range subs {
			clock.Sleep(s.pace)
			if chaos != nil {
				chaos.apply(clock.Now().Sub(start))
			}
			deliver(s)
		}
		if chaos != nil {
			chaos.stop()
		}
		return
	}

	jobs := make(chan submission)
	var wg sync.WaitGroup
	for w := 0; w < d.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				deliver(s)
			}
		}()
	}
	for _, s := range subs {
		clock.Sleep(s.pace)
		jobs <- s
	}
	close(jobs)
	wg.Wait()
}

// runOverload measures admission control deterministically: hold the
// hollow gate so workers+queue fill and stay full, offer Extra more
// requests that must all shed, then step the admitted work through the
// gate one execution at a time. Shed rate = extra/(fill+extra) exactly,
// with no race against worker progress. Each step waits for the
// finished request's submitter to read the clock before the next
// execution pays its cost: the virtual clock sums concurrent sleeps, so
// a reading taken while another worker runs would land anywhere in
// that worker's cost.
func runOverload(d *Scenario, svc *service.Service, runner *hollow.HollowRunner, pool []source, mach *machine.Config, clock hollow.Clock, col *collector) error {
	fill := d.Service.Workers + d.Service.QueueDepth

	runner.Hold()
	defer runner.Release()

	var wg sync.WaitGroup
	var err error
	recorded := make(chan struct{}, fill)
	for i := 0; i < fill && err == nil; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := clock.Now()
			res := svc.Submit(d.request(mach, pool[i], 0))
			col.record(clock.Now().Sub(t0), res)
			recorded <- struct{}{}
		}(i)
		// Every worker takes a request and parks on the gate before the
		// queue fills: offered all at once, the fill could find the
		// queue full before a worker had dequeued, and shed.
		if i == d.Service.Workers-1 {
			err = waitStats(svc, func(service.Stats) bool { return runner.Calls() == d.Service.Workers })
		}
	}
	if err == nil {
		err = waitStats(svc, func(st service.Stats) bool {
			return st.CacheMisses == int64(fill) && st.QueueLen == d.Service.QueueDepth
		})
	}
	if err != nil {
		runner.Release()
		wg.Wait()
		return fmt.Errorf("loadsim: scenario %s: %w", d.Name, err)
	}
	for j := 0; j < d.Overload.Extra; j++ {
		t0 := clock.Now()
		res := svc.Submit(d.request(mach, pool[fill+j], 0))
		col.record(clock.Now().Sub(t0), res)
	}
	for i := 0; i < fill; i++ {
		runner.Step()
		<-recorded
	}
	wg.Wait()
	return nil
}

// waitStats polls the service's counter snapshot (its only externally
// visible intermediate state) until cond holds.
func waitStats(svc *service.Service, cond func(service.Stats) bool) error {
	deadline := time.Now().Add(statsWait)
	for time.Now().Before(deadline) {
		if cond(svc.Stats()) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("service counters did not settle within %v: %+v", statsWait, svc.Stats())
}

// newCollector starts the report of one run of the named scenario.
func newCollector(name string) *collector {
	return &collector{
		rep:       Report{Scenario: name, Runs: 1, Taxonomy: map[string]int{}},
		schedules: map[string]string{},
	}
}

// collector accumulates the report under a lock (the concurrent paths
// record from many goroutines). schedules remembers the first result
// bytes seen per fingerprint so warm==cold byte identity is checked on
// every later hit — across chaos windows included.
type collector struct {
	mu        sync.Mutex
	rep       Report
	schedules map[string]string
}

func (c *collector) record(lat time.Duration, results ...service.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rep.Requests++
	c.rep.Latencies = append(c.rep.Latencies, lat)
	for _, r := range results {
		c.rep.Blocks++
		c.rep.Taxonomy[r.Taxonomy]++
		switch {
		case r.HardFailure:
			// The chaos layer marks every failure it caused on purpose
			// with "injected" (fault-window panics, hollow poison); the
			// escaped-hard-failure invariant only counts the rest.
			if strings.Contains(r.Err, "injected") {
				c.rep.Injected++
			} else {
				c.rep.HardFailures++
			}
		case r.Shed:
			c.rep.Shed++
		case r.Taxonomy == "timeout":
			c.rep.Timeouts++
		case r.Taxonomy == "poisoned":
			c.rep.Poisoned++
		case r.Err == "":
			c.rep.OK++
		}
		if r.CacheHit {
			c.rep.CacheHits++
		}
		if r.Coalesced {
			c.rep.Coalesced++
		}
		if r.Err == "" && !r.Shed && r.Schedule != "" {
			if prev, seen := c.schedules[r.Fingerprint]; !seen {
				c.schedules[r.Fingerprint] = r.Schedule
			} else if prev != r.Schedule {
				c.rep.IdentityViolations++
			}
		}
	}
}
