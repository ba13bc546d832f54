package service

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// directLadder computes the reference response for a request the way a
// cold single-shot run (cmd/vcsched -resilient -save) would: the
// resilient ladder with pins from the seed and a generous wall clock.
func directLadder(t *testing.T, sb *ir.Superblock, m *machine.Config, pinSeed int64, steps int) (schedule, exits, tier string) {
	t.Helper()
	s, out, err := resilient.Schedule(sb, m, resilient.Options{Core: core.Options{
		MaxSteps: steps,
		Pins:     workload.PinsFor(sb, m.Clusters, pinSeed),
		Timeout:  30 * time.Second,
	}})
	if err != nil {
		t.Fatalf("reference ladder failed on %s: %v", sb.Name, err)
	}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String(), sched.FormatExitCycles(s.ExitCycles()), out.Tier.String()
}

func testRequest(sb *ir.Superblock, seed int64) *Request {
	return &Request{
		SB:       sb,
		Machine:  machine.TwoCluster1Lat(),
		PinSeed:  seed,
		MaxSteps: 20000,
	}
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// beatsCARS is 124.m88ksim.sb0001, a block on which the search beats
// CARS on 2c1l with pin seed 1 (AWCT 3.743 against 4.486), so the
// ladder delivers the search's schedule.
func beatsCARS(t *testing.T) *ir.Superblock {
	t.Helper()
	p, err := workload.BenchmarkByName("124.m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	return p.GenerateBlock(1, 0)
}

func TestSubmitMatchesDirectLadderAndCaches(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, DefaultDeadline: 20 * time.Second})
	req := testRequest(beatsCARS(t), 1)
	wantSched, wantExits, wantTier := directLadder(t, req.SB, req.Machine, req.PinSeed, req.MaxSteps)

	cold := s.Submit(req)
	if !cold.OK() {
		t.Fatalf("cold submit failed: %+v", cold)
	}
	if cold.CacheHit || cold.Coalesced {
		t.Fatalf("cold submit flagged as warm: %+v", cold)
	}
	if cold.Schedule != wantSched || cold.ExitCycles != wantExits || cold.Tier != wantTier {
		t.Fatalf("cold response differs from direct ladder:\ngot  %q %q %q\nwant %q %q %q",
			cold.Schedule, cold.ExitCycles, cold.Tier, wantSched, wantExits, wantTier)
	}

	warm := s.Submit(req)
	if !warm.CacheHit {
		t.Fatalf("second submit missed the cache: %+v", warm)
	}
	if warm.Schedule != cold.Schedule || warm.ExitCycles != cold.ExitCycles ||
		warm.Tier != cold.Tier || warm.AWCT != cold.AWCT {
		t.Fatalf("warm response is not byte-identical to cold:\nwarm %+v\ncold %+v", warm, cold)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.Scheduled != 1 {
		t.Fatalf("stats after cold+warm: %+v", st)
	}
	if st.TierSG != 1 {
		t.Fatalf("expected one tier-sg result, stats %+v", st)
	}
}

// TestStepBudgetReachesTheSearch: the request's MaxSteps is the SG
// search's budget. 124.m88ksim.sb0001 on 2c1l exhausts a 1-step budget
// and keeps CARS, and finds its better SG schedule within 20000 steps.
func TestStepBudgetReachesTheSearch(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, DefaultDeadline: 20 * time.Second})
	for _, c := range []struct {
		steps int
		tier  string
	}{{1, "cars"}, {20000, "sg"}} {
		req := testRequest(beatsCARS(t), 1)
		req.MaxSteps = c.steps
		if res := s.Submit(req); !res.OK() || res.Tier != c.tier {
			t.Errorf("MaxSteps %d: tier %q (err %q), want %q", c.steps, res.Tier, res.Err, c.tier)
		}
	}
}

// TestWorkersFallBackToLadderParallelism: with Workers 0 the pool size
// is Ladder.Core.Parallelism, which is how perfbench's serve and fleet
// shards get their 4 workers; an explicit Workers wins.
func TestWorkersFallBackToLadderParallelism(t *testing.T) {
	ladder := resilient.Options{Core: core.Options{Parallelism: 4}}
	if got := (Config{Ladder: ladder}).withDefaults().Workers; got != 4 {
		t.Errorf("Workers 0, Ladder.Core.Parallelism 4: %d workers, want 4", got)
	}
	if got := (Config{Workers: 2, Ladder: ladder}).withDefaults().Workers; got != 2 {
		t.Errorf("Workers 2, Ladder.Core.Parallelism 4: %d workers, want the explicit 2", got)
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, DefaultDeadline: 20 * time.Second})
	const n = 8
	results := make([]Result, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = s.Submit(testRequest(ir.PaperFigure1(), 1))
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("submit %d failed: %+v", i, r)
		}
		if r.Schedule != results[0].Schedule {
			t.Fatalf("submit %d returned different bytes", i)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Fatalf("%d duplicate submissions computed %d times (stats %+v)", n, st.CacheMisses, st)
	}
	if st.CacheHits+st.Coalesced != n-1 {
		t.Fatalf("followers not accounted as hit or coalesced: %+v", st)
	}
}

func TestSubmitBatchOrderAndDedup(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, DefaultDeadline: 20 * time.Second})
	blocks := []*ir.Superblock{ir.PaperFigure1(), ir.Diamond(), ir.PaperFigure1()}
	reqs := make([]*Request, len(blocks))
	for i, sb := range blocks {
		reqs[i] = testRequest(sb, 1)
	}
	out := s.SubmitBatch(reqs)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(out), len(reqs))
	}
	for i, r := range out {
		if !r.OK() {
			t.Fatalf("batch result %d failed: %+v", i, r)
		}
		if r.Block != blocks[i].Name {
			t.Fatalf("batch result %d is for %q, want %q", i, r.Block, blocks[i].Name)
		}
	}
	if out[0].Schedule != out[2].Schedule {
		t.Fatal("duplicate blocks in one batch returned different bytes")
	}
	if st := s.Stats(); st.CacheMisses != 2 {
		t.Fatalf("batch with one duplicate computed %d times: %+v", st.CacheMisses, st)
	}
}

// TestBatchDuplicateAlwaysCoalesces: a block repeated within its batch
// joins its first copy in flight, even when the runner finishes at
// once, so the duplicate can never race the first copy into the cache.
func TestBatchDuplicateAlwaysCoalesces(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, DefaultDeadline: 20 * time.Second, Runner: newScriptedRunner()})
	const batches = 200
	for i := 0; i < batches; i++ {
		a, b := ir.PaperFigure1(), ir.Diamond()
		a.Name = fmt.Sprintf("a%d", i)
		b.Name = fmt.Sprintf("b%d", i)
		out := s.SubmitBatch([]*Request{testRequest(a, 1), testRequest(b, 1), testRequest(a, 1)})
		if !out[2].Coalesced || out[2].CacheHit || out[2].Schedule != out[0].Schedule {
			t.Fatalf("batch %d: duplicate served as %+v, want coalesced with %+v", i, out[2], out[0])
		}
	}
	if st := s.Stats(); st.Coalesced != batches || st.CacheHits != 0 || st.CacheMisses != 2*batches {
		t.Fatalf("stats %+v, want %d coalesced, 0 hits, %d misses", st, batches, 2*batches)
	}
}

// waitFor polls the stats snapshot until cond holds; the service has no
// other externally visible intermediate states to synchronize on.
func waitFor(t *testing.T, s *Service, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, s.Stats())
}

func TestFullQueueShedsInsteadOfGrowing(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.worker", faultpoint.Fault{Kind: faultpoint.KindSleep, N: 300})
	s := newTestService(t, Config{Workers: 1, QueueDepth: 1, DefaultDeadline: 20 * time.Second})

	var wg sync.WaitGroup
	wg.Add(2)
	var first, second Result
	go func() { defer wg.Done(); first = s.Submit(testRequest(ir.PaperFigure1(), 1)) }()
	// The worker is asleep on the first job before the second is
	// submitted, so the second occupies the single queue slot.
	waitFor(t, s, "worker to pick up the first job", func(st Stats) bool {
		return st.CacheMisses == 1 && st.QueueLen == 0
	})
	go func() { defer wg.Done(); second = s.Submit(testRequest(ir.PaperFigure1(), 2)) }()
	waitFor(t, s, "second job to queue", func(st Stats) bool { return st.QueueLen == 1 })

	shed := s.Submit(testRequest(ir.PaperFigure1(), 3))
	if !shed.Shed || shed.Taxonomy != "shed" {
		t.Fatalf("overload did not shed: %+v", shed)
	}
	if shed.Err == "" {
		t.Fatal("shed response carries no reason")
	}
	wg.Wait()
	if !first.OK() || !second.OK() {
		t.Fatalf("admitted jobs failed: %+v %+v", first, second)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("stats.Shed = %d, want 1 (%+v)", st.Shed, st)
	}
}

func TestCloseDrainsInFlightWork(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.worker", faultpoint.Fault{Kind: faultpoint.KindSleep, N: 150})
	s := New(Config{Workers: 1, QueueDepth: 4, DefaultDeadline: 20 * time.Second})

	var wg sync.WaitGroup
	results := make([]Result, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) { defer wg.Done(); results[i] = s.Submit(testRequest(ir.PaperFigure1(), int64(i+1))) }(i)
	}
	waitFor(t, s, "both jobs admitted", func(st Stats) bool { return st.CacheMisses == 2 })

	s.Close() // must block until both queued/in-flight jobs complete
	wg.Wait()
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("in-flight job %d lost to drain: %+v", i, r)
		}
	}
	after := s.Submit(testRequest(ir.PaperFigure1(), 9))
	if !after.Shed || after.Taxonomy != "draining" {
		t.Fatalf("submit after Close = %+v, want draining refusal", after)
	}
	s.Close() // idempotent
}

func TestQueueWaitCountsAgainstDeadline(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.worker", faultpoint.Fault{Kind: faultpoint.KindSleep, N: 200})
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, DefaultDeadline: 20 * time.Second})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); s.Submit(testRequest(ir.PaperFigure1(), 1)) }()
	waitFor(t, s, "worker busy", func(st Stats) bool { return st.CacheMisses == 1 && st.QueueLen == 0 })

	hurried := testRequest(ir.PaperFigure1(), 2)
	hurried.Deadline = 10 * time.Millisecond
	res := s.Submit(hurried)
	if res.OK() || res.Taxonomy != "timeout" {
		t.Fatalf("expired-in-queue request = %+v, want timeout", res)
	}
	wg.Wait()
	if st := s.Stats(); st.QueueTimeouts != 1 {
		t.Fatalf("stats.QueueTimeouts = %d, want 1", st.QueueTimeouts)
	}
}

func TestAdmitFaultForcesShed(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.admit", faultpoint.Fault{Kind: faultpoint.KindContra})
	s := newTestService(t, Config{Workers: 1})
	res := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if !res.Shed || !strings.Contains(res.Err, "service.admit") {
		t.Fatalf("armed service.admit did not shed: %+v", res)
	}
	faultpoint.Reset()
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); !res.OK() {
		t.Fatalf("service broken after admit fault: %+v", res)
	}
}

func TestAdmitPanicRefusesOneRequest(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.admit", faultpoint.Fault{Kind: faultpoint.KindPanic})
	s := newTestService(t, Config{Workers: 1})
	res := s.Submit(testRequest(ir.PaperFigure1(), 1))
	if res.OK() || res.Taxonomy != "panic" {
		t.Fatalf("armed service.admit panic = %+v, want refused request", res)
	}
	faultpoint.Reset()
	if res := s.Submit(testRequest(ir.PaperFigure1(), 1)); !res.OK() {
		t.Fatalf("service broken after admit panic: %+v", res)
	}
}

func TestWorkerFaultsDoNotPoisonCacheOrPool(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	s := newTestService(t, Config{Workers: 1, DefaultDeadline: 20 * time.Second})

	for seed, kind := range []faultpoint.Kind{faultpoint.KindPanic, faultpoint.KindContra} {
		// A fresh pin seed per kind keeps the request out of the cache
		// populated by the previous iteration — the fault must hit a
		// worker, not a cache hit.
		req := testRequest(ir.PaperFigure1(), int64(seed+1))
		want, _, _ := directLadder(t, req.SB, req.Machine, req.PinSeed, req.MaxSteps)
		faultpoint.Reset()
		faultpoint.Arm("service.worker", faultpoint.Fault{Kind: kind})
		res := s.Submit(req)
		if res.OK() {
			t.Fatalf("kind %v: faulted execution reported success: %+v", kind, res)
		}
		faultpoint.Reset()
		// The faulted execution must not have been cached: the retry
		// recomputes and returns the correct bytes.
		retry := s.Submit(req)
		if !retry.OK() || retry.CacheHit {
			t.Fatalf("kind %v: retry after fault = %+v, want fresh success", kind, retry)
		}
		if retry.Schedule != want {
			t.Fatalf("kind %v: retry bytes differ from reference", kind)
		}
		// And the now-cached good result serves warm hits.
		warm := s.Submit(req)
		if !warm.CacheHit || warm.Schedule != want {
			t.Fatalf("kind %v: warm after retry = %+v", kind, warm)
		}
	}
}

func TestStatsSnapshotIsDeterministic(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	a, b := s.Stats(), s.Stats()
	if a != b {
		t.Fatalf("two idle snapshots differ: %+v vs %+v", a, b)
	}
	if a.Version == "" {
		t.Fatal("stats carry no version")
	}
}
