package loadsim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vcsched/internal/difftest"
	"vcsched/internal/service"
)

// TestVirtualClockScenarioIsDeterministic is the property make
// slo-short leans on: a hollow-worker, virtual-clock, concurrency-1
// scenario measures the exact same report on every run, so the
// checked-in baseline can use meaningful tolerance bands without
// flaking.
func TestVirtualClockScenarioIsDeterministic(t *testing.T) {
	sc := &Scenario{
		Name: "det",
		Seed: 7,
		Gen:  6,
		Stages: []Stage{
			{RPS: 1000, Requests: 40},
			{RPS: 5000, Requests: 40},
		},
		DupRate:      0.5,
		Service:      ServiceSpec{Workers: 2, QueueDepth: 8, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 9},
		VirtualClock: true,
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.HardFailures != 0 {
		t.Fatalf("hollow scenario hard-failed: %+v", a)
	}
	if a.Requests != 80 || a.Blocks != 80 {
		t.Fatalf("requests/blocks = %d/%d, want 80/80", a.Requests, a.Blocks)
	}
	if a.CacheHits == 0 {
		t.Fatalf("dup_rate 0.5 produced no cache hits: %+v", a)
	}
	if a.OK+a.Shed+a.Timeouts != a.Blocks {
		t.Fatalf("verdicts do not partition blocks: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of the same virtual-clock scenario differ:\nfirst  %+v\nsecond %+v", a, b)
	}
	if a.P99MS == 0 || a.MaxMS < a.P99MS || a.P99MS < a.P50MS {
		t.Fatalf("implausible percentiles: %+v", a)
	}
}

// TestOverloadShedsDeterministically checks the gate-based overload
// flow: capacity (workers + queue depth) requests are pinned in
// flight, and every one of the Extra requests beyond capacity sheds —
// exactly, not approximately.
func TestOverloadShedsDeterministically(t *testing.T) {
	sc := &Scenario{
		Name:         "overload",
		Seed:         3,
		Gen:          9,
		Service:      ServiceSpec{Workers: 2, QueueDepth: 3, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 5, CostMaxMS: 5},
		VirtualClock: true,
		Overload:     &OverloadSpec{Extra: 4},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 9 {
		t.Fatalf("blocks = %d, want 9 (5 capacity + 4 extra)", rep.Blocks)
	}
	if rep.Shed != 4 || rep.OK != 5 || rep.HardFailures != 0 {
		t.Fatalf("shed/ok/hard = %d/%d/%d, want 4/5/0 (%+v)", rep.Shed, rep.OK, rep.HardFailures, rep)
	}
	if want := 4.0 / 9.0; rep.ShedRate != want {
		t.Fatalf("shed rate %v, want exactly %v", rep.ShedRate, want)
	}
	if rep.Taxonomy["shed"] != 4 || rep.Taxonomy["ok"] != 5 {
		t.Fatalf("taxonomy histogram %+v", rep.Taxonomy)
	}
}

// TestDeadlineMixProducesTimeouts drives a mix of deadlines through a
// fixed-cost hollow worker: requests whose deadline is below the cost
// must time out (the hollow analogue of the DP hitting
// deduce.Budget.SetDeadline), the rest succeed, and nothing
// hard-fails.
func TestDeadlineMixProducesTimeouts(t *testing.T) {
	sc := &Scenario{
		Name:    "deadlines",
		Seed:    11,
		Gen:     8,
		Stages:  []Stage{{RPS: 0, Requests: 60}},
		DupRate: 0, // every request a distinct computation path
		DeadlineMix: []DeadlineBand{
			{MS: 20, Weight: 1},    // below the 30ms cost → timeout
			{MS: 60000, Weight: 1}, // comfortable → ok
		},
		Service:      ServiceSpec{Workers: 2, QueueDepth: 8, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 30, CostMaxMS: 30},
		VirtualClock: true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HardFailures != 0 {
		t.Fatalf("deadline misses must be timeouts, not hard failures: %+v", rep)
	}
	if rep.Timeouts == 0 {
		t.Fatalf("20ms deadlines against a 30ms cost produced no timeouts: %+v", rep)
	}
	if rep.OK == 0 {
		t.Fatalf("60s deadlines produced no successes: %+v", rep)
	}
	if rep.Taxonomy["timeout"] == 0 {
		t.Fatalf("taxonomy histogram missing timeouts: %+v", rep.Taxonomy)
	}
	// Dup rate 0 with a small pool still re-picks sources (picks cycle
	// the pool), and a timed-out result is never cached — so later
	// long-deadline picks of the same fingerprint recompute.
	if rep.OK+rep.Timeouts != rep.Blocks-rep.Shed {
		t.Fatalf("verdicts do not partition blocks: %+v", rep)
	}
}

// TestBatchSubmissionsShareTheRequestLatency mirrors cmd/vcload's
// accounting: a batch is one submission (one latency sample) carrying
// Batch block verdicts.
func TestBatchSubmissionsShareTheRequestLatency(t *testing.T) {
	sc := &Scenario{
		Name:         "batch",
		Seed:         5,
		Gen:          6,
		Stages:       []Stage{{RPS: 0, Requests: 4}},
		Batch:        3,
		Service:      ServiceSpec{Workers: 2, QueueDepth: 8, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 2, CostMaxMS: 4},
		VirtualClock: true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 4 || rep.Blocks != 12 {
		t.Fatalf("requests/blocks = %d/%d, want 4/12", rep.Requests, rep.Blocks)
	}
	if len(rep.Latencies) != 4 {
		t.Fatalf("latency samples = %d, want one per submission (4)", len(rep.Latencies))
	}
	if rep.HardFailures != 0 || rep.Shed != 0 {
		t.Fatalf("batch scenario degraded: %+v", rep)
	}
}

// TestRealClockScenarioRuns exercises the wall-clock path end to end
// (hollow, no virtual clock): pacing and costs really sleep, so keep
// it tiny.
func TestRealClockScenarioRuns(t *testing.T) {
	sc := &Scenario{
		Name:    "wall",
		Seed:    2,
		Gen:     4,
		Stages:  []Stage{{RPS: 500, Requests: 8}},
		DupRate: 0.5,
		Service: ServiceSpec{Workers: 2, QueueDepth: 4, DefaultDeadlineMS: 60000},
		Hollow:  &HollowSpec{CostMinMS: 1, CostMaxMS: 2},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HardFailures != 0 || rep.Blocks != 8 {
		t.Fatalf("wall-clock scenario: %+v", rep)
	}
	if rep.P99MS <= 0 {
		t.Fatalf("wall-clock latencies not measured: %+v", rep)
	}
}

// TestConcurrentDispatchScenario exercises the dispatcher + worker
// pool path (Concurrency > 1). Latency percentiles are load-dependent
// there, so only the counter invariants are asserted.
func TestConcurrentDispatchScenario(t *testing.T) {
	sc := &Scenario{
		Name:         "conc",
		Seed:         9,
		Gen:          8,
		Stages:       []Stage{{RPS: 0, Requests: 64}},
		DupRate:      0.6,
		Concurrency:  4,
		Service:      ServiceSpec{Workers: 2, QueueDepth: 64, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 3},
		VirtualClock: true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Blocks != 64 || rep.HardFailures != 0 {
		t.Fatalf("concurrent scenario: %+v", rep)
	}
	// Every duplicate either hit the cache or coalesced onto the
	// leader; with a queue deeper than the offered concurrency nothing
	// sheds.
	if rep.Shed != 0 {
		t.Fatalf("unexpected shedding with a 64-deep queue: %+v", rep)
	}
	if rep.CacheHits+rep.Coalesced == 0 {
		t.Fatalf("dup-heavy concurrent scenario warmed nothing: %+v", rep)
	}
}

func TestMergePoolsRunsAndRecomputes(t *testing.T) {
	sc := &Scenario{
		Name:         "merge",
		Seed:         4,
		Gen:          4,
		Stages:       []Stage{{RPS: 0, Requests: 10}},
		DupRate:      0.5,
		Service:      ServiceSpec{Workers: 1, QueueDepth: 4, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 5},
		VirtualClock: true,
	}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge([]*Report{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Runs != 2 || merged.Requests != a.Requests+b.Requests {
		t.Fatalf("merge did not pool runs: %+v", merged)
	}
	// Identical virtual runs: pooled percentiles equal the single-run
	// ones, rates unchanged.
	if merged.P99MS != a.P99MS || merged.HitRate != a.HitRate || merged.ShedRate != a.ShedRate {
		t.Fatalf("merged SLOs drifted from identical runs:\nsingle %+v\nmerged %+v", a, merged)
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("Merge(nil) did not fail")
	}
	other := *a
	other.Scenario = "different"
	if _, err := Merge([]*Report{a, &other}); err == nil {
		t.Fatal("Merge across scenarios did not fail")
	}
}

// TestRunRefusesRealScheduler: the in-process harness runs hollow
// workers only, in every mode; a scenario without them is pointed at
// vcload.
func TestRunRefusesRealScheduler(t *testing.T) {
	cases := map[string]*Scenario{
		"stages":        {Name: "real", Gen: 4, Stages: []Stage{{Requests: 4}}},
		"virtual clock": {Name: "real", Gen: 4, Stages: []Stage{{Requests: 4}}, VirtualClock: true},
		"overload": {Name: "real", Gen: 8, Overload: &OverloadSpec{Extra: 1},
			Service: ServiceSpec{Workers: 1, QueueDepth: 1}},
		"fleet": {Name: "real", Gen: 4, Stages: []Stage{{Requests: 4}}, Fleet: &FleetSpec{Shards: 2}},
	}
	for name, sc := range cases {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want the scenario valid", name, err)
		}
		if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "vcload") {
			t.Errorf("%s: Run() = %v, want a refusal pointing to vcload", name, err)
		}
	}
}

// TestCorpusJoinsThePoolAheadOfGeneratedBlocks: every superblock of the
// corpus files, in file-name order and under its own name, precedes
// the Gen generated sources, and picks range over the whole pool.
func TestCorpusJoinsThePoolAheadOfGeneratedBlocks(t *testing.T) {
	dir := t.TempDir()
	g := difftest.NewGen(21, 10)
	a, b, c := g.Next(), g.Next(), g.Next()
	a.Name, b.Name, c.Name = "first", "second", "third"
	// b.sb holds two superblocks and sorts before c.sb.
	for file, body := range map[string]string{"b.sb": a.String() + b.String(), "c.sb": c.String(), "notes.txt": "ignored"} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sc := Scenario{Name: "corpus", Gen: 2, MaxInstrs: 12, Corpus: dir, Stages: []Stage{{Requests: 12}}}.withDefaults()
	m, pool, err := prepare(&sc)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, src := range pool {
		names = append(names, src.sb.Name)
	}
	if got, want := strings.Join(names, ","), "first,second,third,corpus-src000,corpus-src001"; got != want {
		t.Fatalf("pool = %s, want %s", got, want)
	}
	if fp := service.Fingerprint(sc.request(m, pool[1], 0)); fp != pool[1].fp {
		t.Fatalf("corpus source fingerprint %s, a submission hashes to %s", pool[1].fp, fp)
	}
	seen := map[int]bool{}
	for _, s := range drawSubmissions(&sc, len(pool)) {
		seen[s.picks[0]] = true
	}
	if len(seen) != len(pool) {
		t.Fatalf("picks covered %d of %d sources", len(seen), len(pool))
	}

	sc.Corpus = t.TempDir()
	if _, _, err := prepare(&sc); err == nil || !strings.Contains(err.Error(), "no .sb files") {
		t.Fatalf("empty corpus dir: err = %v", err)
	}
}

// TestCheckedInScenariosRepeat runs the two checked-in scenarios that
// goroutine scheduling could sway and requires every run to report the
// same numbers: batch (a block repeated within its batch could be a hit
// or coalesced) and overload-shed (a submitter could read the virtual
// clock while another worker's cost was being paid).
func TestCheckedInScenariosRepeat(t *testing.T) {
	for _, file := range []string{"40_overload_shed.json", "50_batch.json"} {
		sc, err := LoadScenario(filepath.Join("..", "..", "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		first, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < 30; i++ {
			rep, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, first) {
				t.Fatalf("%s: run %d differs from run 0:\n%+v\nvs\n%+v", file, i, rep, first)
			}
		}
	}
}
