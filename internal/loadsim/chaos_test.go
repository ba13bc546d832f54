package loadsim

import (
	"encoding/json"
	"strings"
	"testing"

	"vcsched/internal/faultpoint"
	"vcsched/internal/leakcheck"
)

// chaosScenario is the shared base for the chaos tests: virtual clock,
// hollow workers, synchronous loop, one distinct fingerprint per
// submission so every request reaches a worker. Hollow cost is zero so
// virtual time advances only by pacing (and injected stalls), which
// makes the window arithmetic in the tests exact: at 100 rps,
// submission i lands at exactly (i+1)*10 virtual ms plus any injected
// sleeps before it.
func chaosScenario(name string, requests int) *Scenario {
	return &Scenario{
		Name:         name,
		Seed:         7,
		Gen:          requests,
		MaxInstrs:    8,
		Stages:       []Stage{{RPS: 100, Requests: requests}},
		Service:      ServiceSpec{Workers: 2, QueueDepth: 8, DefaultDeadlineMS: 100},
		Hollow:       &HollowSpec{},
		VirtualClock: true,
	}
}

// TestChaosWindowsInjectAndDisarm: a worker-panic window in the middle
// of the ramp must inject hard failures only inside the window, all of
// them counted as injected (never as escaped hard failures), with the
// registry clean afterwards.
func TestChaosWindowsInjectAndDisarm(t *testing.T) {
	leakcheck.Check(t)
	sc := chaosScenario("chaos-panic-window", 60)
	// 100 rps → one submission per 10 virtual ms; the window covers
	// submissions ~20..39.
	sc.Faults = []FaultWindow{
		{Point: "service.worker", Kind: "panic", FromMS: 200, ToMS: 400},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != 20 {
		t.Fatalf("injected = %d, want the 20 submissions inside the window; report %+v", rep.Injected, rep)
	}
	if rep.HardFailures != 0 {
		t.Fatalf("injected panics escaped as hard failures: %+v", rep)
	}
	if rep.OK != 40 {
		t.Fatalf("ok = %d, want the 40 submissions outside the window", rep.OK)
	}
	if rep.IdentityViolations != 0 {
		t.Fatalf("byte identity violated across the chaos window: %+v", rep)
	}
	if rep.Taxonomy["panic"] != 20 {
		t.Fatalf("taxonomy = %v, want 20 panics", rep.Taxonomy)
	}
	if faultpoint.Enabled() {
		t.Fatalf("faultpoint registry still armed after the run: %v", faultpoint.Points())
	}
}

// TestChaosDeterministicByteIdentity: the same chaos scenario run
// twice must produce byte-identical reports — the fault schedule is
// part of the deterministic script, not noise on top of it.
func TestChaosDeterministicByteIdentity(t *testing.T) {
	sc := chaosScenario("chaos-determinism", 80)
	sc.DupRate = 0.3
	sc.Faults = []FaultWindow{
		{Point: "service.admit", Kind: "contra", FromMS: 100, ToMS: 250},
		{Point: "service.worker", Kind: "panic", FromMS: 300, ToMS: 450, Every: 2},
		{Point: "service.worker", Kind: "sleep", FromMS: 500, ToMS: 600, N: 500},
	}
	var docs [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b)
	}
	if string(docs[0]) != string(docs[1]) {
		t.Fatalf("chaos reports differ between runs:\n%s\n%s", docs[0], docs[1])
	}
}

// TestChaosSleepFaultTriggersWatchdog: a virtual 500ms worker stall
// against a 100ms deadline and the 250ms grace must be judged a watchdog
// kill at completion — deterministically, with no leaked executions —
// and watchdog verdicts must stay soft (not hard failures). Each stall
// advances virtual time by 500ms, so the [100ms, 2000ms) window
// catches submissions at 100, 610, 1120 and 1630 elapsed ms: exactly 4
// kills.
func TestChaosSleepFaultTriggersWatchdog(t *testing.T) {
	leakcheck.Check(t)
	sc := chaosScenario("chaos-watchdog", 40)
	sc.Faults = []FaultWindow{
		{Point: "service.worker", Kind: "sleep", FromMS: 100, ToMS: 2000, N: 500},
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogKills != 4 {
		t.Fatalf("watchdog kills = %d, want 4; report %+v", rep.WatchdogKills, rep)
	}
	if rep.WatchdogLeaks != 0 || rep.HardFailures != 0 {
		t.Fatalf("leaks %d hard %d after chaos drain, want 0/0", rep.WatchdogLeaks, rep.HardFailures)
	}
	if rep.Taxonomy["watchdog"] != 4 || rep.OK != 36 {
		t.Fatalf("taxonomy %v ok %d, want 4 watchdog verdicts and 36 ok", rep.Taxonomy, rep.OK)
	}
}

// TestChaosPoisonTripsBreaker: a poison source hard-fails every
// execution; after the breaker's 3 consecutive failures it must
// quarantine the fingerprint and fast-fail the rest (the run is far
// shorter than the 5s cooloff), so exactly 3 executions burn workers
// and healthy traffic is untouched.
func TestChaosPoisonTripsBreaker(t *testing.T) {
	leakcheck.Check(t)
	sc := &Scenario{
		Name:         "chaos-poison",
		Seed:         7,
		Gen:          4,
		MaxInstrs:    8,
		Stages:       []Stage{{RPS: 100, Requests: 40}}, // picks cycle sources 0..3
		Service:      ServiceSpec{Workers: 2, QueueDepth: 8, DefaultDeadlineMS: 100},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 5, Poison: []int{0}},
		VirtualClock: true,
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Source 0 is offered 10 times: 3 executions trip the breaker, the
	// remaining 7 fast-fail as poisoned.
	if rep.Injected != 3 {
		t.Fatalf("injected = %d, want 3 poison executions; report %+v", rep.Injected, rep)
	}
	if rep.Poisoned != 7 {
		t.Fatalf("poisoned = %d, want 7 fast-fails; report %+v", rep.Poisoned, rep)
	}
	if rep.BreakerTrips != 1 || rep.BreakerFastFails != 7 {
		t.Fatalf("breaker trips %d fast-fails %d, want 1/7", rep.BreakerTrips, rep.BreakerFastFails)
	}
	if rep.HardFailures != 0 {
		t.Fatalf("injected poison escaped as hard failures: %+v", rep)
	}
	// Healthy sources: 30 offers, 3 cold misses + 27 warm hits.
	if rep.OK != 30 || rep.CacheHits != 27 {
		t.Fatalf("ok %d cache-hits %d, want 30/27", rep.OK, rep.CacheHits)
	}
}

// TestChaosValidation: the scenario validator must refuse chaos specs
// the runner cannot execute deterministically.
func TestChaosValidation(t *testing.T) {
	base := func() *Scenario { return chaosScenario("chaos-invalid", 10) }
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantSub string
	}{
		{"no virtual clock", func(sc *Scenario) {
			sc.VirtualClock = false
			sc.Faults = []FaultWindow{{Point: "service.worker", Kind: "panic", FromMS: 0, ToMS: 100}}
		}, "require virtual_clock"},
		{"concurrent", func(sc *Scenario) {
			sc.Concurrency = 4
			sc.Faults = []FaultWindow{{Point: "service.worker", Kind: "panic", FromMS: 0, ToMS: 100}}
		}, "concurrency 1"},
		{"unknown point", func(sc *Scenario) {
			sc.Faults = []FaultWindow{{Point: "service.typo", Kind: "panic", FromMS: 0, ToMS: 100}}
		}, "unknown fault point"},
		{"unknown kind", func(sc *Scenario) {
			sc.Faults = []FaultWindow{{Point: "service.worker", Kind: "frob", FromMS: 0, ToMS: 100}}
		}, "unknown fault kind"},
		{"empty window", func(sc *Scenario) {
			sc.Faults = []FaultWindow{{Point: "service.worker", Kind: "panic", FromMS: 100, ToMS: 100}}
		}, "not after"},
		{"overlap", func(sc *Scenario) {
			sc.Faults = []FaultWindow{
				{Point: "service.worker", Kind: "panic", FromMS: 0, ToMS: 200},
				{Point: "service.worker", Kind: "sleep", FromMS: 150, ToMS: 300, N: 10},
			}
		}, "overlap"},
		{"poison out of range", func(sc *Scenario) {
			sc.Hollow.Poison = []int{99}
		}, "outside the source pool"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mutate(sc)
		err := sc.Validate()
		if err == nil {
			t.Fatalf("%s: validator accepted %+v", tc.name, sc)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}
