package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcsched/internal/loadsim"
)

func doc(benches ...bench) *benchDoc { return &benchDoc{Benchmarks: benches} }

func TestGateWithinTolerancePasses(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 180000, AllocsOp: 540})
	violations, notes := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 || len(notes) != 0 {
		t.Fatalf("violations %v notes %v, want none", violations, notes)
	}
}

func TestGateAllocRegressionFails(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 551})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "allocs/op") {
		t.Fatalf("violations %v, want one allocs/op violation", violations)
	}
}

func TestGateTimeRegressionFails(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 260000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "ns/op") {
		t.Fatalf("violations %v, want one ns/op violation", violations)
	}
}

func TestGateMissingBenchmarkFails(t *testing.T) {
	base := doc(
		bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500},
		bench{Name: "BenchmarkShave/130.li", NsOp: 20000, AllocsOp: 100},
	)
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 1 || !strings.Contains(violations[0], "lost coverage") {
		t.Fatalf("violations %v, want one lost-coverage violation", violations)
	}
}

func TestGateExtraBenchmarkIsANote(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	cur := doc(
		bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500},
		bench{Name: "BenchmarkNew/one", NsOp: 1, AllocsOp: 1},
	)
	violations, notes := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 {
		t.Fatalf("violations %v, want none", violations)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "not gated") {
		t.Fatalf("notes %v, want one not-gated note", notes)
	}
}

// Benchmarks recorded without -benchmem carry allocs_op = -1; the gate
// must skip the alloc comparison rather than treat -1 as a bound.
func TestGateSkipsAllocCheckWithoutMemStats(t *testing.T) {
	base := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: -1})
	cur := doc(bench{Name: "BenchmarkShave/099.go", NsOp: 100000, AllocsOp: 500})
	violations, _ := gate(base, cur, 0.10, 1.50)
	if len(violations) != 0 {
		t.Fatalf("violations %v, want none", violations)
	}
}

// --- service SLO gate ---

func sdoc(reports ...loadsim.Report) *loadsim.Document {
	return &loadsim.Document{Scenarios: reports}
}

// count returns how many violations contain substr.
func count(violations []string, substr string) int {
	n := 0
	for _, v := range violations {
		if strings.Contains(v, substr) {
			n++
		}
	}
	return n
}

func TestGateServiceIdenticalPasses(t *testing.T) {
	r := loadsim.Report{Scenario: "steady", Runs: 1, Requests: 10, Blocks: 10, OK: 10, CacheHits: 5,
		Taxonomy: map[string]int{"ok": 10}, HitRate: 0.5, P99MS: 10, DurationMS: 99}
	golden := &loadsim.Document{Version: "abc", Scenarios: []loadsim.Report{r}}
	current := &loadsim.Document{Version: "def-dirty", Scenarios: []loadsim.Report{r}}
	if violations := gateService(golden, current); len(violations) != 0 {
		t.Fatalf("violations %v, want none: only the version differs", violations)
	}
}

func TestGateServiceP99RegressionFails(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.50})
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10.001, HitRate: 0.50})
	violations := gateService(golden, cur)
	if len(violations) != 1 || !strings.Contains(violations[0], "p99_ms is 10.001, golden 10") {
		t.Fatalf("violations %v, want one p99_ms violation", violations)
	}
}

func TestGateServiceHitRateDropFails(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.50})
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.40})
	violations := gateService(golden, cur)
	if len(violations) != 1 || !strings.Contains(violations[0], "hit_rate") {
		t.Fatalf("violations %v, want one hit_rate violation", violations)
	}
	// A better hit rate fails too: the suite is deterministic, so any
	// move means the golden file must be re-recorded.
	better := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10, HitRate: 0.70})
	if violations := gateService(golden, better); len(violations) != 1 {
		t.Fatalf("violations %v, want one hit_rate violation", violations)
	}
}

func TestGateServiceShedRateDeviatesBothWays(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.44})
	over := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.60})
	if violations := gateService(golden, over); len(violations) != 1 || !strings.Contains(violations[0], "shed_rate") {
		t.Fatalf("shedding more not flagged: %v", violations)
	}
	// Shedding less than the overload golden means admission control
	// stopped refusing work it must refuse.
	under := sdoc(loadsim.Report{Scenario: "overload", P99MS: 10, ShedRate: 0.10})
	if violations := gateService(golden, under); len(violations) != 1 || !strings.Contains(violations[0], "shed_rate") {
		t.Fatalf("shedding less not flagged: %v", violations)
	}
}

// Omitted (omitempty) fields compare as zero values: a counter that
// appears where the golden file has none is a difference.
func TestGateServiceOmittedFieldDiffers(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "fleet", P99MS: 1})
	cur := sdoc(loadsim.Report{Scenario: "fleet", P99MS: 1, LeaderExecs: 64})
	violations := gateService(golden, cur)
	if len(violations) != 1 || !strings.Contains(violations[0], "leader_execs is 64, golden omitted") {
		t.Fatalf("violations %v, want one leader_execs violation", violations)
	}
}

func TestGateServiceHardFailuresAlwaysFail(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10})
	cur := sdoc(
		loadsim.Report{Scenario: "steady", P99MS: 10, HardFailures: 1},
		loadsim.Report{Scenario: "brand-new", P99MS: 1, HardFailures: 2},
	)
	violations := gateService(golden, cur)
	// Both scenarios trip the zero gate, golden entry or not; the known
	// one also differs from the golden file and the new one is missing
	// from it.
	if count(violations, "escaped hard failures") != 2 ||
		count(violations, "steady: hard_failures is 1") != 1 ||
		count(violations, "brand-new: not in golden document") != 1 ||
		len(violations) != 4 {
		t.Fatalf("violations %v, want zero-gate violations for both scenarios, one field diff and one unknown scenario", violations)
	}
}

// TestGateServiceChaosInvariantsAlwaysFail: watchdog leaks and
// warm/cold identity violations, like escaped hard failures, fail
// with or without a golden entry.
func TestGateServiceChaosInvariantsAlwaysFail(t *testing.T) {
	golden := sdoc(loadsim.Report{Scenario: "chaos-faults", P99MS: 10})
	cur := sdoc(
		loadsim.Report{Scenario: "chaos-faults", P99MS: 10, WatchdogLeaks: 1},
		loadsim.Report{Scenario: "chaos-new", P99MS: 1, IdentityViolations: 3},
	)
	violations := gateService(golden, cur)
	if count(violations, "still running at drain") != 1 || count(violations, "not byte-identical") != 1 {
		t.Fatalf("violations %v, want watchdog-leak and identity violations", violations)
	}

	// Injected/poisoned counts alone are fine: chaos scenarios are
	// SUPPOSED to absorb injected failures without escaping any.
	clean := loadsim.Report{Scenario: "chaos-faults", P99MS: 10, Injected: 20, Poisoned: 7, WatchdogKills: 4}
	if violations := gateService(sdoc(clean), sdoc(clean)); len(violations) != 0 {
		t.Fatalf("injected-only chaos report flagged: %v", violations)
	}
}

func TestGateServiceMissingScenarioFails(t *testing.T) {
	golden := sdoc(
		loadsim.Report{Scenario: "steady", P99MS: 10},
		loadsim.Report{Scenario: "overload", P99MS: 10},
	)
	cur := sdoc(loadsim.Report{Scenario: "steady", P99MS: 10})
	violations := gateService(golden, cur)
	if len(violations) != 1 || !strings.Contains(violations[0], "lost coverage") {
		t.Fatalf("violations %v, want one lost-coverage violation", violations)
	}
}

// A golden file may hold no field the gate would silently drop.
func TestReadServiceDocRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	body := `{"version": "v", "scenarios": [{"scenario": "steady", "p99_ms": 1, "p99_tol": 0.5}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readServiceDoc(path); err == nil || !strings.Contains(err.Error(), "p99_tol") {
		t.Fatalf("err = %v, want an unknown-field error", err)
	}
}
