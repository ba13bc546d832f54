package loadsim

import (
	"reflect"
	"strings"
	"testing"
)

// fleetScenario is the shared traffic for the fleet tests: duplicate-
// heavy, hollow, virtual-clock, concurrency 1 — the deterministic shape
// the checked-in fleet scenarios use, at unit-test scale.
func fleetScenario(name string, spec *FleetSpec) *Scenario {
	return &Scenario{
		Name:         name,
		Seed:         11,
		Gen:          16,
		MaxInstrs:    12,
		Stages:       []Stage{{RPS: 400, Requests: 300}},
		DupRate:      0.8,
		Service:      ServiceSpec{Workers: 4, QueueDepth: 32, CacheEntries: 64, DefaultDeadlineMS: 60000},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 6},
		VirtualClock: true,
		Fleet:        spec,
	}
}

// TestFleetHashMatchesSingleShardHitRate is the partitioned-cache
// claim the fleet scenarios gate: on identical duplicate-heavy traffic,
// hash routing at N=4 measures the same aggregate hit rate and the
// same fleet-wide execution count as the N=1 baseline — each
// fingerprint caches on exactly one shard, so widening the fleet adds
// capacity without duplicating work.
func TestFleetHashMatchesSingleShardHitRate(t *testing.T) {
	one, err := Run(fleetScenario("fleet-n1", &FleetSpec{Shards: 1, ExactOnce: true}))
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(fleetScenario("fleet-n4", &FleetSpec{Shards: 4, ExactOnce: true}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Report{one, four} {
		if r.HardFailures != 0 || r.Shed != 0 || r.IdentityViolations != 0 {
			t.Fatalf("%s: hollow fleet run degraded: %+v", r.Scenario, r)
		}
	}
	if one.Shards != 1 || four.Shards != 4 {
		t.Fatalf("shards recorded as %d/%d, want 1/4", one.Shards, four.Shards)
	}
	// Every distinct fingerprint executes exactly once fleet-wide, on
	// both topologies, so hits — and therefore the hit rate — agree
	// exactly, not just within a tolerance.
	if one.LeaderExecs != one.DistinctSources || four.LeaderExecs != four.DistinctSources {
		t.Fatalf("leader execs != distinct sources: n1 %d/%d, n4 %d/%d",
			one.LeaderExecs, one.DistinctSources, four.LeaderExecs, four.DistinctSources)
	}
	if one.LeaderExecs != four.LeaderExecs {
		t.Fatalf("fleet-wide executions differ: n1 %d, n4 %d", one.LeaderExecs, four.LeaderExecs)
	}
	if one.CacheHits != four.CacheHits || one.HitRate != four.HitRate {
		t.Fatalf("hit rate diverged across fleet widths: n1 %d (%.3f), n4 %d (%.3f)",
			one.CacheHits, one.HitRate, four.CacheHits, four.HitRate)
	}
	if one.CacheHits == 0 {
		t.Fatalf("dup_rate 0.8 produced no cache hits: %+v", one)
	}
}

// TestFleetValidation covers the scenario-schema rules fleet mode adds.
func TestFleetValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"zero shards", func(sc *Scenario) { sc.Fleet.Shards = 0 }, "fleet.shards"},
		{"overload", func(sc *Scenario) {
			sc.Stages = nil
			sc.Overload = &OverloadSpec{Extra: 2}
			sc.Gen = 64
		}, "fleet and overload"},
		{"faults", func(sc *Scenario) {
			sc.Faults = []FaultWindow{{Point: "service.admit", Kind: "contra", FromMS: 0, ToMS: 10}}
		}, "fleet and faults"},
	}
	for _, tc := range cases {
		sc := fleetScenario("invalid", &FleetSpec{Shards: 2})
		tc.mutate(sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFleetConcurrentTrafficExecutesOnce drives the router and its
// in-memory transport from several submitters at once: concurrent
// duplicates coalesce in the router or hit their home shard's cache,
// so every fingerprint still executes exactly once fleet-wide.
func TestFleetConcurrentTrafficExecutesOnce(t *testing.T) {
	sc := fleetScenario("fleet-conc", &FleetSpec{Shards: 3, ExactOnce: true})
	sc.Concurrency = 4
	sc.Batch = 2
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HardFailures != 0 || rep.Shed != 0 || rep.IdentityViolations != 0 || rep.Blocks != 600 {
		t.Fatalf("concurrent fleet run degraded: %+v", rep)
	}
	if rep.LeaderExecs != rep.DistinctSources || rep.CacheHits+rep.Coalesced == 0 {
		t.Fatalf("leader execs %d for %d distinct sources, hits %d, coalesced %d",
			rep.LeaderExecs, rep.DistinctSources, rep.CacheHits, rep.Coalesced)
	}
}

// TestFleetBatchesRepeat: the router fingerprints and joins a batch's
// blocks in request order before it forwards any, so a block repeated
// within its batch always coalesces with its first copy, and every run
// reports the same numbers.
func TestFleetBatchesRepeat(t *testing.T) {
	sc := fleetScenario("fleet-batch", &FleetSpec{Shards: 4})
	sc.Batch = 3
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Coalesced == 0 {
		t.Fatalf("batch 3 at dup_rate 0.8 coalesced nothing: %+v", first)
	}
	for i := 1; i < 10; i++ {
		rep, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, first) {
			t.Fatalf("run %d differs from run 0:\n%+v\nvs\n%+v", i, rep, first)
		}
	}
}
