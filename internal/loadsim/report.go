package loadsim

import (
	"fmt"
	"io"
	"sort"
	"time"

	"vcsched/internal/stats"
)

// Report is the measured outcome of one scenario run (or of several
// aggregated runs): the SLO fields BENCH_service.json records and
// cmd/benchgate compares with the checked-in golden copy. Counters are
// per block sent; latencies are per submission (a batch is one
// submission carrying Batch blocks).
type Report struct {
	Scenario     string `json:"scenario"`
	Runs         int    `json:"runs"`
	Requests     int    `json:"requests"`
	Blocks       int    `json:"blocks"`
	OK           int    `json:"ok"`
	CacheHits    int    `json:"cache_hits"`
	Coalesced    int    `json:"coalesced"`
	Shed         int    `json:"shed"`
	Timeouts     int    `json:"timeouts"`
	HardFailures int    `json:"hard_failures"`
	// Injected counts hard failures the chaos layer deliberately caused
	// (their error text carries the "injected" marker): fault-window
	// panics, hollow poison. HardFailures stays escaped-only, so the
	// zero-hard-failure invariant means "no REAL failure escaped the
	// resilience ladder" even mid-chaos.
	Injected int `json:"injected,omitempty"`
	// Poisoned counts circuit-breaker fast-fails (taxonomy "poisoned").
	Poisoned int `json:"poisoned,omitempty"`
	// Watchdog/breaker counters are the service's own totals for the
	// run, snapshotted after the drain. WatchdogLeaks must be zero: a
	// residue means a worker execution never returned.
	WatchdogKills    int `json:"watchdog_kills,omitempty"`
	WatchdogLeaks    int `json:"watchdog_leaks,omitempty"`
	BreakerTrips     int `json:"breaker_trips,omitempty"`
	BreakerFastFails int `json:"breaker_fast_fails,omitempty"`
	// IdentityViolations counts results whose bytes differed from an
	// earlier result for the same fingerprint — warm==cold byte
	// identity must survive chaos, so this must be zero.
	IdentityViolations int `json:"identity_violations,omitempty"`
	// Fleet-mode fields (zero for single-service runs). Shards is the
	// replica count; LeaderExecs counts hollow executions fleet-wide,
	// which exact_once holds equal to DistinctSources, the number of
	// distinct fingerprints that executed at least once.
	Shards          int            `json:"shards,omitempty"`
	LeaderExecs     int            `json:"leader_execs,omitempty"`
	DistinctSources int            `json:"distinct_sources,omitempty"`
	Taxonomy        map[string]int `json:"taxonomy"`
	HitRate         float64        `json:"hit_rate"`  // cache hits / blocks
	ShedRate        float64        `json:"shed_rate"` // shed / blocks
	P50MS           float64        `json:"p50_ms"`
	P90MS           float64        `json:"p90_ms"`
	P99MS           float64        `json:"p99_ms"`
	MaxMS           float64        `json:"max_ms"`
	DurationMS      float64        `json:"duration_ms"`

	// Latencies is the raw per-submission sample backing the
	// percentiles, kept out of the JSON document; cmd/vcslo pools it
	// across -runs repetitions before recomputing percentiles.
	Latencies []time.Duration `json:"-"`
}

// Document is the BENCH_service.json shape: one Report per scenario,
// in suite order, stamped with the build version like every other
// BENCH_*.json.
type Document struct {
	Version   string   `json:"version"`
	Scenarios []Report `json:"scenarios"`
}

// finalize derives rates and percentiles from the counters and the raw
// latency sample.
func (r *Report) finalize() {
	if r.Blocks > 0 {
		r.HitRate = float64(r.CacheHits) / float64(r.Blocks)
		r.ShedRate = float64(r.Shed) / float64(r.Blocks)
	}
	stats.Sort(r.Latencies)
	r.P50MS = stats.Millis(stats.Percentile(r.Latencies, 0.50))
	r.P90MS = stats.Millis(stats.Percentile(r.Latencies, 0.90))
	r.P99MS = stats.Millis(stats.Percentile(r.Latencies, 0.99))
	r.MaxMS = stats.Millis(stats.Percentile(r.Latencies, 1.0))
}

// Merge pools repeated runs of one scenario into a single report:
// counters add, latency samples pool, rates and percentiles are
// recomputed over the union. Virtual-clock runs are identical, so
// merging is a no-op there; real-clock runs average their noise.
func Merge(runs []*Report) (*Report, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("loadsim: nothing to merge")
	}
	out := &Report{Scenario: runs[0].Scenario, Taxonomy: map[string]int{}}
	var durations float64
	for _, r := range runs {
		if r.Scenario != out.Scenario {
			return nil, fmt.Errorf("loadsim: merging reports for %q and %q", out.Scenario, r.Scenario)
		}
		out.Runs += r.Runs
		out.Requests += r.Requests
		out.Blocks += r.Blocks
		out.OK += r.OK
		out.CacheHits += r.CacheHits
		out.Coalesced += r.Coalesced
		out.Shed += r.Shed
		out.Timeouts += r.Timeouts
		out.HardFailures += r.HardFailures
		out.Injected += r.Injected
		out.Poisoned += r.Poisoned
		out.WatchdogKills += r.WatchdogKills
		out.WatchdogLeaks += r.WatchdogLeaks
		out.BreakerTrips += r.BreakerTrips
		out.BreakerFastFails += r.BreakerFastFails
		out.IdentityViolations += r.IdentityViolations
		// Executions sum across repetitions like every counter; the
		// topology and pool cardinality describe one run, so they merge
		// by max (equal across repetitions of the same scenario).
		out.LeaderExecs += r.LeaderExecs
		out.Shards = max(out.Shards, r.Shards)
		out.DistinctSources = max(out.DistinctSources, r.DistinctSources)
		for k, v := range r.Taxonomy {
			out.Taxonomy[k] += v
		}
		out.Latencies = append(out.Latencies, r.Latencies...)
		durations += r.DurationMS
	}
	out.DurationMS = durations / float64(len(runs))
	out.finalize()
	return out, nil
}

// WriteSummary prints the human-readable form of a report, as vcslo
// and vcload show it.
func (r *Report) WriteSummary(w io.Writer) {
	rate := func(n int) float64 {
		if r.Blocks == 0 {
			return 0
		}
		return 100 * float64(n) / float64(r.Blocks)
	}
	fmt.Fprintf(w, "%s: %d requests, %d blocks (%d runs, %.1fms)\n",
		r.Scenario, r.Requests, r.Blocks, r.Runs, r.DurationMS)
	fmt.Fprintf(w, "  ok %d (%.1f%%)  hard-failures %d  shed %d (%.1f%%)  timeouts %d\n",
		r.OK, rate(r.OK), r.HardFailures, r.Shed, rate(r.Shed), r.Timeouts)
	fmt.Fprintf(w, "  cache-hits %d (%.1f%%)  coalesced %d (%.1f%%)\n",
		r.CacheHits, rate(r.CacheHits), r.Coalesced, rate(r.Coalesced))
	if r.Injected+r.Poisoned+r.WatchdogKills+r.BreakerTrips+r.IdentityViolations > 0 {
		fmt.Fprintf(w, "  chaos: injected %d  poisoned %d  watchdog-kills %d (leaks %d)  breaker-trips %d (fast-fails %d)  identity-violations %d\n",
			r.Injected, r.Poisoned, r.WatchdogKills, r.WatchdogLeaks, r.BreakerTrips, r.BreakerFastFails, r.IdentityViolations)
	}
	if r.Shards > 0 {
		fmt.Fprintf(w, "  fleet: %d shards  leader-execs %d  distinct-sources %d\n",
			r.Shards, r.LeaderExecs, r.DistinctSources)
	}
	fmt.Fprintf(w, "  latency p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms\n",
		r.P50MS, r.P90MS, r.P99MS, r.MaxMS)
	names := make([]string, 0, len(r.Taxonomy))
	for name := range r.Taxonomy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  taxonomy %-14s %d\n", name, r.Taxonomy[name])
	}
}
