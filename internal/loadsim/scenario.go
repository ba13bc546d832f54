package loadsim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

var errNegativeRPS = errors.New("loadsim: rps must be >= 0 (0 = unpaced)")

// Scenario is one declarative load scenario: what traffic to offer the
// scheduling service and how the service under test is sized. The
// checked-in suite under scenarios/ is a set of these serialized as
// JSON; cmd/vcslo replays them and records the measured SLOs in
// BENCH_service.json.
type Scenario struct {
	// Name identifies the scenario in reports and golden documents.
	Name string `json:"name"`
	// Seed drives every random choice (source picks, duplicate
	// pattern, deadline mix), so a scenario is a deterministic request
	// sequence (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Gen is how many distinct generated superblocks join the source
	// pool, each a distinct fingerprint (0 = 8).
	Gen int `json:"gen,omitempty"`
	// Corpus names a directory whose .sb files join the source pool
	// ahead of the generated blocks, every superblock in them one
	// source. A relative path resolves against the working directory.
	Corpus string `json:"corpus,omitempty"`
	// MaxInstrs caps generated block size (0 = 16).
	MaxInstrs int `json:"max_instrs,omitempty"`
	// Machine is the machine.ByKey target ("" = 2c1l).
	Machine string `json:"machine,omitempty"`
	// PinSeed is the live-in/live-out pin seed (0 = 1).
	PinSeed int64 `json:"pin_seed,omitempty"`

	// Stages is the rps ramp: each stage offers Requests submissions
	// at RPS (0 = unpaced). Required unless Overload is set.
	Stages []Stage `json:"stages,omitempty"`
	// DupRate is the fraction of picks that re-submit an earlier
	// source, exercising the cache and singleflight.
	DupRate float64 `json:"dup_rate,omitempty"`
	// Batch is blocks per submission (0 = 1); batches go through
	// SubmitBatch like daemon batch requests.
	Batch int `json:"batch,omitempty"`
	// Concurrency is the number of in-flight submissions (0 = 1).
	// Concurrency 1 runs a fully synchronous loop — with the virtual
	// clock that makes measured latencies exactly reproducible.
	Concurrency int `json:"concurrency,omitempty"`
	// DeadlineMix assigns per-request deadlines by weighted draw;
	// empty = every request uses the service default.
	DeadlineMix []DeadlineBand `json:"deadline_mix,omitempty"`

	// Service sizes the service under test.
	Service ServiceSpec `json:"service"`
	// Hollow swaps the resilient ladder for the recorded-cost hollow
	// runner. Run requires it: the in-process harness runs hollow
	// workers only.
	Hollow *HollowSpec `json:"hollow,omitempty"`
	// VirtualClock runs the scenario on simulated time.
	VirtualClock bool `json:"virtual_clock,omitempty"`
	// Overload switches to the deterministic overload flow: fill the
	// worker pool and admission queue while the hollow gate is held,
	// then offer Extra more requests that must all shed (requires
	// explicit Service.Workers/QueueDepth).
	Overload *OverloadSpec `json:"overload,omitempty"`
	// Faults is the scheduled chaos script: faultpoint arms bound to
	// virtual-time windows (requires VirtualClock and Concurrency 1 —
	// see chaos.go). A scenario with faults also runs the chaos
	// invariant checks: watchdog leaks and goroutine count must settle
	// to the baseline after the drain.
	Faults []FaultWindow `json:"faults,omitempty"`
	// Fleet shards the scenario across N service replicas behind the
	// real internal/router, all in process (see fleet.go). nil runs the
	// single service the other scenarios use.
	Fleet *FleetSpec `json:"fleet,omitempty"`
}

// Stage is one rung of the rps ramp.
type Stage struct {
	RPS      float64 `json:"rps"`
	Requests int     `json:"requests"`
}

// DeadlineBand is one entry of the deadline mix.
type DeadlineBand struct {
	MS     int64   `json:"ms"`
	Weight float64 `json:"weight"`
}

// ServiceSpec sizes the service under test; zero values keep the
// service.Config defaults.
type ServiceSpec struct {
	Workers           int   `json:"workers,omitempty"`
	QueueDepth        int   `json:"queue_depth,omitempty"`
	CacheEntries      int   `json:"cache_entries,omitempty"`
	DefaultDeadlineMS int64 `json:"default_deadline_ms,omitempty"`
}

// HollowSpec configures the hollow runner's recorded costs.
type HollowSpec struct {
	CostMinMS float64 `json:"cost_min_ms"`
	CostMaxMS float64 `json:"cost_max_ms"`
	// Poison lists source-pool indices whose executions hard-fail with
	// an injected-poison error: the deterministic bait for the circuit
	// breaker. Poison failures count as injected, not escaped, in the
	// report.
	Poison []int `json:"poison,omitempty"`
}

// FleetSpec configures fleet mode: the offered load goes through
// internal/router, which sends every fingerprint to its consistent-
// hash home among Shards identical service replicas (each sized by
// ServiceSpec, all sharing one hollow runner and one clock) with
// router-side coalescing, so the fleet-wide cache is a partition.
type FleetSpec struct {
	// Shards is the replica count (>= 1; 1 = the single-service
	// topology expressed through the fleet path, the baseline the
	// sharded runs are compared against).
	Shards int `json:"shards"`
	// ExactOnce makes the run fail if any fingerprint executed more
	// than once across the whole fleet — the partition-correctness
	// invariant of hash routing.
	ExactOnce bool `json:"exact_once,omitempty"`
}

// OverloadSpec configures the deterministic overload flow.
type OverloadSpec struct {
	// Extra is how many requests beyond workers+queue capacity are
	// offered; every one of them must shed.
	Extra int `json:"extra"`
}

// withDefaults fills the zero-value knobs.
func (sc Scenario) withDefaults() Scenario {
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Gen == 0 {
		sc.Gen = 8
	}
	if sc.MaxInstrs == 0 {
		sc.MaxInstrs = 16
	}
	if sc.Machine == "" {
		sc.Machine = "2c1l"
	}
	if sc.PinSeed == 0 {
		sc.PinSeed = 1
	}
	if sc.Batch == 0 {
		sc.Batch = 1
	}
	if sc.Concurrency == 0 {
		sc.Concurrency = 1
	}
	return sc
}

// Validate rejects scenarios the runner cannot execute. It validates
// the defaulted form, so a zero knob never fails.
func (sc Scenario) Validate() error {
	d := sc.withDefaults()
	if d.Name == "" {
		return fmt.Errorf("loadsim: scenario has no name")
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("loadsim: scenario %s: %s", d.Name, fmt.Sprintf(format, args...))
	}
	if d.Gen < 1 {
		return fail("gen must be >= 1 (the source pool cannot be empty)")
	}
	if d.DupRate < 0 || d.DupRate > 1 {
		return fail("dup_rate %v outside [0, 1]", d.DupRate)
	}
	if d.Batch < 1 {
		return fail("batch must be >= 1")
	}
	if d.Concurrency < 1 {
		return fail("concurrency must be >= 1")
	}
	for i, st := range d.Stages {
		if _, err := PacingInterval(st.RPS); err != nil {
			return fail("stages[%d]: %v", i, err)
		}
		if st.Requests < 1 {
			return fail("stages[%d]: requests must be >= 1", i)
		}
	}
	for i, b := range d.DeadlineMix {
		if b.MS <= 0 {
			return fail("deadline_mix[%d]: ms must be > 0", i)
		}
		if b.Weight <= 0 {
			return fail("deadline_mix[%d]: weight must be > 0", i)
		}
	}
	if d.Hollow != nil {
		if d.Hollow.CostMinMS < 0 {
			return fail("hollow.cost_min_ms must be >= 0")
		}
		if d.Hollow.CostMaxMS < d.Hollow.CostMinMS {
			return fail("hollow.cost_max_ms below cost_min_ms")
		}
	}
	if d.Hollow != nil {
		for i, p := range d.Hollow.Poison {
			if p < 0 || p >= d.Gen {
				return fail("hollow.poison[%d] = %d outside the source pool [0, %d)", i, p, d.Gen)
			}
		}
	}
	if len(d.Faults) > 0 {
		if !d.VirtualClock {
			return fail("faults require virtual_clock (the chaos schedule is bound to virtual time)")
		}
		if d.Concurrency != 1 {
			return fail("faults require concurrency 1 (the synchronous loop is what makes the schedule deterministic)")
		}
		if d.Overload != nil {
			return fail("faults and overload cannot be combined")
		}
		if err := validateFaults(d.Faults); err != nil {
			return fail("%v", err)
		}
	}
	if d.Fleet != nil {
		if d.Fleet.Shards < 1 {
			return fail("fleet.shards must be >= 1")
		}
		if d.Overload != nil {
			return fail("fleet and overload cannot be combined (overload fills one specific queue)")
		}
		if len(d.Faults) > 0 {
			return fail("fleet and faults cannot be combined (the chaos registry is process-global)")
		}
	}
	if d.Overload != nil {
		if d.Overload.Extra < 1 {
			return fail("overload.extra must be >= 1")
		}
		if d.Service.Workers < 1 || d.Service.QueueDepth < 1 {
			return fail("overload requires explicit service.workers and service.queue_depth (capacity = workers+queue_depth)")
		}
		if need := d.Service.Workers + d.Service.QueueDepth + d.Overload.Extra; d.Gen < need {
			return fail("gen %d below workers+queue_depth+extra = %d (overload needs distinct fingerprints)", d.Gen, need)
		}
	} else if len(d.Stages) == 0 {
		return fail("stages must be non-empty (or set overload)")
	}
	return nil
}

// inProcessFields names the fields set on sc that size or script the
// in-process harness rather than the offered traffic.
func (sc *Scenario) inProcessFields() []string {
	var set []string
	add := func(name string, on bool) {
		if on {
			set = append(set, name)
		}
	}
	add("service", sc.Service != (ServiceSpec{}))
	add("hollow", sc.Hollow != nil)
	add("virtual_clock", sc.VirtualClock)
	add("overload", sc.Overload != nil)
	add("faults", len(sc.Faults) > 0)
	add("fleet", sc.Fleet != nil)
	return set
}

func (b DeadlineBand) duration() time.Duration {
	return time.Duration(b.MS) * time.Millisecond
}

// PacingInterval converts a target request rate into the interval a
// dispatcher sleeps between submissions. 0 disables pacing ("as fast
// as the workers go"); negative rates are a configuration error, not
// an implicit unpaced mode.
func PacingInterval(rps float64) (time.Duration, error) {
	if rps < 0 {
		return 0, errNegativeRPS
	}
	if rps == 0 {
		return 0, nil
	}
	return time.Duration(float64(time.Second) / rps), nil
}

// LoadScenario reads and validates one scenario file. Unknown fields
// are rejected so a typo in a checked-in scenario fails loudly instead
// of silently running the defaults.
func LoadScenario(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sc, nil
}

// LoadSuite reads every *.json scenario under dir, sorted by filename
// so suite order (and the emitted document) is reproducible.
func LoadSuite(dir string) ([]*Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("loadsim: no scenario files (*.json) in %s", dir)
	}
	sort.Strings(paths)
	suite := make([]*Scenario, 0, len(paths))
	seen := make(map[string]string, len(paths))
	for _, p := range paths {
		sc, err := LoadScenario(p)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[sc.Name]; dup {
			return nil, fmt.Errorf("loadsim: scenario name %q in both %s and %s", sc.Name, prev, p)
		}
		seen[sc.Name] = p
		suite = append(suite, sc)
	}
	return suite, nil
}
