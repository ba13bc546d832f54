// Package bench is the experiment harness: it schedules whole synthetic
// benchmark corpora with both the virtual-cluster scheduler and the CARS
// baseline and regenerates the paper's evaluation figures:
//
//   - Figure 10 — fraction of superblocks compiled within each
//     compilation-time threshold, per machine, per scheduler;
//   - Figure 11 — speed-up of the virtual-cluster scheduler over CARS
//     per benchmark, per machine, for two thresholds;
//   - Figure 12 — speed-ups when the profile input differs from the
//     execution input (three benchmarks, the middle threshold).
//
// The wall-clock thresholds are scaled from the paper's 1 s / 1 min /
// 4 min on a 1.2 GHz UltraSparc-IIIi to this implementation's speed (see
// DESIGN.md); the fallback policy is the paper's: any block the VC
// scheduler cannot finish within the threshold keeps its CARS schedule.
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// DefaultThresholds are the scaled analogues of the paper's 1 s, 1 min
// and 4 min compilation-time thresholds.
var DefaultThresholds = []time.Duration{100 * time.Millisecond, 1 * time.Second, 3 * time.Second}

// Config controls a harness run.
type Config struct {
	Scale      float64 // corpus scale factor (1.0 = full, default)
	Seed       int64   // live-in/live-out pin seed
	Thresholds []time.Duration
	Machines   []*machine.Config
	Apps       []workload.AppProfile
	Workers    int // parallel scheduling workers (default: NumCPU)
	// Parallelism is passed through to core.Options.Parallelism: the
	// number of portfolio workers *within* one block's VC search
	// (default 1 = the serial driver). Schedules are identical either
	// way; only VCTime changes.
	Parallelism int
	// Resilient routes the VC side of every block through the
	// degradation ladder (internal/resilient): the block always ends
	// with a Validate-clean schedule and an Outcome naming the tier
	// that produced it, even when the SG search dies or panics.
	Resilient bool
	Verbose   bool // progress to stdout
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Thresholds) == 0 {
		c.Thresholds = DefaultThresholds
	}
	if len(c.Machines) == 0 {
		c.Machines = machine.EvaluationConfigs()
	}
	if len(c.Apps) == 0 {
		c.Apps = workload.Benchmarks()
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// BlockResult holds both schedulers' outcomes for one superblock on one
// machine.
type BlockResult struct {
	App       string
	Block     string
	N         int
	ExecCount int64

	// Err records a baseline failure (CARS errored or produced an
	// invalid schedule): the block has no usable result and is skipped
	// by every aggregate. One bad input degrades that block, not the
	// whole sweep.
	Err string

	VCOK    bool          // the VC scheduler produced a valid schedule
	VCErr   string        // why the VC scheduler failed (timeout, exhaustion, invalid schedule)
	VCTime  time.Duration // wall-clock VC scheduling time
	VCAWCT  float64       // valid when VCOK
	VCExits map[int]int   // exit cycles of the VC schedule (for Fig. 12)

	// Outcome is the resilient pipeline's per-block record (tier used,
	// tier-2 retries, error chain per attempt); nil unless
	// Config.Resilient was set.
	Outcome *resilient.Outcome

	CARSAWCT  float64
	CARSTime  time.Duration
	CARSExits map[int]int
}

// Skipped reports whether the block has no usable baseline result and
// is excluded from every aggregate.
func (r BlockResult) Skipped() bool { return r.Err != "" }

// UseVC reports whether, under the given threshold, the block runs the
// VC schedule (the paper's fallback policy).
func (r BlockResult) UseVC(threshold time.Duration) bool {
	return !r.Skipped() && r.VCOK && r.VCTime <= threshold
}

// AWCT returns the block's effective AWCT under the threshold policy.
func (r BlockResult) AWCT(threshold time.Duration) float64 {
	if r.UseVC(threshold) {
		return r.VCAWCT
	}
	return r.CARSAWCT
}

// AppResult groups the block results of one application on one machine.
type AppResult struct {
	App     string
	Suite   workload.Suite
	Machine string
	Blocks  []BlockResult
}

// TC computes the application's total cycles (Σ AWCT·execcount, the
// paper's §2 metric) under the threshold policy. Skipped blocks do not
// contribute.
func (a AppResult) TC(threshold time.Duration) float64 {
	var tc float64
	for _, b := range a.Blocks {
		if b.Skipped() {
			continue
		}
		tc += b.AWCT(threshold) * float64(b.ExecCount)
	}
	return tc
}

// TCBaseline computes the pure-CARS total cycles over the non-skipped
// blocks.
func (a AppResult) TCBaseline() float64 {
	var tc float64
	for _, b := range a.Blocks {
		if b.Skipped() {
			continue
		}
		tc += b.CARSAWCT * float64(b.ExecCount)
	}
	return tc
}

// SkippedBlocks returns the blocks recorded as skipped, for reporting.
func (a AppResult) SkippedBlocks() []BlockResult {
	var out []BlockResult
	for _, b := range a.Blocks {
		if b.Skipped() {
			out = append(out, b)
		}
	}
	return out
}

// Speedup is the paper's headline metric: CARS cycles over VC cycles
// under the threshold policy.
func (a AppResult) Speedup(threshold time.Duration) float64 {
	return a.TCBaseline() / a.TC(threshold)
}

// RunApp schedules one generated application on one machine with both
// schedulers.
func RunApp(app *workload.App, m *machine.Config, cfg Config) AppResult {
	cfg = cfg.withDefaults()
	res := AppResult{App: app.Profile.Name, Suite: app.Profile.Suite, Machine: m.Name, Blocks: make([]BlockResult, len(app.Blocks))}
	maxT := cfg.Thresholds[len(cfg.Thresholds)-1]

	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for i, sb := range app.Blocks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, sb *ir.Superblock) {
			defer wg.Done()
			defer func() { <-sem }()
			// A panic escaping a block's schedulers must not kill the
			// whole sweep's worker pool: record it as the block's error.
			defer func() {
				if r := recover(); r != nil {
					res.Blocks[i] = BlockResult{
						App: app.Profile.Name, Block: sb.Name, N: sb.N(), ExecCount: sb.ExecCount,
						Err: fmt.Sprintf("panic while scheduling: %v", r),
					}
				}
			}()
			br := runBlock(sb, m, cfg, maxT)
			br.App = app.Profile.Name
			res.Blocks[i] = br
		}(i, sb)
	}
	wg.Wait()
	return res
}

func runBlock(sb *ir.Superblock, m *machine.Config, cfg Config, timeout time.Duration) BlockResult {
	pins := workload.PinsFor(sb, m.Clusters, cfg.Seed)
	r := BlockResult{Block: sb.Name, N: sb.N(), ExecCount: sb.ExecCount}

	// A CARS failure (or an invalid CARS schedule) leaves the block
	// without a baseline: record the error and skip it rather than
	// killing the whole sweep.
	start := time.Now()
	cs, err := cars.Schedule(sb, m, pins)
	r.CARSTime = time.Since(start)
	if err != nil {
		r.Err = fmt.Sprintf("CARS failed: %v", err)
		return r
	}
	if err := cs.Validate(); err != nil {
		r.Err = fmt.Sprintf("CARS schedule invalid: %v", err)
		return r
	}
	r.CARSAWCT = cs.AWCT()
	r.CARSExits = cs.ExitCycles()

	copts := core.Options{Pins: pins, Timeout: timeout, Parallelism: cfg.Parallelism}
	start = time.Now()
	var vs *sched.Schedule
	if cfg.Resilient {
		vs, r.Outcome, err = resilient.Schedule(sb, m, resilient.Options{Core: copts})
	} else {
		vs, _, err = core.Schedule(sb, m, copts)
	}
	r.VCTime = time.Since(start)
	switch {
	case err != nil:
		r.VCErr = err.Error()
	default:
		if verr := vs.Validate(); verr != nil {
			// The block still has its CARS baseline; only the VC side
			// is marked failed.
			r.VCErr = fmt.Sprintf("VC schedule invalid: %v", verr)
			break
		}
		r.VCOK = true
		r.VCAWCT = vs.AWCT()
		r.VCExits = vs.ExitCycles()
	}
	return r
}

// RunAll schedules every configured application on every configured
// machine. Results are indexed [machine][app].
func RunAll(cfg Config) ([][]AppResult, error) {
	cfg = cfg.withDefaults()
	out := make([][]AppResult, len(cfg.Machines))
	for mi, m := range cfg.Machines {
		out[mi] = make([]AppResult, len(cfg.Apps))
		for ai, p := range cfg.Apps {
			app := p.Generate(cfg.Scale, 0)
			if cfg.Verbose {
				fmt.Printf("scheduling %-14s on %-16s (%d blocks)\n", p.Name, m.Name, len(app.Blocks))
			}
			out[mi][ai] = RunApp(app, m, cfg)
		}
	}
	return out, nil
}

// EvalCrossInput recomputes an AppResult's total cycles when the
// schedules (made for the generated input) execute under the alternate
// input's profile: the exit cycles stay, the probabilities and execution
// counts come from the alternate blocks.
func EvalCrossInput(a AppResult, alt *workload.App, threshold time.Duration) (tcVC, tcCARS float64) {
	for i, b := range a.Blocks {
		if b.Skipped() {
			continue
		}
		altSB := alt.Blocks[i]
		var awctVC float64
		if b.UseVC(threshold) {
			awctVC = altSB.AWCT(b.VCExits)
		} else {
			awctVC = altSB.AWCT(b.CARSExits)
		}
		tcVC += awctVC * float64(altSB.ExecCount)
		tcCARS += altSB.AWCT(b.CARSExits) * float64(altSB.ExecCount)
	}
	return tcVC, tcCARS
}

// CompiledWithin returns the fraction of blocks whose scheduler finished
// within the threshold: for the VC scheduler "finished" means a valid
// schedule in time; CARS always produces a schedule, so its fraction is
// the fraction of blocks whose CARS run fit the threshold.
func CompiledWithin(apps []AppResult, threshold time.Duration, vc bool) float64 {
	total, ok := 0, 0
	for _, a := range apps {
		for _, b := range a.Blocks {
			if b.Skipped() {
				continue
			}
			total++
			if vc {
				if b.UseVC(threshold) {
					ok++
				}
			} else if b.CARSTime <= threshold {
				ok++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ok) / float64(total)
}
