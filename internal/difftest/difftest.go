// Package difftest is the differential-testing and metamorphic-testing
// harness of the repository: it runs the virtual-cluster scheduler on a
// superblock and cross-checks the result against every independent
// implementation of "what a correct schedule is" that the codebase has
// grown — the static validator, the lockstep simulator, the exhaustive
// oracle, CARS and the degradation ladder — plus a set of metamorphic
// invariants that must hold for *any* correct
// scheduler (cluster-ID permutation symmetry, exit-probability rescaling,
// baseline-never-beats-oracle).
//
// The paper's six-stage process has many places where a subtly wrong
// deduction still yields a plausible-looking schedule; a single checker
// can share the scheduler's blind spot, but the validator, the simulator
// and the oracle model legality in three unrelated ways, so a bug has to
// fool all of them at once to escape. Package fuzz drivers (Fuzz,
// cmd/vcfuzz) generate random superblocks, run Check on each, and shrink
// any violation to a minimal reproducer (see shrink.go, repro.go).
package difftest

import (
	"bytes"
	"fmt"
	"math"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/oracle"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/sim"
	"vcsched/internal/workload"
)

// eps is the float tolerance for AWCT comparisons: AWCTs are small sums
// of products of cycle counts and milli-precision probabilities.
const eps = 1e-9

// oracleNodeBudget bounds each oracle search. Measured on the corpus
// generator: most blocks up to 8 instructions finish well under it in a
// few milliseconds, while the dense outliers that would otherwise take
// minutes abort deterministically.
const oracleNodeBudget = 300_000

// Violation kinds reported by Check. Stable strings: repro files and the
// shrinking predicate match on them.
const (
	KindValidate     = "validate"      // static validator rejects the VC schedule
	KindSim          = "sim"           // lockstep simulator rejects the VC schedule
	KindSimAWCT      = "sim-awct"      // simulated expectation differs from the AWCT
	KindBound        = "bound"         // schedule beats a proven lower bound
	KindOracle       = "oracle"        // schedule beats the exhaustive optimum
	KindPerm         = "perm"          // cluster-permutation symmetry broken
	KindRescale      = "rescale"       // probability rescaling broke validity
	KindCARSValidate = "cars-validate" // baseline schedule fails the validator
	KindCARSSim      = "cars-sim"      // baseline schedule fails the simulator
	KindCARSOracle   = "cars-oracle"   // baseline beats the exhaustive optimum
	KindCARSBound    = "cars-bound"    // baseline beats a proven lower bound

	KindTrailClone = "trail-clone" // trail-based speculation diverged from the Clone-based oracle
	KindBitsetRef  = "bitset-ref"  // bitset combination sets diverged from the recomputed reference

	KindResilient         = "resilient"          // degradation ladder hard-failed or reported an inconsistent outcome
	KindResilientValidate = "resilient-validate" // resilient schedule fails the validator
	KindResilientOracle   = "resilient-oracle"   // resilient schedule beats the exhaustive optimum
	KindResilientCARS     = "resilient-cars"     // ladder delivered other than the better of CARS and the search
)

// Violation is one cross-check failure.
type Violation struct {
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Options configures one differential check. The zero value selects the
// paper's 2-cluster machine and moderate deterministic search bounds.
type Options struct {
	// Machine to schedule for (default machine.TwoCluster1Lat).
	Machine *machine.Config
	// PinSeed seeds the live-in/live-out cluster assignment (shared by
	// every scheduler in the check, the paper's fairness protocol).
	PinSeed int64
	// MaxSteps bounds the deduction budget (default 20000). Wall-clock
	// timeouts are deliberately not supported: a check, its shrinking
	// and its replay must see the same outcome, so it has to be a pure
	// function of the input.
	MaxSteps int
	// OracleLimit is the largest instruction count cross-checked against
	// the exhaustive oracle (default 8; < 0 disables the oracle checks).
	OracleLimit int
	// CorruptVC, when non-nil, is applied to the VC schedule between
	// scheduling and cross-checking. It exists for fault injection: tests
	// use it to simulate a scheduler bug and assert the harness catches
	// and shrinks it. Must be deterministic.
	CorruptVC func(*sched.Schedule)
}

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = machine.TwoCluster1Lat()
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 20000
	}
	if o.OracleLimit == 0 {
		o.OracleLimit = 8
	}
	return o
}

// Report is the outcome of one differential check.
type Report struct {
	SB         *ir.Superblock
	Opts       Options // resolved options the check ran with
	Pins       sched.Pins
	VC         *sched.Schedule // nil when the scheduler errored
	VCErr      error           // ErrExhausted etc.; not itself a violation
	Violations []Violation
}

// Has reports whether a violation of the given kind was recorded.
func (r *Report) Has(kind string) bool {
	for _, v := range r.Violations {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func (r *Report) violate(kind, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Check schedules the superblock and runs every cross-check that applies.
// A scheduler failure (exhaustion under the step budget) is not a
// violation — both large blocks and adversarial mutants legitimately
// exhaust the search — and leaves only the checks that need no VC
// schedule.
func Check(sb *ir.Superblock, opts Options) *Report {
	opts = opts.withDefaults()
	m := opts.Machine
	pins := workload.PinsFor(sb, m.Clusters, opts.PinSeed)
	rep := &Report{SB: sb, Opts: opts, Pins: pins}

	base := core.Options{Pins: pins, MaxSteps: opts.MaxSteps}
	vc, stats, err := core.Schedule(sb, m, base)
	rep.VC, rep.VCErr = vc, err

	// The baseline checks run regardless of the VC outcome: CARS always
	// succeeds, and its schedule must satisfy validator and simulator,
	// and respect both lower bounds the search's ceiling exits trust.
	cs, cerr := cars.Schedule(sb, m, pins)
	if cerr != nil {
		rep.violate(KindCARSValidate, "cars refused a valid superblock: %v", cerr)
		cs = nil
	}
	if cs != nil {
		if verr := cs.Validate(); verr != nil {
			rep.violate(KindCARSValidate, "%v", verr)
		} else if got, serr := sim.ExpectedCycles(cs); serr != nil {
			rep.violate(KindCARSSim, "%v", serr)
		} else if math.Abs(got-cs.AWCT()) > eps {
			rep.violate(KindCARSSim, "simulated %g vs AWCT %g", got, cs.AWCT())
		}
		if cs.AWCT() < sb.CriticalAWCT()-eps {
			rep.violate(KindCARSBound, "CARS AWCT %g beats dependence bound %g", cs.AWCT(), sb.CriticalAWCT())
		}
		if cs.AWCT() < stats.MinAWCT-eps {
			rep.violate(KindCARSBound, "CARS AWCT %g beats enhanced lower bound %g", cs.AWCT(), stats.MinAWCT)
		}
	}

	// (f) trail vs Clone speculation: independent of the schedule
	// outcome, a random decision script must behave identically under
	// trail undo and under full-state copies, and every committed state
	// must be a fixpoint of a full propagation sweep (see
	// CheckTrailClone).
	// (g) bitset combination sets vs recomputed reference: the word-level
	// incremental maintenance must equal a from-scratch recomputation at
	// every observation point (see CheckBitsetRef).
	// Both drive the deduction engine directly, outside the ladder's
	// panic recovery, and their two universes would consume armed fault
	// counts differently; they run whenever fault injection is disarmed.
	if !faultpoint.Enabled() {
		checkTrailClone(rep)
		checkBitsetRef(rep)
	}

	// (c) exhaustive oracle on tiny blocks: nothing may beat it. The
	// node budget keeps the worst dense blocks from stalling a campaign;
	// exceeding it (like ErrTooLarge, or an empty search window) just
	// disables the oracle comparison for this block — deterministically,
	// so a check and its replay agree on what was checked.
	var opt *sched.Schedule
	if opts.OracleLimit > 0 && sb.N() <= opts.OracleLimit {
		var oerr error
		opt, oerr = oracle.Best(sb, m, pins, oracle.Limits{MaxInstrs: opts.OracleLimit, MaxNodes: oracleNodeBudget})
		if oerr != nil {
			opt = nil
		}
	}
	if opt != nil && cs != nil && cs.AWCT() < opt.AWCT()-eps {
		rep.violate(KindCARSOracle, "CARS AWCT %g beats exhaustive optimum %g", cs.AWCT(), opt.AWCT())
	}

	// (e) degradation ladder: the resilient pipeline (internal/resilient)
	// may fall back to a weaker tier, but whatever it returns must be
	// Validate-clean, consistent with its own Outcome record, never
	// better than the exhaustive optimum and never worse than CARS, and
	// its tier-sg claim must be the serial core result byte for byte.
	rs, rout, rerr := resilient.Schedule(sb, m, resilient.Options{Core: base})
	switch {
	case rerr != nil:
		// CARS succeeding proves the block is schedulable, so a hard
		// failure means a ladder rung swallowed a recoverable input.
		if cs != nil {
			rep.violate(KindResilient, "ladder hard-failed on a CARS-schedulable block: %v", rerr)
		}
	default:
		if verr := rs.Validate(); verr != nil {
			rep.violate(KindResilientValidate, "tier %s: %v", rout.Tier, verr)
		}
		if math.Abs(rout.AWCT-rs.AWCT()) > eps {
			rep.violate(KindResilient, "outcome AWCT %g vs schedule AWCT %g (tier %s)",
				rout.AWCT, rs.AWCT(), rout.Tier)
		}
		if opt != nil && rs.AWCT() < opt.AWCT()-eps {
			rep.violate(KindResilientOracle, "tier %s AWCT %g beats exhaustive optimum %g",
				rout.Tier, rs.AWCT(), opt.AWCT())
		}
		if cs != nil && rs.AWCT() > cs.AWCT()+eps {
			rep.violate(KindResilientCARS, "tier %s AWCT %g is worse than CARS's %g", rout.Tier, rs.AWCT(), cs.AWCT())
		}
		// With no faults armed, the ladder's search repeats the serial
		// core run up to CARS's AWCT, so a serial schedule below CARS
		// must be what the ladder delivers.
		if cs != nil && err == nil && vc.AWCT() < cs.AWCT()-eps && rout.Tier != resilient.TierSG && !faultpoint.Enabled() {
			rep.violate(KindResilientCARS, "tier %s (reason %s) kept AWCT %g, the search finds %g",
				rout.Tier, rout.Reason, rs.AWCT(), vc.AWCT())
		}
		if rout.Tier == resilient.TierSG {
			if err != nil {
				rep.violate(KindResilient, "ladder reports tier sg but serial core failed: %v", err)
			} else {
				var cbuf, rbuf bytes.Buffer
				if werr := vc.WriteText(&cbuf); werr == nil {
					if werr := rs.WriteText(&rbuf); werr != nil {
						rep.violate(KindResilient, "resilient WriteText: %v", werr)
					} else if !bytes.Equal(cbuf.Bytes(), rbuf.Bytes()) {
						rep.violate(KindResilient, "tier-sg schedule differs from serial core:\ncore:\n%sresilient:\n%s",
							cbuf.String(), rbuf.String())
					}
				}
			}
		}
	}

	if err != nil {
		return rep // no VC schedule to cross-check
	}
	if opts.CorruptVC != nil {
		opts.CorruptVC(vc)
	}

	// (a) static validator.
	if verr := vc.Validate(); verr != nil {
		rep.violate(KindValidate, "%v", verr)
	}

	// (b) lockstep simulation over every exit path: the simulated
	// expectation must equal the placement-table AWCT exactly.
	if got, serr := sim.ExpectedCycles(vc); serr != nil {
		rep.violate(KindSim, "%v", serr)
	} else if math.Abs(got-vc.AWCT()) > eps {
		rep.violate(KindSimAWCT, "simulated %g vs AWCT %g", got, vc.AWCT())
	}

	// Proven lower bounds: the dependence-only critical AWCT and the
	// DP-enhanced minAWCT the search itself started from.
	if vc.AWCT() < sb.CriticalAWCT()-eps {
		rep.violate(KindBound, "AWCT %g beats dependence bound %g", vc.AWCT(), sb.CriticalAWCT())
	}
	if vc.AWCT() < stats.MinAWCT-eps {
		rep.violate(KindBound, "AWCT %g beats enhanced lower bound %g", vc.AWCT(), stats.MinAWCT)
	}
	if opt != nil && vc.AWCT() < opt.AWCT()-eps {
		rep.violate(KindOracle, "VC AWCT %g beats exhaustive optimum %g", vc.AWCT(), opt.AWCT())
	}

	checkPermutation(rep, vc)
	checkRescale(rep, vc)
	return rep
}

// checkPermutation verifies cluster-ID symmetry: on a homogeneous
// machine the cluster labels are arbitrary, so relabeling every cluster
// k → (k+1) mod C in the schedule (placements and pins alike) must leave
// it valid, executable and with the same AWCT. A validator or simulator
// that special-cases cluster 0 fails here.
func checkPermutation(rep *Report, vc *sched.Schedule) {
	m := rep.Opts.Machine
	if m.Clusters < 2 || m.Heterogeneous() {
		return
	}
	perm := func(k int) int { return (k + 1) % m.Clusters }
	p := *vc
	p.Place = append([]sched.Placement(nil), vc.Place...)
	for i := range p.Place {
		p.Place[i].Cluster = perm(p.Place[i].Cluster)
	}
	p.Pins = sched.Pins{
		LiveIn:  append([]int(nil), vc.Pins.LiveIn...),
		LiveOut: append([]int(nil), vc.Pins.LiveOut...),
	}
	for i := range p.Pins.LiveIn {
		p.Pins.LiveIn[i] = perm(p.Pins.LiveIn[i])
	}
	for i := range p.Pins.LiveOut {
		p.Pins.LiveOut[i] = perm(p.Pins.LiveOut[i])
	}
	if err := p.Validate(); err != nil {
		rep.violate(KindPerm, "permuted schedule invalid: %v", err)
		return
	}
	if got, err := sim.ExpectedCycles(&p); err != nil {
		rep.violate(KindPerm, "permuted schedule does not execute: %v", err)
	} else if math.Abs(got-vc.AWCT()) > eps {
		rep.violate(KindPerm, "permuted schedule runs in %g cycles, original AWCT %g", got, vc.AWCT())
	}
}

// checkRescale verifies that exit probabilities are profile data, not
// structure: halving every non-final exit probability (the remainder
// flows to the final exit) must leave the schedule's cycle structure
// untouched — the same placements and communications revalidate against
// the rescaled block, and the AWCT recomputes from the same cycles.
func checkRescale(rep *Report, vc *sched.Schedule) {
	sb2 := RescaleProbs(rep.SB, 0.5)
	if sb2 == nil {
		return // single-exit block: the transform is the identity
	}
	if err := sb2.Validate(); err != nil {
		rep.violate(KindRescale, "rescaled block invalid: %v", err)
		return
	}
	t := *vc
	t.SB = sb2
	if err := t.Validate(); err != nil {
		rep.violate(KindRescale, "schedule invalid after probability rescale: %v", err)
		return
	}
	// Same cycles, new weights: the transplanted AWCT must equal the
	// direct weighted sum over the original exit cycles.
	want := sb2.AWCT(vc.ExitCycles())
	if math.Abs(t.AWCT()-want) > eps {
		rep.violate(KindRescale, "transplanted AWCT %g, recomputed %g", t.AWCT(), want)
	}
}

// RescaleProbs returns a copy of the superblock with every non-final
// exit probability multiplied by alpha in (0,1] and the freed mass moved
// to the final exit. Returns nil when the block has a single exit (the
// transform would be the identity).
func RescaleProbs(sb *ir.Superblock, alpha float64) *ir.Superblock {
	exits := sb.Exits()
	if len(exits) < 2 || alpha <= 0 || alpha > 1 {
		return nil
	}
	cp := sb.Clone()
	sum := 0.0
	for _, x := range exits[:len(exits)-1] {
		cp.Instrs[x].Prob *= alpha
		sum += cp.Instrs[x].Prob
	}
	cp.Instrs[exits[len(exits)-1]].Prob = 1 - sum
	return cp
}
