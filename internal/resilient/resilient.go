// Package resilient wraps the SG scheduler in a supervised per-block
// pipeline with an explicit degradation ladder. The paper runs CARS
// only as the fallback past its compile-time thresholds; here CARS,
// which does no search and takes microseconds, runs first and is the
// incumbent the search has to beat:
//
//	cars   the CARS list scheduler; its AWCT becomes the search's
//	       ceiling (core.Options.Ceiling) and its exit cycles the
//	       incumbent its bound probes trust (core.Options.Incumbent);
//	sg     one SG search (core.Schedule as configured, plus that
//	       ceiling); it ends at its step budget, at the caller's
//	       Timeout, or as soon as it cannot beat CARS, and its schedule
//	       is delivered only when its AWCT is strictly below CARS's;
//	naive  a single-home serialization that cannot fail for any
//	       schedulable input (see naive.go), for blocks where CARS and
//	       the search both fail.
//
// If CARS fails, the search runs with no ceiling. Each block gets
// exactly one SG search, so the search stops at the caller's deadline.
//
// Every tier's output is re-checked through sched.Validate before it
// is accepted — an invalid schedule demotes to the next tier instead
// of escaping — and every tier runs under panic recovery, so one
// broken block degrades gracefully instead of killing a batch run or
// a service worker pool. The Outcome record says which tier
// produced the schedule, why CARS was kept when it was, what every
// attempt died of, and how long each took.
//
// With no faults injected, a schedule the ladder delivers from the sg
// tier is bit-identical to calling core.Schedule directly with no
// ceiling, where that search finishes within its budget: the ceiling
// only ends the search early, and the incumbent only spares it bound
// probes, so neither changes what it finds below the ceiling. The
// spared steps can let the ladder's search finish where the free one
// runs out of budget; given the steps it needs, the free search
// delivers the same schedule. The ladder delivers the sg tier exactly
// when its search's schedule beats CARS.
package resilient

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// Tier identifies one rung of the degradation ladder.
type Tier uint8

const (
	// TierNone: no tier produced a schedule (hard failure).
	TierNone Tier = iota
	// TierSG: the SG scheduler.
	TierSG
	// TierRetry is never produced. It named a removed rung that re-ran
	// the SG search on a decayed budget; the constant keeps its value
	// and name so tier-indexed tables keep their layout.
	TierRetry
	// TierCARS: the CARS list-scheduling baseline.
	TierCARS
	// TierNaive: the last-resort serialization.
	TierNaive
)

func (t Tier) String() string {
	switch t {
	case TierNone:
		return "none"
	case TierSG:
		return "sg"
	case TierRetry:
		return "sg-retry"
	case TierCARS:
		return "cars"
	case TierNaive:
		return "naive"
	}
	return "unknown"
}

// Reason says why the ladder delivered CARS's schedule.
type Reason uint8

const (
	// ReasonNone: CARS's schedule was not delivered.
	ReasonNone Reason = iota
	// ReasonAtBound: a lower bound already reached CARS's AWCT, so the
	// search tried no exit vector; CARS's schedule is optimal.
	ReasonAtBound
	// ReasonAtCeiling: the search tried exit vectors and reached CARS's
	// AWCT without a schedule below it.
	ReasonAtCeiling
	// ReasonExhausted: the step budget or the AWCT enumeration ran out.
	ReasonExhausted
	// ReasonTimeout: the caller's deadline passed during the search.
	ReasonTimeout
	// ReasonSGError: the search panicked, failed on an internal error,
	// or returned an invalid schedule.
	ReasonSGError
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonAtBound:
		return "at-bound"
	case ReasonAtCeiling:
		return "at-ceiling"
	case ReasonExhausted:
		return "exhausted"
	case ReasonTimeout:
		return "timeout"
	case ReasonSGError:
		return "sg-error"
	}
	return "unknown"
}

// reasonOf classifies why a search under CARS's ceiling did not
// deliver: err is its error (nil only if it returned a schedule that
// does not beat CARS, which the ceiling rules out).
func reasonOf(err error, stats *core.Stats) Reason {
	switch {
	case errors.Is(err, core.ErrNoBetter):
		if stats.AWCTTried == 0 {
			return ReasonAtBound
		}
		return ReasonAtCeiling
	case errors.Is(err, core.ErrTimeout):
		return ReasonTimeout
	case errors.Is(err, core.ErrExhausted):
		return ReasonExhausted
	}
	return ReasonSGError
}

// Options configures the pipeline.
type Options struct {
	// Core is handed to the SG scheduler, with Ceiling set to CARS's
	// AWCT and Incumbent to its exit vector (0 and nil when CARS
	// fails); its Pins also pin the CARS and naive passes.
	Core core.Options
}

// TierAttempt records one rung's try at a block.
type TierAttempt struct {
	Tier    Tier
	Err     string        // error chain; "" on success
	Panic   bool          // the attempt died of a recovered panic
	Elapsed time.Duration // wall time of the attempt
}

// Outcome is the per-block record the pipeline emits.
type Outcome struct {
	Block    string
	Tier     Tier    // tier that produced the schedule; TierNone = hard failure
	Reason   Reason  // why CARS was delivered; ReasonNone unless Tier == TierCARS
	AWCT     float64 // of the accepted schedule
	Elapsed  time.Duration
	Attempts []TierAttempt
	SGStats  *core.Stats // stats of the accepted SG run, else nil
}

// String renders a one-line report: tier (with the reason when it is
// CARS), AWCT, then one line per failed attempt.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: tier=%s", o.Block, o.Tier)
	if o.Reason != ReasonNone {
		fmt.Fprintf(&b, " reason=%s", o.Reason)
	}
	fmt.Fprintf(&b, " awct=%.3f elapsed=%v", o.AWCT, o.Elapsed.Round(time.Microsecond))
	for _, a := range o.Attempts {
		if a.Err != "" {
			fmt.Fprintf(&b, "\n  %s: %s", a.Tier, a.Err)
		}
	}
	return b.String()
}

// Schedule runs the degradation ladder on one block. The error is
// non-nil only when every tier failed — possible only for inputs that
// have no schedule at all (or whose pins are broken); the Outcome then
// has Tier == TierNone and one attempt record per rung tried.
func Schedule(sb *ir.Superblock, m *machine.Config, opts Options) (*sched.Schedule, *Outcome, error) {
	start := time.Now()
	out := &Outcome{Block: sb.Name, Tier: TierNone}

	accept := func(tier Tier, s *sched.Schedule, stats *core.Stats) (*sched.Schedule, *Outcome, error) {
		out.Tier = tier
		out.AWCT = s.AWCT()
		out.SGStats = stats
		out.Elapsed = time.Since(start)
		return s, out, nil
	}
	// failed holds each failed rung's error, tier-prefixed, in ladder
	// order: a hard failure joins them, so errors.Is/As (and Taxonomy)
	// reach every rung's cause.
	var failed []error
	// try runs one rung under panic recovery and validates its output.
	// It returns the schedule to accept, or nil and why the rung failed.
	try := func(tier Tier, run func() (*sched.Schedule, error)) (*sched.Schedule, error) {
		att := TierAttempt{Tier: tier}
		t0 := time.Now()
		s, err := func() (s *sched.Schedule, err error) {
			defer func() {
				if r := recover(); r != nil {
					s = nil
					err = &core.PanicError{Stage: "resilient:" + tier.String(), Value: r, Stack: debug.Stack()}
				}
			}()
			return run()
		}()
		if err == nil && s != nil {
			if verr := s.Validate(); verr != nil {
				err = fmt.Errorf("%w: tier %s produced an invalid schedule: %v", core.ErrInternal, tier, verr)
				s = nil
			}
		}
		att.Elapsed = time.Since(t0)
		if err != nil {
			att.Err = err.Error()
			var pe *core.PanicError
			att.Panic = errors.As(err, &pe)
			failed = append(failed, fmt.Errorf("tier %s: %w", tier, err))
		}
		out.Attempts = append(out.Attempts, att)
		return s, err
	}
	// CARS, the incumbent.
	carsSched, _ := try(TierCARS, func() (*sched.Schedule, error) {
		return cars.Schedule(sb, m, opts.Core.Pins)
	})

	// One SG search, bounded by the step budget and the caller's
	// Timeout, that stops as soon as it cannot beat CARS, and whose
	// bound probes take CARS's exit cycles as proof.
	copts := opts.Core
	copts.Ceiling, copts.Incumbent = 0, nil
	if carsSched != nil {
		copts.Ceiling = carsSched.AWCT()
		copts.Incumbent = carsSched.ExitVector()
	}
	var sgStats core.Stats
	s, err := try(TierSG, func() (*sched.Schedule, error) {
		s, stats, err := core.Schedule(sb, m, copts)
		sgStats = stats
		return s, err
	})
	if s != nil && (carsSched == nil || s.AWCT() < carsSched.AWCT()) {
		return accept(TierSG, s, &sgStats)
	}
	if carsSched != nil {
		out.Reason = reasonOf(err, &sgStats)
		return accept(TierCARS, carsSched, nil)
	}

	// The serialization that cannot fail for schedulable inputs.
	if s, _ := try(TierNaive, func() (*sched.Schedule, error) {
		return naiveSchedule(sb, m, opts.Core.Pins)
	}); s != nil {
		return accept(TierNaive, s, nil)
	}

	out.Elapsed = time.Since(start)
	return nil, out, fmt.Errorf("resilient: every tier failed on %q: %w", sb.Name, errors.Join(failed...))
}
