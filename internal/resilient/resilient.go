// Package resilient wraps the SG scheduler in a supervised per-block
// pipeline with an explicit degradation ladder — the paper's protocol
// (SG search up to a threshold, then CARS) plus a last resort:
//
//	sg     one SG search (core.Schedule, exactly as configured); it
//	       ends at its step budget or at the caller's Timeout;
//	cars   the CARS list scheduler (the paper's own fallback beyond
//	       its thresholds);
//	naive  a single-home serialization that cannot fail for any
//	       schedulable input (see naive.go).
//
// Each block gets exactly one SG search, so the search stops at the
// caller's deadline; only the CARS and naive passes, which do no
// search, run after it.
//
// Every tier's output is re-checked through sched.Validate before it
// is accepted — an invalid schedule demotes to the next tier instead
// of escaping — and every tier runs under panic recovery, so one
// broken block degrades gracefully instead of killing a batch run or
// a portfolio worker pool. The Outcome record says which tier
// produced the schedule, what every earlier attempt died of, and how
// long each took.
//
// With no faults injected and a healthy scheduler, the SG tier succeeds
// and the pipeline's output is bit-identical to calling core.Schedule
// directly: the ladder adds no perturbation to the happy path.
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

// Options configures the pipeline.
type Options struct {
	// Core is handed to the SG scheduler unchanged; its Pins also pin
	// the CARS and naive passes.
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
	AWCT     float64 // of the accepted schedule
	Elapsed  time.Duration
	Attempts []TierAttempt
	SGStats  *core.Stats // stats of the accepted SG run, else nil
}

// String renders a one-line report: tier, AWCT, attempts.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: tier=%s awct=%.3f elapsed=%v", o.Block, o.Tier, o.AWCT, o.Elapsed.Round(time.Microsecond))
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
	// try runs one rung under panic recovery and validates its output.
	// It returns the schedule to accept, or records why the rung failed.
	try := func(tier Tier, run func() (*sched.Schedule, error)) *sched.Schedule {
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
		}
		out.Attempts = append(out.Attempts, att)
		if err != nil {
			return nil
		}
		return s
	}
	// The SG scheduler as configured: one search, bounded by the step
	// budget and the caller's Timeout.
	var sgStats core.Stats
	if s := try(TierSG, func() (*sched.Schedule, error) {
		s, stats, err := core.Schedule(sb, m, opts.Core)
		sgStats = stats
		return s, err
	}); s != nil {
		return accept(TierSG, s, &sgStats)
	}

	// CARS, the paper's fallback.
	if s := try(TierCARS, func() (*sched.Schedule, error) {
		return cars.Schedule(sb, m, opts.Core.Pins)
	}); s != nil {
		return accept(TierCARS, s, nil)
	}

	// The serialization that cannot fail for schedulable inputs.
	if s := try(TierNaive, func() (*sched.Schedule, error) {
		return naiveSchedule(sb, m, opts.Core.Pins)
	}); s != nil {
		return accept(TierNaive, s, nil)
	}

	out.Elapsed = time.Since(start)
	errs := make([]error, 0, len(out.Attempts))
	for _, a := range out.Attempts {
		errs = append(errs, fmt.Errorf("tier %s: %s", a.Tier, a.Err))
	}
	return nil, out, fmt.Errorf("resilient: every tier failed on %q: %w", sb.Name, errors.Join(errs...))
}
