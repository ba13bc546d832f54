// Package resilient wraps the SG scheduler in a supervised per-block
// pipeline with an explicit degradation ladder:
//
//	tier 1  full SG scheduler (core.Schedule, exactly as configured);
//	tier 2  SG retries with perturbed decision orders (VariantOffset)
//	        and geometrically decayed step budget and timeout, taken
//	        only when tier 1 died of exhaustion or timeout;
//	tier 3  the CARS list scheduler (the paper's own fallback beyond
//	        its thresholds);
//	tier 4  a naive single-home serialization that cannot fail for any
//	        schedulable input (see naive.go).
//
// Every tier's output is re-checked through sched.Validate before it
// is accepted — an invalid schedule demotes to the next tier instead
// of escaping — and every tier runs under panic recovery, so one
// broken block degrades gracefully instead of killing a batch run or
// a portfolio worker pool. The Outcome record says which tier
// produced the schedule, what every earlier attempt died of, and how
// long each took.
//
// With no faults injected and a healthy scheduler, tier 1 succeeds
// and the pipeline's output is bit-identical to calling core.Schedule
// directly: the ladder adds no perturbation to the happy path.
package resilient

import (
	"errors"
	"fmt"
	"math"
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
	// TierSG: the full SG scheduler, first try.
	TierSG
	// TierRetry: an SG retry with perturbed orders and decayed budget.
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
	// Core is handed to the SG scheduler unchanged for tier 1; tier-2
	// retries derive decayed copies from it.
	Core core.Options
	// Retries is the number of tier-2 attempts (0 = default 2; < 0
	// disables tier 2).
	Retries int
	// Decay multiplies the step budget and timeout per tier-2 attempt
	// (0 = default 0.5; clamped to (0,1]).
	Decay float64
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Decay <= 0 {
		o.Decay = 0.5
	} else if o.Decay > 1 {
		o.Decay = 1
	}
	return o
}

// TierAttempt records one rung's try at a block.
type TierAttempt struct {
	Tier    Tier
	Variant int           // VariantOffset used (tier 2 only)
	Err     string        // error chain; "" on success
	Panic   bool          // the attempt died of a recovered panic
	Elapsed time.Duration // wall time of the attempt
}

// Outcome is the per-block record the pipeline emits.
type Outcome struct {
	Block    string
	Tier     Tier    // tier that produced the schedule; TierNone = hard failure
	AWCT     float64 // of the accepted schedule
	Retries  int     // tier-2 attempts made
	Elapsed  time.Duration
	Attempts []TierAttempt
	SGStats  *core.Stats // stats of the accepted SG run (tiers 1–2), else nil
}

// String renders a one-line report: tier, AWCT, attempts.
func (o *Outcome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: tier=%s awct=%.3f retries=%d elapsed=%v", o.Block, o.Tier, o.AWCT, o.Retries, o.Elapsed.Round(time.Microsecond))
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
	opts = opts.withDefaults()
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
	// It returns the schedule to accept, or records why the rung failed
	// (the live error value stays in lastErr for the retry decision).
	var lastErr error
	try := func(tier Tier, variant int, run func() (*sched.Schedule, error)) *sched.Schedule {
		att := TierAttempt{Tier: tier, Variant: variant}
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
		lastErr = err
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
	retryable := func() bool {
		return errors.Is(lastErr, core.ErrExhausted) || errors.Is(lastErr, core.ErrTimeout)
	}

	// Tier 1: the SG scheduler as configured.
	var sgStats core.Stats
	if s := try(TierSG, 0, func() (*sched.Schedule, error) {
		s, stats, err := core.Schedule(sb, m, opts.Core)
		sgStats = stats
		return s, err
	}); s != nil {
		return accept(TierSG, s, &sgStats)
	}

	// Tier 2: perturbed orders, decayed budget — only when the search
	// gave out (exhaustion/timeout); contradictory or internally broken
	// runs go straight to CARS.
	if retryable() {
		baseRetries := opts.Core.Retries
		if baseRetries == 0 {
			baseRetries = 3
		} else if baseRetries < 1 {
			baseRetries = 1
		}
		for i := 1; i <= opts.Retries; i++ {
			c := opts.Core
			c.VariantOffset = opts.Core.VariantOffset + baseRetries*i
			decay := math.Pow(opts.Decay, float64(i))
			steps := c.MaxSteps
			if steps == 0 {
				steps = 400000
			}
			if steps > 0 {
				if steps = int(float64(steps) * decay); steps < 1000 {
					steps = 1000
				}
				c.MaxSteps = steps
			}
			if c.Timeout > 0 {
				if c.Timeout = time.Duration(float64(c.Timeout) * decay); c.Timeout < time.Millisecond {
					c.Timeout = time.Millisecond
				}
			}
			out.Retries++
			var rStats core.Stats
			if s := try(TierRetry, c.VariantOffset, func() (*sched.Schedule, error) {
				s, stats, err := core.Schedule(sb, m, c)
				rStats = stats
				return s, err
			}); s != nil {
				return accept(TierRetry, s, &rStats)
			}
			if !retryable() {
				break
			}
		}
	}

	// Tier 3: CARS.
	if s := try(TierCARS, 0, func() (*sched.Schedule, error) {
		return cars.Schedule(sb, m, opts.Core.Pins)
	}); s != nil {
		return accept(TierCARS, s, nil)
	}

	// Tier 4: the serialization that cannot fail for schedulable inputs.
	if s := try(TierNaive, 0, func() (*sched.Schedule, error) {
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
