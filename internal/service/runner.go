package service

import (
	"fmt"
	"strings"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// Runner is the seam between the request pipeline and the scheduler
// that actually computes results. The pipeline (fingerprint → cache →
// coalesce → admit → worker) is identical for every Runner; only the
// work a worker performs once a job reaches it differs.
//
// The production Runner is the resilient degradation ladder (the
// default when Config.Runner is nil). Synthetic backends — such as the
// hollow recorded-cost runner in internal/hollow, borrowed from
// kubemark's hollow-node idea — implement the same interface so load
// harnesses can exercise the pipeline at very high request counts
// without burning scheduler CPU.
//
// Contract:
//
//   - remaining is the request's outstanding wall-clock budget when the
//     worker picked it up; a Runner must not compute past it. One still
//     running watchdogGrace past it is declared wedged, and its result
//     is dropped (see watchdog.go).
//   - The returned Result must be deterministic per fingerprint for
//     every outcome that reports cacheable == true: a cache hit replays
//     those exact bytes, so warm must equal cold.
//   - cacheable must be false for failures and for any success shaped
//     by the wall clock rather than the request's content.
//   - Run is called from multiple worker goroutines concurrently and
//     must be safe for that. Panics are recovered by the worker and
//     turned into hard-failure results; a Runner does not need its own
//     recovery.
type Runner interface {
	Run(req *Request, fp string, remaining time.Duration) (res Result, cacheable bool)
}

// ladderRunner is the production Runner: the internal/resilient
// degradation ladder with the request's step budget, the pins of its
// seed and its remaining deadline mapped onto core.Options.Timeout
// (which core wires into deduce.Budget.SetDeadline, so the deadline
// interrupts propagation runs deep inside the DP). Parallelism lives
// in the pool: each worker runs one search at a time.
type ladderRunner struct{}

func (ladderRunner) Run(req *Request, fp string, remaining time.Duration) (Result, bool) {
	opts := resilient.Options{Core: core.Options{
		MaxSteps: req.MaxSteps,
		Pins:     workload.PinsFor(req.SB, req.Machine.Clusters, req.PinSeed),
		Timeout:  remaining,
	}}
	schedule, out, err := resilient.Schedule(req.SB, req.Machine, opts)
	if err != nil {
		return Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Tier:        out.Tier.String(),
			Err:         err.Error(),
			Taxonomy:    resilient.Taxonomy(err),
			HardFailure: true,
		}, false
	}

	var text strings.Builder
	if werr := schedule.WriteText(&text); werr != nil {
		return Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Err:         fmt.Sprintf("serializing schedule: %v", werr),
			Taxonomy:    "internal",
			HardFailure: true,
		}, false
	}
	res := Result{
		Block:       req.SB.Name,
		Fingerprint: fp,
		Tier:        out.Tier.String(),
		AWCT:        out.AWCT,
		ExitCycles:  sched.FormatExitCycles(schedule.ExitCycles()),
		Schedule:    text.String(),
		Taxonomy:    "ok",
	}
	return res, !timeoutShaped(out)
}

// timeoutShaped reports whether any ladder attempt died of the wall
// clock. Deterministic demotions (exhaustion, contradictions, panics)
// replay identically on a cold re-run; a timeout does not.
func timeoutShaped(out *resilient.Outcome) bool {
	for _, a := range out.Attempts {
		if a.Err != "" && strings.Contains(a.Err, core.ErrTimeout.Error()) {
			return true
		}
	}
	return false
}
