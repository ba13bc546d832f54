package core

import (
	"fmt"

	"vcsched/internal/deduce"
	"vcsched/internal/faultpoint"
)

// starveSteps consults the "core.budget" fault point once per Schedule
// call and returns the injected step cap, if any. It fires at Schedule
// entry, so the cap replaces MaxSteps for the whole search: the bound
// probes and every attempt share it.
func starveSteps() (int, bool) {
	f, ok := faultpoint.Fire("core.budget")
	if !ok || f.Kind != faultpoint.KindStarve {
		return 0, false
	}
	n := f.N
	if n <= 0 {
		n = 1
	}
	return n, true
}

// injectStageFault consults a per-stage fault point from inside an
// attempt. KindPanic panics inside Fire (recovered by the attempt
// wrapper into a *PanicError); the other kinds translate to the
// domain errors the stage machinery produces naturally, a
// contradiction marked as injected.
func injectStageFault(point string) error {
	f, ok := faultpoint.Fire(point)
	if !ok {
		return nil
	}
	switch f.Kind {
	case faultpoint.KindContra:
		return faultpoint.Injected(fmt.Errorf("%w: injected contradiction (faultpoint %s)", deduce.ErrContradiction, point))
	case faultpoint.KindStarve:
		return fmt.Errorf("%w: injected starvation (faultpoint %s)", deduce.ErrBudget, point)
	case faultpoint.KindSleep:
		faultpoint.Sleep(f.SleepDuration())
	}
	return nil
}
