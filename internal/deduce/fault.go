package deduce

import (
	"fmt"

	"vcsched/internal/faultpoint"
)

// injectFault consults the fault-injection registry for point and, when
// a fault fires, translates it into the domain error the surrounding
// deduction code produces naturally: KindContra becomes a contradiction
// (marked with faultpoint.Injected, so it refutes nothing), KindStarve a
// budget exhaustion, KindSleep a real-time stall (for deadline races).
// KindPanic never reaches this function — Fire panics itself with a
// faultpoint.PanicValue. With the registry disarmed (the production
// default) this is a single atomic load.
func injectFault(point string) error {
	f, ok := faultpoint.Fire(point)
	if !ok {
		return nil
	}
	switch f.Kind {
	case faultpoint.KindContra:
		return faultpoint.Injected(contraf("injected contradiction (faultpoint %s)", point))
	case faultpoint.KindStarve:
		return fmt.Errorf("%w: injected starvation (faultpoint %s)", ErrBudget, point)
	case faultpoint.KindSleep:
		faultpoint.Sleep(f.SleepDuration())
	}
	return nil
}
