package core

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrInternal marks failures caused by broken invariants inside the
// scheduler rather than by the input: recovered panics and violated
// id-space assumptions. Callers treat it like any other hard error —
// no schedule — but it signals a bug worth reporting, not an
// infeasible block.
var ErrInternal = errors.New("core: internal error")

// PanicError is a panic recovered inside the scheduling pipeline,
// converted into a structured error so one broken block cannot take
// down a whole compilation (or a service's worker pool). It records
// where the panic happened (Stage), which exit-cycle vector was under
// attempt (nil outside attempts), the recovered value, and the stack
// at recovery.
//
// Error() deliberately excludes the stack: error strings feed golden
// digests, cached service results and difftest's comparisons, and must
// stay deterministic. The stack is available via the Stack
// field for reports and logs.
type PanicError struct {
	Stage  string // pipeline stage: "setup", "min-awct", "shave", "restore", a stage name, "extract"
	Vector []int  // exit-cycle vector under attempt, nil outside attempts
	Value  any    // recovered panic value
	Stack  []byte // stack trace captured at recovery; not part of Error()
}

func (e *PanicError) Error() string {
	if len(e.Vector) > 0 {
		return fmt.Sprintf("core: panic in stage %q (vector %v): %v", e.Stage, e.Vector, e.Value)
	}
	return fmt.Sprintf("core: panic in stage %q: %v", e.Stage, e.Value)
}

func (e *PanicError) Unwrap() error { return ErrInternal }

// recoverToError converts an in-flight panic into a *PanicError on
// *errp, for use in deferred calls: the schedule result is discarded
// and the error chain records stage, vector and stack.
func recoverToError(stage string, vector []int, errp *error) {
	if r := recover(); r != nil {
		*errp = &PanicError{
			Stage:  stage,
			Vector: append([]int(nil), vector...),
			Value:  r,
			Stack:  debug.Stack(),
		}
	}
}
