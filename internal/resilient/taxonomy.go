package resilient

import (
	"errors"

	"vcsched/internal/core"
	"vcsched/internal/deduce"
)

// Taxonomy maps an error from the scheduling stack onto the DESIGN.md
// §8 error-taxonomy class name the ladder dispatches on. Reporting
// layers (cmd/vcsched batch verdicts, the vcschedd daemon, vcload) use
// the names instead of raw error strings so operators can aggregate
// failures by cause:
//
//	timeout        the wall-clock deadline expired
//	exhausted      the search (or its step budget) gave out
//	panic          a recovered panic (*core.PanicError)
//	internal       an invariant breach turned into an error
//	contradiction  the input (or a pinned vector) is infeasible
//	unschedulable  no class matched: for ladder hard failures this
//	               means even the naive serializer refused the block
//
// The checks are ordered most-specific first: a hard failure from the
// ladder is an errors.Join of every rung's error, and errors.Is/As
// search all branches, so e.g. a descent that started with a timeout
// classifies as "timeout" rather than whatever the lower rungs died of.
func Taxonomy(err error) string {
	var pe *core.PanicError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, core.ErrTimeout):
		return "timeout"
	case errors.Is(err, core.ErrExhausted), errors.Is(err, deduce.ErrBudget):
		return "exhausted"
	case errors.Is(err, core.ErrInternal), errors.Is(err, deduce.ErrInternal):
		return "internal"
	case deduce.IsContradiction(err):
		return "contradiction"
	}
	return "unschedulable"
}
