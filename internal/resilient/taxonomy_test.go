package resilient

import (
	"errors"
	"fmt"
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/deduce"
)

func TestTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{core.ErrTimeout, "timeout"},
		{fmt.Errorf("wrapped: %w", core.ErrTimeout), "timeout"},
		{core.ErrExhausted, "exhausted"},
		{deduce.ErrBudget, "exhausted"},
		{core.ErrInternal, "internal"},
		{deduce.ErrInternal, "internal"},
		{deduce.ErrContradiction, "contradiction"},
		{&core.PanicError{Stage: "shave", Value: "boom"}, "panic"},
		{errors.New("naive: no FU anywhere"), "unschedulable"},
		// A ladder hard failure joins every rung's error; the most
		// specific class present wins over the catch-all.
		{errors.Join(
			fmt.Errorf("tier sg: %w", core.ErrTimeout),
			errors.New("tier naive: no FU anywhere"),
		), "timeout"},
		// A panic in any branch dominates: it marks a bug, not an
		// infeasible input.
		{errors.Join(
			errors.New("tier cars: cannot place"),
			fmt.Errorf("tier sg: %w", &core.PanicError{Stage: "mapping", Value: 1}),
		), "panic"},
	}
	for _, tc := range cases {
		if got := Taxonomy(tc.err); got != tc.want {
			t.Errorf("Taxonomy(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}
