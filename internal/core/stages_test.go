package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

func TestRotateAndReverse(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	rotate(xs, 1)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate 1: %v", xs)
	}
	rotate(xs, 0)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate 0 changed: %v", xs)
	}
	rotate(xs, 4)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate len changed: %v", xs)
	}
	rotate(xs, 6) // 6 % 4 = 2
	if !reflect.DeepEqual(xs, []int{4, 1, 2, 3}) {
		t.Errorf("rotate 6: %v", xs)
	}
	reverse(xs)
	if !reflect.DeepEqual(xs, []int{3, 2, 1, 4}) {
		t.Errorf("reverse: %v", xs)
	}
	one := []int{9}
	rotate(one, 3)
	reverse(one)
	if one[0] != 9 {
		t.Error("singleton mangled")
	}
}

// TestBumpRule checks Section 4.2's rule as the enumeration applies it:
// every exit that can move one cycle without pushing another exit
// yields one successor vector.
func TestBumpRule(t *testing.T) {
	// Figure 1: exits B0 (prob 0.3) and B1 (prob 0.7), dist(B0,B1) = 1.
	sb := ir.PaperFigure1()
	s := newScheduler(sb, machine.PaperExampleSection5(), Options{})
	for _, tc := range []struct {
		from []int
		want [][]int
	}{
		// B0 can move (5+1 ≤ 7); the final exit always can.
		{[]int{4, 7}, [][]int{{5, 7}, {4, 8}}},
		// B0 cannot move without pushing B1, so only B1 moves.
		{[]int{6, 7}, [][]int{{6, 8}}},
		// Moving B0 to 5 would push B1 to 6, so only B1 moves.
		{[]int{4, 5}, [][]int{{4, 6}}},
	} {
		if got := s.bumpSuccessors(tc.from); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("bumpSuccessors(%v) = %v, want %v", tc.from, got, tc.want)
		}
	}
}

func TestEnhancedExitEstsMatchPaper(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	s := newScheduler(sb, m, Options{})
	ests, err := s.enhancedExitEsts()
	if err != nil {
		t.Fatal(err)
	}
	// Dependence-only: B0 at 4, B1 at 6; the enhancement proves B1
	// cannot run before 7 (Section 5).
	if !reflect.DeepEqual(ests, []int{4, 7}) {
		t.Errorf("enhanced ests = %v, want [4 7]", ests)
	}
	if awct := s.awctOf(ests); awct != 9.1 {
		t.Errorf("minAWCT = %g, want 9.1", awct)
	}
}

// TestStatsAccounting: the scheduler reports plausible search stats.
func TestStatsAccounting(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	_, stats, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsSpent <= 0 {
		t.Errorf("StepsSpent = %d", stats.StepsSpent)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if stats.Comms < 1 {
		t.Errorf("Comms = %d, want >= 1 on the 2-cluster example", stats.Comms)
	}
	if stats.FinalAWCT < stats.MinAWCT {
		t.Errorf("final AWCT %g below the lower bound %g", stats.FinalAWCT, stats.MinAWCT)
	}
}

// TestGeneratedCorpusValid: the full algorithm (with the CARS-free
// fallback disabled) must produce validator-clean schedules across a
// sample of every benchmark profile and machine.
func TestGeneratedCorpusValid(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	// A rotating sample keeps this fast while still touching several
	// profile shapes; the full sweep lives in cmd/experiments.
	profiles := workload.Benchmarks()
	sample := []workload.AppProfile{profiles[0], profiles[5], profiles[8], profiles[12]}
	machines := machine.EvaluationConfigs()
	for pi, p := range sample {
		app := p.Generate(0.04, 0)
		for _, m := range machines[pi%len(machines) : pi%len(machines)+1] {
			for _, sb := range app.Blocks {
				pins := workload.PinsFor(sb, m.Clusters, 99)
				s, stats, err := Schedule(sb, m, Options{Pins: pins, Timeout: 3 * time.Second})
				if err != nil {
					// Timeouts and budget exhaustion are legitimate (the
					// harness falls back to CARS on them).
					if err == ErrTimeout || errors.Is(err, ErrExhausted) {
						continue
					}
					t.Errorf("%s on %s: %v", sb.Name, m.Name, err)
					continue
				}
				if verr := s.Validate(); verr != nil {
					t.Fatalf("%s on %s: invalid: %v", sb.Name, m.Name, verr)
				}
				if s.AWCT() < stats.MinAWCT-1e-9 {
					t.Errorf("%s on %s: AWCT %g below lower bound %g", sb.Name, m.Name, s.AWCT(), stats.MinAWCT)
				}
			}
		}
	}
}
