package deduce_test

import (
	"strings"
	"testing"

	"vcsched/internal/deduce"
	"vcsched/internal/difftest"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// plainShave is Shave without its early stop: every round probes both
// boundaries of every unpinned node, until a round refutes nothing or
// the rounds run out.
func plainShave(st *deduce.State, rounds int) error {
	probe := func(node, cycle int) (bool, error) {
		err := st.Probe(func(s *deduce.State) error { return s.FixCycle(node, cycle) })
		if err != nil && !deduce.IsContradiction(err) {
			return false, err
		}
		return err != nil, nil
	}
	for r := 0; r < rounds; r++ {
		changed := false
		for node := 0; node < st.NumNodes(); node++ {
			if st.Pinned(node) {
				continue
			}
			e := st.Est(node)
			contra, err := probe(node, e)
			if err != nil {
				return err
			}
			if contra {
				if err := st.TightenEst(node, e+1); err != nil {
					return err
				}
				changed = true
			}
			if st.Pinned(node) || st.Lst(node) == e {
				continue
			}
			l := st.Lst(node)
			if contra, err = probe(node, l); err != nil {
				return err
			}
			if contra {
				if err := st.TightenLst(node, l-1); err != nil {
					return err
				}
				changed = true
			}
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// errClass names an error's class for comparison: nil, a contradiction,
// or anything else by its text.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case deduce.IsContradiction(err):
		return "contradiction"
	}
	return err.Error()
}

// withoutBudget drops DumpText's budget line: the two shaves spend
// different steps by design.
func withoutBudget(dump string) string {
	return dump[:strings.LastIndex(dump, "budget used")]
}

// Shave's early stop is exact: on states of generated blocks, with the
// exits pinned (the attempts' shave) and bounded (the bound probes'),
// it leaves the bounds, pair states, components, VCs, arcs and
// communications of the plain loop, fails with the same class of error,
// and spends no more steps. Three rounds check the stop after a second
// round that refuted something too.
func TestShaveMatchesPlainLoop(t *testing.T) {
	blocks := 60
	if raceEnabled {
		blocks = 12
	}
	gen := difftest.NewGen(11, 20)
	machines := machine.EvaluationConfigs()
	var states, saved int
	for b := 0; b < blocks; b++ {
		sb := gen.Next()
		m := machines[b%len(machines)]
		g := sg.Build(sb, m)
		pins := workload.PinsFor(sb, m.Clusters, 1)
		est := sb.EStarts()
		for slack := 0; slack < 3; slack++ {
			deadlines := make([]int, len(sb.Exits()))
			for i, x := range sb.Exits() {
				deadlines[i] = est[x] + slack
			}
			for _, pin := range []bool{true, false} {
				for _, rounds := range []int{2, 3} {
					var sts [2]*deduce.State
					var budgets [2]*deduce.Budget
					var errs [2]error
					for i := range sts {
						budgets[i] = deduce.NewBudget(1 << 30)
						st, err := deduce.NewState(sb, m, g, deadlines, deduce.Options{Pins: pins, Budget: budgets[i], PinExits: pin})
						if err != nil {
							break
						}
						sts[i] = st
					}
					if sts[0] == nil {
						continue
					}
					states++
					errs[0] = sts[0].Shave(rounds)
					errs[1] = plainShave(sts[1], rounds)
					name := sb.Name + "@" + m.Key()
					if a, b := errClass(errs[0]), errClass(errs[1]); a != b {
						t.Fatalf("%s slack %d pinned %v rounds %d: Shave %s, plain loop %s", name, slack, pin, rounds, a, b)
					}
					if errs[0] == nil {
						if a, b := withoutBudget(sts[0].DumpText()), withoutBudget(sts[1].DumpText()); a != b {
							t.Fatalf("%s slack %d pinned %v rounds %d: Shave left\n%s\nthe plain loop\n%s", name, slack, pin, rounds, a, b)
						}
					}
					if a, b := budgets[0].Used(), budgets[1].Used(); a > b {
						t.Fatalf("%s slack %d pinned %v rounds %d: Shave spent %d steps, the plain loop %d", name, slack, pin, rounds, a, b)
					} else if a < b {
						saved++
					}
				}
			}
		}
	}
	if saved == 0 {
		t.Fatalf("the early stop saved steps on none of %d states", states)
	}
	t.Logf("%d states, %d shaved for fewer steps", states, saved)
}
