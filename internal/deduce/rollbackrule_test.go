package deduce

import (
	"fmt"
	"testing"

	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// rollbackRuleStates returns the states the rollback-rule test starts
// from, each at a clean fixpoint: the paper example at AWCT 9.4 and the
// first blocks of two workload profiles.
func rollbackRuleStates(t *testing.T) map[string]*State {
	t.Helper()
	out := map[string]*State{}
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	out["fig1"] = st
	for _, app := range []string{"099.go", "130.li"} {
		p, err := workload.BenchmarkByName(app)
		if err != nil {
			t.Fatalf("no workload %s: %v", app, err)
		}
		sb := p.Generate(0.05, 0).Blocks[0]
		m := machine.FourCluster1Lat()
		est := sb.EStarts()
		deadlines := make([]int, len(sb.Exits()))
		for i, x := range sb.Exits() {
			deadlines[i] = est[x] + 2
		}
		st, err := NewState(sb, m, sg.Build(sb, m), deadlines, Options{Pins: workload.PinsFor(sb, m.Clusters, 1)})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		out[app] = st
	}
	return out
}

// ruleDecisions lists replayable decisions on st of every kind: a
// FixCycle of every node at each end of its window, a ChooseComb of the
// first remaining combination and a DropPair of every open pair, and a
// FuseVC and a SplitVC of consecutive instructions.
func ruleDecisions(st *State) (names []string, ops []func(*State) error) {
	add := func(name string, op func(*State) error) {
		names = append(names, name)
		ops = append(ops, op)
	}
	for node := 0; node < st.NumNodes(); node++ {
		for _, cycle := range []int{st.Est(node), st.Lst(node)} {
			node, cycle := node, cycle
			add(fmt.Sprintf("FixCycle(%d,%d)", node, cycle), func(s *State) error { return s.FixCycle(node, cycle) })
		}
	}
	for i := 0; i < st.NumPairs(); i++ {
		p := st.PairAt(i)
		if p.Status != Open || len(p.Combs) == 0 {
			continue
		}
		u, v, c := p.U, p.V, p.Combs[0]
		add(fmt.Sprintf("ChooseComb(%d,%d,%d)", u, v, c), func(s *State) error { return s.ChooseComb(u, v, c) })
		add(fmt.Sprintf("DropPair(%d,%d)", u, v), func(s *State) error { return s.DropPair(u, v) })
	}
	for a := 0; a+1 < st.NOrig(); a++ {
		a := a
		add(fmt.Sprintf("FuseVC(%d,%d)", a, a+1), func(s *State) error { return s.FuseVC(a, a+1) })
		add(fmt.Sprintf("SplitVC(%d,%d)", a, a+1), func(s *State) error { return s.SplitVC(a, a+1) })
	}
	return names, ops
}

// maxStamp returns the newest stamp on any rule input of st.
func maxStamp(st *State) uint64 {
	s := &st.stamp
	m := max(s.bounds, s.pairs, s.arcs, s.comms, s.plcs, s.cc, s.vc)
	for _, v := range s.class {
		m = max(m, v)
	}
	for _, list := range [][]uint64{s.node} {
		for _, v := range list {
			m = max(m, v)
		}
	}
	return m
}

// TestRollbackRule pins the two sides of the rollback rule (stamps.go).
// A rollback to a checkpoint opened at a clean fixpoint restores that
// fixpoint with every propagation memo covering every input, so the
// next propagation re-sweeps only what the next decision touches. A
// rollback to a checkpoint opened anywhere else stamps what it
// restores, so the next decision makes exactly the mutations a fresh
// Clone (every memo at never, a full first sweep) makes.
func TestRollbackRule(t *testing.T) {
	t.Run("clean fixpoint keeps memos", func(t *testing.T) {
		for name, st := range rollbackRuleStates(t) {
			names, ops := ruleDecisions(st)
			for i, op := range ops {
				before := st.DumpText()
				_ = st.Probe(op)
				if got := st.DumpText(); got != before {
					t.Fatalf("%s: probe %s left residue", name, names[i])
				}
				m := st.memo
				low := min(m.bounds, m.coherence, m.prune, m.ccRes, m.pinned, m.flows, m.cplc, m.pplc, m.packing)
				if s := maxStamp(st); low < s {
					t.Fatalf("%s: after probe %s a memo is at %d, behind the newest stamp %d", name, names[i], low, s)
				}
			}
		}
	})
	t.Run("contradicted state restamps", func(t *testing.T) {
		checked := 0
		for name, base := range rollbackRuleStates(t) {
			names, ops := ruleDecisions(base)
			bads := 0
			for b, bad := range ops {
				spent := base.Clone()
				if err := bad(spent); !IsContradiction(err) || bads == 4 {
					continue
				}
				bads++
				for p := 0; p < 3; p++ {
					for n, next := range ops {
						st := spent.Clone()
						_ = st.Probe(ops[p])
						fresh := st.Clone()
						err1, err2 := next(st), next(fresh)
						if errString(err1) != errString(err2) {
							t.Fatalf("%s: after %s and a probe of %s, %s fails with %q, on a fresh clone with %q",
								name, names[b], names[p], names[n], errString(err1), errString(err2))
						}
						if st.DumpText() != fresh.DumpText() {
							t.Fatalf("%s: after %s and a probe of %s, %s leaves a state that differs from a fresh clone's",
								name, names[b], names[p], names[n])
						}
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatal("no decision contradicted; the rule's conservative side was not exercised")
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
