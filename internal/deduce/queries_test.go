package deduce_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vcsched/internal/deduce"
	"vcsched/internal/difftest"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// fullPairOrder is the reference order of the candidate queries: every
// Open pair, stable-sorted by combination slack (the two window slacks
// plus the remaining combination count).
func fullPairOrder(st *deduce.State) []int {
	slack := func(i int) int {
		p := st.PairAt(i)
		return st.Slack(p.U) + st.Slack(p.V) + len(p.Combs)
	}
	var idx []int
	for i := 0; i < st.NumPairs(); i++ {
		if st.PairAt(i).Status == deduce.Open {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return slack(idx[a]) < slack(idx[b]) })
	return idx
}

// fullNodeOrder is the reference order of the node queries: the
// unpinned nodes in [lo, hi), stable-sorted by window slack.
func fullNodeOrder(st *deduce.State, lo, hi int) []int {
	var nodes []int
	for n := lo; n < hi; n++ {
		if !st.Pinned(n) {
			nodes = append(nodes, n)
		}
	}
	sort.SliceStable(nodes, func(a, b int) bool { return st.Slack(nodes[a]) < st.Slack(nodes[b]) })
	return nodes
}

// checkQueries compares every candidate query with the first k of its
// reference order, for every k from 1 to one past the order's length.
func checkQueries(t *testing.T, where string, st *deduce.State) {
	t.Helper()
	for _, q := range []struct {
		name  string
		query func(int) []int
		full  []int
	}{
		{"OpenPairs", st.OpenPairs, fullPairOrder(st)},
		{"UnpinnedInstrs", st.UnpinnedInstrs, fullNodeOrder(st, 0, st.NOrig())},
		{"UnpinnedCopies", st.UnpinnedCopies, fullNodeOrder(st, st.NOrig(), st.NumNodes())},
	} {
		for k := 1; k <= len(q.full)+1; k++ {
			if got, want := q.query(k), q.full[:min(k, len(q.full))]; !slices.Equal(got, want) {
				t.Fatalf("%s: %s(%d) = %v, want %v (full order %v)", where, q.name, k, got, want, q.full)
			}
		}
	}
}

// randomStep draws one decision on st's current pairs and nodes.
func randomStep(rng *rand.Rand, st *deduce.State) func(*deduce.State) error {
	if rng.Intn(2) == 0 {
		var open []deduce.PairState
		for i := 0; i < st.NumPairs(); i++ {
			if p := st.PairAt(i); p.Status == deduce.Open && len(p.Combs) > 0 {
				open = append(open, p)
			}
		}
		if len(open) > 0 {
			p := open[rng.Intn(len(open))]
			comb := p.Combs[rng.Intn(len(p.Combs))]
			switch rng.Intn(3) {
			case 0:
				return func(s *deduce.State) error { return s.ChooseComb(p.U, p.V, comb) }
			case 1:
				return func(s *deduce.State) error { return s.DiscardComb(p.U, p.V, comb) }
			}
			return func(s *deduce.State) error { return s.DropPair(p.U, p.V) }
		}
	}
	node := rng.Intn(st.NumNodes())
	cycle := st.Est(node) + rng.Intn(max(st.Slack(node), 0)+1)
	return func(s *deduce.State) error { return s.FixCycle(node, cycle) }
}

// TestQueryHelpers exercises the candidate-selection queries the core
// scheduler drives the stages with. On generated blocks, a random
// script probes and commits decisions; before and inside every probe
// and after every commit, each query must return exactly the first k
// of its full stable order, for every k. The paper example then checks
// the state predicates and that mapping every VC drains
// UnmappedVCReps.
func TestQueryHelpers(t *testing.T) {
	gen := difftest.NewGen(3, 24)
	for b := 0; b < 12; b++ {
		sb := gen.Next()
		m := machine.FourCluster1Lat()
		if b%2 == 1 {
			m = machine.TwoCluster1Lat()
		}
		est := sb.EStarts()
		deadlines := make([]int, len(sb.Exits()))
		for i, x := range sb.Exits() {
			deadlines[i] = est[x] + 3
		}
		st, err := deduce.NewState(sb, m, sg.Build(sb, m), deadlines,
			deduce.Options{Pins: workload.PinsFor(sb, m.Clusters, int64(b)), PinExits: true})
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(int64(b)))
		checkQueries(t, sb.Name+" initial", st)
		for step := 0; step < 30; step++ {
			op := randomStep(rng, st)
			_ = st.Probe(func(s *deduce.State) error {
				if err := op(s); err != nil {
					return err
				}
				checkQueries(t, sb.Name+" in probe", s)
				return nil
			})
			checkQueries(t, sb.Name+" after rollback", st)
			if step%3 == 2 {
				if err := op(st); err != nil {
					break // a committed contradiction spends the state
				}
				checkQueries(t, sb.Name+" after commit", st)
			}
		}
	}

	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	st, err := deduce.NewState(sb, m, sg.Build(sb, m), []int{5, 7},
		deduce.Options{Pins: sched.Pins{}, PinExits: true})
	if err != nil {
		t.Fatal(err)
	}
	checkQueries(t, "paper example", st)
	if len(st.OpenPairs(st.NumPairs())) == 0 {
		t.Fatal("no open pairs on the fresh state")
	}
	if st.AllPairsResolved() {
		t.Error("fresh state claims all pairs resolved")
	}
	if len(st.UnpinnedInstrs(st.NOrig())) == 0 {
		t.Fatal("no unpinned instructions")
	}
	if got := len(st.UnmappedVCReps()); got == 0 {
		t.Error("fresh state claims every VC mapped")
	}
	if st.Class(0) != ir.Int {
		t.Errorf("Class(0) = %v", st.Class(0))
	}
	// Pinning everything to a cluster drains UnmappedVCReps.
	for _, r := range st.UnmappedVCReps() {
		mapped := false
		for k := 0; k < m.Clusters && !mapped; k++ {
			if st.Clone().FuseVC(r, st.VC().MustAnchor(k)) == nil {
				if err := st.FuseVC(r, st.VC().MustAnchor(k)); err != nil {
					t.Fatal(err)
				}
				mapped = true
			}
		}
		if !mapped {
			t.Fatalf("VC %d not mappable to any cluster", r)
		}
	}
	if !st.AllMapped() {
		t.Error("all VCs fused with anchors but AllMapped is false")
	}
}
