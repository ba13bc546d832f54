package deduce

import (
	"math/rand"
	"slices"
	"testing"

	"vcsched/internal/ir"
)

// refCCGroups computes the cc-groups of st's partition straight from
// the union-find: roots ascending, members ascending, and the indexes
// of the components with two or more members.
func refCCGroups(st *State) (roots, start, members []int, multi []int32) {
	byRoot := map[int][]int{}
	for node := 0; node < st.nOrig; node++ {
		r := st.cc.Root(node)
		byRoot[r] = append(byRoot[r], node)
	}
	for r := range byRoot {
		roots = append(roots, r)
	}
	slices.Sort(roots)
	for i, r := range roots {
		start = append(start, len(members))
		members = append(members, byRoot[r]...)
		if len(byRoot[r]) >= 2 {
			multi = append(multi, int32(i))
		}
	}
	start = append(start, len(members))
	return roots, start, members, multi
}

// randomChoice picks a random Open pair of st with a combination left
// and one of its combinations, or ok false when there is none.
func randomChoice(rng *rand.Rand, st *State) (u, v, comb int, ok bool) {
	var open []int
	for i := range st.pairs {
		if st.pairs[i].status == Open && st.combCount(i) > 0 {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		return 0, 0, 0, false
	}
	p := st.PairAt(open[rng.Intn(len(open))])
	return p.U, p.V, p.Combs[rng.Intn(len(p.Combs))], true
}

// TestDerivedCCGroupsMatchBuild merges random pairs inside probes, as
// whole decisions or bare merges (commitComb) between which steps pile
// up, adds copy nodes, and commits a probed choice now and then. After
// most steps, and after every rollback, the cc-groups entry the state
// serves must equal the partition read straight from the union-find,
// whether the entry was found, derived from a kept one through the
// logged steps, or built.
func TestDerivedCCGroupsMatchBuild(t *testing.T) {
	derived := 0
	for name, st := range rollbackRuleStates(t) {
		rng := rand.New(rand.NewSource(int64(len(name))))
		check := func(round int) {
			t.Helper()
			v := st.cc.Version()
			hit := false
			for i := range st.ccg {
				hit = hit || st.ccg[i].ver == v
			}
			if src, _ := st.ccChain(v); !hit && src >= 0 {
				derived++
			}
			g := st.ccGroups()
			roots, start, members, multi := refCCGroups(st)
			if !slices.Equal(g.roots, roots) || !slices.Equal(g.start, start) || !slices.Equal(g.members, members) || !slices.Equal(g.multi, multi) {
				t.Fatalf("%s round %d: cc-groups roots %v start %v members %v multi %v, want %v %v %v %v",
					name, round, g.roots, g.start, g.members, g.multi, roots, start, members, multi)
			}
		}
		for round := 0; round < 150; round++ {
			st.begin()
			for k := 1 + rng.Intn(6); k > 0; k-- {
				u, v, comb, ok := randomChoice(rng, st)
				if !ok {
					break
				}
				switch rng.Intn(4) {
				case 0:
					// A whole decision: the merge, then propagation.
					_ = st.ChooseComb(u, v, comb)
				case 1:
					// An added copy node, a step that leaves the
					// instructions' partition as it was.
					if _, err := st.addNode(ir.Copy, 1, 0, st.End); err != nil {
						t.Fatal(err)
					}
				default:
					// A bare merge, so that steps pile up between entries.
					_ = st.commitComb(st.pairIndex(u, v), comb)
				}
				if rng.Intn(2) == 0 {
					check(round)
				}
			}
			st.rollback()
			check(round)
			if round%5 == 4 {
				// Commit a choice a probe found consistent.
				u, v, comb, ok := randomChoice(rng, st)
				if ok && st.Probe(func(s *State) error { return s.ChooseComb(u, v, comb) }) == nil {
					if err := st.ChooseComb(u, v, comb); err != nil {
						t.Fatalf("%s round %d: committing a probed choice: %v", name, round, err)
					}
					check(round)
				}
			}
		}
	}
	if derived == 0 {
		t.Fatal("no entry was derived; the derivation went unchecked")
	}
	t.Logf("%d entries derived", derived)
}
