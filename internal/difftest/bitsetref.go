package difftest

import (
	"fmt"
	"math/rand"

	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// bitsetRefSteps is the length of the scripted decision sequence each
// bitset-reference check replays, and bitsetRefCommitEvery says how
// often a step is committed instead of only probed.
const (
	bitsetRefSteps       = 24
	bitsetRefCommitEvery = 3
)

// CheckBitsetRef runs only the bitset-vs-reference combination-set
// cross-check on the superblock (Check runs it too).
//
// The deduction state stores each pair's remaining combinations as a
// fixed-width bitset that is mutated incrementally: window pruning is a
// range-mask AND, explicit discards are bit clears, speculation undo
// restores individual words. This check recomputes every pair's
// surviving set from first principles after each observation point and
// demands exact agreement. The reference is a pure function of data the
// bitset code never touches:
//
//   - Chosen pairs hold exactly {chosen comb}; Dropped pairs are empty.
//   - An Open pair holds exactly the SG edge's original combinations
//     that are feasible inside the *current* bound windows
//     (sg.CombFeasibleAt) minus the explicitly discarded ones. This is
//     exact at every post-Propagate fixpoint because windows only ever
//     tighten, so the feasible offset range only ever shrinks: a
//     combination pruned under an older (wider) window pair is still
//     infeasible under the current one.
//
// A replay drives a deterministic random decision script through probes
// (verifying rollback restores every word) and periodic commits
// (verifying incremental pruning matches the recomputation), tracking
// committed explicit discards as the only extra state.
func CheckBitsetRef(sb *ir.Superblock, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{SB: sb, Opts: opts, Pins: workload.PinsFor(sb, opts.Machine.Clusters, opts.PinSeed)}
	checkBitsetRef(rep)
	return rep
}

func checkBitsetRef(rep *Report) {
	sb, m, pins := rep.SB, rep.Opts.Machine, rep.Pins
	g := sg.Build(sb, m)

	est := sb.EStarts()
	var st *deduce.State
	for _, slack := range []int{2, 4, 8} {
		deadlines := make([]int, len(sb.Exits()))
		for i, x := range sb.Exits() {
			deadlines[i] = est[x] + slack
		}
		s, err := deduce.NewState(sb, m, g, deadlines, deduce.Options{
			Pins:   pins,
			Budget: deduce.NewBudget(rep.Opts.MaxSteps),
		})
		if err == nil {
			st = s
			break
		}
	}
	if st == nil {
		return // infeasible at every slack; nothing to cross-check
	}

	// discarded[pair index] is the set of combinations explicitly removed
	// from a then-Open pair by a committed DiscardComb — the only removals
	// the window-feasibility reference cannot re-derive.
	discarded := make([]map[int]bool, st.NumPairs())
	verify := func(stage string, step int, name string) bool {
		for i := 0; i < st.NumPairs(); i++ {
			p := st.PairAt(i)
			e := g.Edges[i]
			var want []int
			switch p.Status {
			case deduce.Chosen:
				want = []int{p.Comb}
			case deduce.Dropped:
				// empty
			default:
				for _, c := range e.Combs {
					if !sg.CombFeasibleAt(c, st.Est(p.U), st.Lst(p.U), st.Est(p.V), st.Lst(p.V)) {
						continue
					}
					if discarded[i][c] {
						continue
					}
					want = append(want, c)
				}
			}
			if !equalIntSlices(p.Combs, want) {
				rep.violate(KindBitsetRef, "%s (step %d %s): pair (%d,%d) status %d bitset combs %v, reference %v",
					stage, step, name, p.U, p.V, p.Status, p.Combs, want)
				return false
			}
		}
		return true
	}

	if !verify("initial", -1, "NewState") {
		return
	}

	rng := rand.New(rand.NewSource(rep.Opts.PinSeed<<8 ^ int64(sb.N()) ^ 0x5eb1))
	for step := 0; step < bitsetRefSteps; step++ {
		name, op := randomDecision(rng, st)

		// Probe: whatever the decision did, rollback must restore every
		// bitset word, status and bound — the reference sees the
		// pre-probe state.
		_ = st.Probe(op)
		if !verify("rollback", step, name) {
			return
		}

		if step%bitsetRefCommitEvery != bitsetRefCommitEvery-1 {
			continue
		}
		// Before committing, capture the explicit-discard bookkeeping the
		// reference needs. Marking a combination that is already absent is
		// sound: bits are never re-set, so excluding it from the reference
		// can not hide a divergence.
		if pi, comb, ok := discardOf(st, name); ok {
			if discarded[pi] == nil {
				discarded[pi] = make(map[int]bool)
			}
			discarded[pi][comb] = true
		}
		if err := op(st); err != nil {
			// A committed contradiction leaves the state mid-propagation,
			// not at a rule fixpoint, so the feasibility reference no
			// longer applies; the script ends here.
			return
		}
		if !verify("commit", step, name) {
			return
		}
	}
}

// discardOf recognizes a DiscardComb decision by its script name and
// returns the dense pair index and the normalized (U < V) combination
// it removes. Recording applies only when the pair is currently Open:
// discarding from a Chosen pair is a no-op by specification.
func discardOf(st *deduce.State, name string) (pairIdx, comb int, ok bool) {
	var a, b, c int
	if n, _ := fmt.Sscanf(name, "DiscardComb(%d,%d,%d)", &a, &b, &c); n != 3 {
		return 0, 0, false
	}
	if a > b {
		a, b, c = b, a, -c
	}
	p, found := st.Pair(a, b)
	if !found || p.Status != deduce.Open {
		return 0, 0, false
	}
	for i := 0; i < st.NumPairs(); i++ {
		q := st.PairAt(i)
		if q.U == a && q.V == b {
			return i, c, true
		}
	}
	return 0, 0, false
}

func equalIntSlices(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
