package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"vcsched/internal/deduce"
	"vcsched/internal/graphutil"
	"vcsched/internal/ir"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// trailCloneSteps is the length of the scripted decision sequence each
// trail-clone check replays, and trailCloneCommitEvery says how often a
// step is committed to both universes instead of only probed.
const (
	trailCloneSteps       = 24
	trailCloneCommitEvery = 3
)

// CheckTrailClone runs only the trail-vs-Clone speculation cross-check
// on the superblock (Check runs it too; this entry exists so large
// property-test campaigns can skip the scheduler runs).
//
// The check maintains two universes that must stay bit-identical: a
// *trail* universe whose speculative decisions go through State.Probe
// (Begin/Rollback, the O(changes) undo) and a *clone* universe whose
// speculative decisions run on a throwaway State.Clone. A clone starts
// with every propagation memo at never, so the clone side also compares
// a full first sweep against the trail side's change-driven passes. A
// deterministic script of random decisions is replayed against both;
// at every step the decision's error strings, the probed state inside
// the trail's probe against the clone's after the same decision (their
// DumpText fingerprints, budget line included), and the two states
// after the rollback must match exactly. Every few steps a
// decision is committed to both universes so the script walks through
// genuinely different states, and after every commit the fixpoint
// oracle (checkFixpoint) runs on both. After every clean propagation
// (construction, a probe or commit that returns nil, the rollback to
// such a state) no Open pair may have both ends in one component
// (openPairInOneComponent). A committed contradiction does
// not end the script: the states are then no fixpoint, so the oracle
// stops running, but the probes and commits go on being compared.
// That is the only way a checkpoint opens away from a clean fixpoint,
// where a rollback must stamp what it restores instead of keeping the
// propagation memos.
func CheckTrailClone(sb *ir.Superblock, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{SB: sb, Opts: opts, Pins: workload.PinsFor(sb, opts.Machine.Clusters, opts.PinSeed)}
	checkTrailClone(rep)
	return rep
}

func checkTrailClone(rep *Report) {
	sb, m, pins := rep.SB, rep.Opts.Machine, rep.Pins
	g := sg.Build(sb, m)

	// Deadlines: the tightest slack over each exit's earliest start that
	// both universes accept. Construction itself is part of the check —
	// the two NewState calls must agree on feasibility, error for error.
	est := sb.EStarts()
	var trailSt, cloneSt *deduce.State
	var trailB, cloneB *deduce.Budget
	for _, slack := range []int{2, 4, 8} {
		deadlines := make([]int, len(sb.Exits()))
		for i, x := range sb.Exits() {
			deadlines[i] = est[x] + slack
		}
		mk := func(b *deduce.Budget) (*deduce.State, error) {
			return deduce.NewState(sb, m, g, deadlines, deduce.Options{Pins: pins, Budget: b})
		}
		b1, b2 := deduce.NewBudget(rep.Opts.MaxSteps), deduce.NewBudget(rep.Opts.MaxSteps)
		st1, err1 := mk(b1)
		st2, err2 := mk(b2)
		if errString(err1) != errString(err2) {
			rep.violate(KindTrailClone, "NewState slack %d: %q vs %q", slack, errString(err1), errString(err2))
			return
		}
		if err1 == nil {
			trailSt, cloneSt, trailB, cloneB = st1, st2, b1, b2
			break
		}
	}
	if trailSt == nil {
		return // infeasible at every slack, identically in both universes
	}
	if d1, d2 := trailSt.DumpText(), cloneSt.DumpText(); d1 != d2 {
		rep.violate(KindTrailClone, "initial states differ:\n%s", firstDiffLine(d1, d2))
		return
	}

	if bad := openPairInOneComponent(trailSt); bad != "" {
		rep.violate(KindTrailClone, "initial state: %s", bad)
		return
	}

	rng := rand.New(rand.NewSource(rep.Opts.PinSeed<<8 ^ int64(sb.N())))
	contradicted := false
	for step := 0; step < trailCloneSteps; step++ {
		name, op := randomDecision(rng, trailSt)

		// Speculate: trail probe against throwaway clone. The probed
		// state itself, budget line included, must be the clone's after
		// the same decision: a skip that leaves another propagated state
		// or spends another step shows at once, not only at a commit.
		var inProbe, probed string
		perr := trailSt.Probe(func(s *deduce.State) error {
			err := op(s)
			probed = s.DumpText()
			if err == nil {
				inProbe = openPairInOneComponent(s)
			}
			return err
		})
		oracle := cloneSt.Clone()
		oerr := op(oracle)
		if errString(perr) != errString(oerr) {
			rep.violate(KindTrailClone, "step %d %s: probe error %q (trail) vs %q (clone)",
				step, name, errString(perr), errString(oerr))
			return
		}
		if d := oracle.DumpText(); probed != d {
			rep.violate(KindTrailClone, "step %d %s: probed states differ:\n%s",
				step, name, firstDiffLine(probed, d))
			return
		}
		if inProbe != "" {
			rep.violate(KindTrailClone, "step %d %s: in the probe: %s", step, name, inProbe)
			return
		}
		if d1, d2 := trailSt.DumpText(), cloneSt.DumpText(); d1 != d2 {
			rep.violate(KindTrailClone, "step %d %s: rollback left residue:\n%s",
				step, name, firstDiffLine(d1, d2))
			return
		}
		if !contradicted {
			if bad := openPairInOneComponent(trailSt); bad != "" {
				rep.violate(KindTrailClone, "step %d %s: after the rollback: %s", step, name, bad)
				return
			}
		}

		// Periodically commit, so later steps script over evolved states.
		if step%trailCloneCommitEvery != trailCloneCommitEvery-1 {
			continue
		}
		cerr1 := op(trailSt)
		cerr2 := op(cloneSt)
		if errString(cerr1) != errString(cerr2) {
			rep.violate(KindTrailClone, "step %d %s: commit error %q (trail) vs %q (clone)",
				step, name, errString(cerr1), errString(cerr2))
			return
		}
		if d1, d2 := trailSt.DumpText(), cloneSt.DumpText(); d1 != d2 {
			rep.violate(KindTrailClone, "step %d %s: committed states differ:\n%s",
				step, name, firstDiffLine(d1, d2))
			return
		}
		if cerr1 != nil && !deduce.IsContradiction(cerr1) {
			return // the budget ran out (or worse), identically in both
		}
		contradicted = contradicted || cerr1 != nil
		if contradicted {
			continue // no fixpoint to check; keep comparing the universes
		}
		for _, u := range []struct {
			name string
			st   *deduce.State
			b    *deduce.Budget
		}{{"trail", trailSt, trailB}, {"clone", cloneSt, cloneB}} {
			if bad := openPairInOneComponent(u.st); bad != "" {
				rep.violate(KindTrailClone, "step %d %s: %s universe: %s", step, name, u.name, bad)
				return
			}
			detail, ok := checkFixpoint(u.st, u.b)
			if detail != "" {
				rep.violate(KindTrailClone, "step %d %s: %s universe is not a fixpoint: %s", step, name, u.name, detail)
				return
			}
			if !ok {
				return // the budget ran out; both universes stop here
			}
		}
	}
}

// checkFixpoint is the fixpoint oracle of the change-driven
// propagation: it clones st (every memo at never) and runs one full
// propagation sweep on the clone. A committed state must already be a
// fixpoint of every rule, so the sweep spends exactly one step of the
// shared budget and changes nothing but the "budget used" line. It
// returns the violation, if any, and false when the budget ran out
// before the sweep could run.
func checkFixpoint(st *deduce.State, b *deduce.Budget) (string, bool) {
	before := st.DumpText()
	used := b.Used()
	cp := st.Clone()
	err := cp.Propagate()
	if errors.Is(err, deduce.ErrBudget) {
		return "", false
	}
	if err != nil {
		return fmt.Sprintf("full sweep failed: %v", err), true
	}
	if n := b.Used() - used; n != 1 {
		return fmt.Sprintf("full sweep spent %d steps, want 1", n), true
	}
	if a, z := withoutBudget(before), withoutBudget(cp.DumpText()); a != z {
		return "full sweep changed the state:\n" + firstDiffLine(a, z), true
	}
	return "", true
}

// openPairInOneComponent checks, by a full scan, the invariant that lets
// the coherence rule revisit only the pairs a merge or a change of
// their own record stamped: after a clean propagation no Open pair has
// both ends in one connected component. The components are those of
// the chosen pairs, rebuilt here at the chosen offsets: every merge
// chooses a pair, and a clean state has every chosen pair's ends in one
// component at its combination, so the chosen offsets must agree too.
// It returns the first violation, or "".
func openPairInOneComponent(st *deduce.State) string {
	uf := graphutil.NewOffsetUF(st.NOrig())
	pairs := st.Pairs()
	for _, p := range pairs {
		if p.Status != deduce.Chosen {
			continue
		}
		if err := uf.Relate(p.U, p.V, p.Comb); err != nil {
			return fmt.Sprintf("chosen pair (%d,%d) at combination %d disagrees with the other chosen pairs: %v", p.U, p.V, p.Comb, err)
		}
	}
	for _, p := range pairs {
		if p.Status == deduce.Open && uf.Same(p.U, p.V) {
			return fmt.Sprintf("open pair (%d,%d) has both ends in one component after a clean propagation", p.U, p.V)
		}
	}
	return ""
}

// withoutBudget drops the trailing "budget used" line of a DumpText
// fingerprint.
func withoutBudget(dump string) string {
	if i := strings.LastIndex(dump, "budget used "); i >= 0 {
		return dump[:i]
	}
	return dump
}

// randomDecision picks one decision from the current state (the two
// universes are verified identical before every call, so reading either
// yields the same script). All parameters are captured by value: the
// returned closure reads nothing the probe/commit sequence mutates. A
// contradicted state may hold an empty window; fixing such a node picks
// its estart.
func randomDecision(rng *rand.Rand, st *deduce.State) (string, func(*deduce.State) error) {
	switch rng.Intn(6) {
	case 0:
		node := rng.Intn(st.NumNodes())
		cycle := st.Est(node) + rng.Intn(max(st.Slack(node), 0)+1)
		return fmt.Sprintf("FixCycle(%d,%d)", node, cycle),
			func(s *deduce.State) error { return s.FixCycle(node, cycle) }
	case 1:
		node := rng.Intn(st.NumNodes())
		e := st.Est(node) + 1 + rng.Intn(2)
		return fmt.Sprintf("TightenEst(%d,%d)", node, e),
			func(s *deduce.State) error { return s.TightenEst(node, e) }
	case 2:
		node := rng.Intn(st.NumNodes())
		l := st.Lst(node) - 1 - rng.Intn(2)
		return fmt.Sprintf("TightenLst(%d,%d)", node, l),
			func(s *deduce.State) error { return s.TightenLst(node, l) }
	case 3, 4:
		var open []deduce.PairState
		for _, p := range st.Pairs() {
			if p.Status == deduce.Open && len(p.Combs) > 0 {
				open = append(open, p)
			}
		}
		if len(open) == 0 {
			break
		}
		p := open[rng.Intn(len(open))]
		comb := p.Combs[rng.Intn(len(p.Combs))]
		if rng.Intn(3) == 0 {
			return fmt.Sprintf("DropPair(%d,%d)", p.U, p.V),
				func(s *deduce.State) error { return s.DropPair(p.U, p.V) }
		}
		if rng.Intn(2) == 0 {
			return fmt.Sprintf("ChooseComb(%d,%d,%d)", p.U, p.V, comb),
				func(s *deduce.State) error { return s.ChooseComb(p.U, p.V, comb) }
		}
		return fmt.Sprintf("DiscardComb(%d,%d,%d)", p.U, p.V, comb),
			func(s *deduce.State) error { return s.DiscardComb(p.U, p.V, comb) }
	case 5:
		if st.NOrig() >= 2 {
			a := rng.Intn(st.NOrig())
			b := rng.Intn(st.NOrig() - 1)
			if b >= a {
				b++
			}
			if rng.Intn(2) == 0 {
				return fmt.Sprintf("FuseVC(%d,%d)", a, b),
					func(s *deduce.State) error { return s.FuseVC(a, b) }
			}
			return fmt.Sprintf("SplitVC(%d,%d)", a, b),
				func(s *deduce.State) error { return s.SplitVC(a, b) }
		}
	}
	// Fallback when the drawn family is inapplicable: a no-op-ish probe
	// that still runs full propagation.
	node := rng.Intn(st.NumNodes())
	e := st.Est(node)
	return fmt.Sprintf("TightenEst(%d,%d)", node, e),
		func(s *deduce.State) error { return s.TightenEst(node, e) }
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// firstDiffLine renders the first line pair where two fingerprints
// diverge, keeping violation details readable for large states.
func firstDiffLine(a, b string) string {
	la, lb := splitLines(a), splitLines(b)
	n := len(la)
	if len(lb) > n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			return fmt.Sprintf("line %d:\n  trail: %s\n  clone: %s", i+1, x, y)
		}
	}
	return "(no line-level diff?)"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
