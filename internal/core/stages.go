package core

import (
	"fmt"
	"slices"

	"vcsched/internal/deduce"
	"vcsched/internal/matching"
)

// decision names the decision a candidate takes.
type decision uint8

const (
	chooseComb decision = iota // choose combination c of pair (a,b)
	dropPair                   // drop pair (a,b)
	fixCycle                   // fix node a at cycle b
	fuseVC                     // fuse the virtual clusters of a and b
)

// candidate is one studied alternative, held as a value: a decision
// and its operands. study applies it to the live state inside a
// trail-scoped probe (deduce.State.Probe), and applies it for real when
// it is selected; refuted records what a contradicting probe proved.
// The stages build their candidates in the scheduler's reused buffer,
// so a study allocates nothing of its own. Fallback candidates (a
// pair's drop in the first two variants, its combinations in the
// conservative third) are studied only when every regular candidate
// contradicts.
type candidate struct {
	kind     decision
	fallback bool
	a, b, c  int
}

// apply takes the candidate's decision on st.
func (c candidate) apply(st *deduce.State) error {
	switch c.kind {
	case chooseComb:
		return st.ChooseComb(c.a, c.b, c.c)
	case dropPair:
		return st.DropPair(c.a, c.b)
	case fixCycle:
		return st.FixCycle(c.a, c.b)
	default:
		return st.FuseVC(c.a, c.b)
	}
}

// refuted records on the live state st the knowledge a contradicting
// probe of the candidate proved mandatory: a refuted combination is
// discarded, and a refuted boundary cycle leaves the node's window.
func (c candidate) refuted(st *deduce.State) error {
	switch c.kind {
	case chooseComb:
		return st.DiscardComb(c.a, c.b, c.c)
	case fixCycle:
		node, t := c.a, c.b
		if t == st.Est(node) {
			return st.TightenEst(node, t+1)
		}
		if t == st.Lst(node) {
			return st.TightenLst(node, t-1)
		}
	}
	return nil
}

// study probes the regular candidates against st in order (each probe
// rolled back in O(changes) by the trail), records what each
// contradicting one refuted, and commits the best survivor by the
// Section 4.4.3 metrics by re-applying it to the live state — the same
// double application the Clone-per-probe implementation performed. The
// fallbacks are probed the same way only when every regular candidate
// contradicted. It returns errNoCandidates when every alternative
// contradicts.
//
// In the first two variants this takes every decision that probing the
// fallbacks along with the rest would take: their fallbacks are drops,
// which change nothing when refuted, and once every combination of the
// studied pairs has contradicted, each pair is dropped by its discards,
// so every drop leaves the same state. In the conservative variant the
// fallbacks are combinations, whose refutations would discard them on
// the live state, so its later studies may see a different state.
func study(st *deduce.State, cands []candidate) error {
	best, err := bestOf(st, cands, false)
	if err == nil && best < 0 {
		best, err = bestOf(st, cands, true)
	}
	if err != nil {
		return err
	}
	if best < 0 {
		return errNoCandidates
	}
	return cands[best].apply(st)
}

// bestOf probes the candidates whose fallback flag is fallback and
// returns the index of the best survivor, or -1 when every one of them
// contradicts.
func bestOf(st *deduce.State, cands []candidate, fallback bool) (int, error) {
	best := -1
	var bestM deduce.Metrics
	for i, c := range cands {
		if c.fallback != fallback {
			continue
		}
		var m deduce.Metrics
		var mErr error
		err := st.Probe(func(x *deduce.State) error {
			if err := c.apply(x); err != nil {
				return err
			}
			m, mErr = x.Metrics()
			return nil
		})
		if err != nil {
			if !deduce.IsContradiction(err) {
				return -1, err
			}
			if err := c.refuted(st); err != nil {
				return -1, err
			}
			continue
		}
		if mErr != nil {
			return -1, mErr
		}
		if best < 0 || m.Better(bestM) {
			best, bestM = i, m
		}
	}
	return best, nil
}

var errNoCandidates = fmt.Errorf("%w: every candidate contradicts", deduce.ErrContradiction)

// stageCombinations is stage 1: resolve every open SG pair between
// original instructions, one study of pairCandidates at a time.
func (s *scheduler) stageCombinations(st *deduce.State) error {
	for {
		if err := s.checkTime(); err != nil {
			return err
		}
		cands := s.pairCandidates(st)
		if len(cands) == 0 {
			return nil
		}
		if err := study(st, cands); err != nil {
			return err
		}
	}
}

// pairCandidates returns stage 1's next study, in the scheduler's
// candidate buffer: the alternatives of the most constraining open
// pairs, each remaining combination of a pair and then dropping it
// entirely. It is empty once every pair is resolved.
func (s *scheduler) pairCandidates(st *deduce.State) []candidate {
	// Choosing a combination keeps parallelism available, so dropping
	// the pair is normally the last resort. The final retry inverts
	// that: a conservative, list-scheduler-like search (prefer
	// no-overlap, merge only when forced) that escapes dead ends the
	// aggressive merging runs into.
	conservative := s.variant%3 == 2
	cands := s.cands[:0]
	for _, pi := range s.candidatePairs(st) {
		p := st.PairOf(pi)
		combs := st.AppendCombs(s.ints[:0], pi)
		s.ints = combs
		if s.variant%2 == 1 {
			reverse(combs)
		}
		for _, comb := range combs {
			cands = append(cands, candidate{kind: chooseComb, fallback: conservative, a: p.U, b: p.V, c: comb})
		}
		cands = append(cands, candidate{kind: dropPair, fallback: !conservative, a: p.U, b: p.V})
	}
	s.cands = cands
	return cands
}

// candidatePairs returns the pairs stage 1 studies next: the first
// candidateLimit of the most-constraining-first order rotated by the
// variant. The query returns only the prefix they come from, or all of
// the order when it is shorter, where the rotation wraps.
func (s *scheduler) candidatePairs(st *deduce.State) []int {
	open := st.OpenPairs(s.variant + candidateLimit)
	rotate(open, s.variant)
	return open[:min(candidateLimit, len(open))]
}

// stageFixInstrs is stage 2: pin every original instruction that still
// has slack, least-slack candidate first; the alternatives are feasible
// cycles spread across its window.
func (s *scheduler) stageFixInstrs(st *deduce.State) error {
	return s.fixNodes(st, st.UnpinnedInstrs)
}

// stageFixCopies is stages 5+6: pin the communications. Combination
// treatment between copies is subsumed by the DP's bus-occupancy rules,
// so only the cycle choice remains.
func (s *scheduler) stageFixCopies(st *deduce.State) error {
	return s.fixNodes(st, st.UnpinnedCopies)
}

func (s *scheduler) fixNodes(st *deduce.State, list func(k int) []int) error {
	for {
		if err := s.checkTime(); err != nil {
			return err
		}
		// Only the node at position variant of the order is studied, so
		// the query returns the prefix up to it, as in candidatePairs.
		nodes := list(s.variant + 1)
		if len(nodes) == 0 {
			return nil
		}
		rotate(nodes, s.variant)
		node := nodes[0] // least slack first (rotated across retries)
		cycles := spreadCycles(s.ints[:0], st.Est(node), st.Lst(node), cycleCandLimit)
		s.ints = cycles
		if s.variant%2 == 1 {
			reverse(cycles)
		}
		cands := s.cands[:0]
		for _, t := range cycles {
			cands = append(cands, candidate{kind: fixCycle, a: node, b: t})
		}
		s.cands = cands
		if err := study(st, cands); err != nil {
			return err
		}
	}
}

// rotate moves the first k%len elements to the back, perturbing the
// candidate order across retries. It rotates in place, by three
// reversals.
func rotate[T any](xs []T, k int) {
	if len(xs) < 2 {
		return
	}
	k %= len(xs)
	if k == 0 {
		return
	}
	reverse(xs[:k])
	reverse(xs[k:])
	reverse(xs)
}

func reverse[T any](xs []T) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// spreadCycles appends to out up to limit cycles from [est, lst],
// always including both boundaries and spreading the rest evenly.
func spreadCycles(out []int, est, lst, limit int) []int {
	n := lst - est + 1
	if n <= limit {
		for t := est; t <= lst; t++ {
			out = append(out, t)
		}
		return out
	}
	first := len(out)
	for i := 0; i < limit; i++ {
		t := est + i*(n-1)/(limit-1)
		if len(out) == first || out[len(out)-1] != t {
			out = append(out, t)
		}
	}
	return out
}

// stageOutedges is stage 3: while value flows cross distinct compatible
// VCs, select VC pairs with a maximum-weight matching over the matching
// graph (edge weights = outedge counts) and fuse the whole matching at
// once; if the joint fusion contradicts, the highest-weight edge is
// treated individually (fused if possible, split otherwise) and the
// matching scheme resumes — Section 4.4.2's E_highest_weight handling.
func (s *scheduler) stageOutedges(st *deduce.State) error {
	for {
		if err := s.checkTime(); err != nil {
			return err
		}
		out, err := st.AppendOutEdges(s.outs[:0])
		s.outs = out
		if err != nil {
			return err
		}
		if len(out) == 0 {
			return nil
		}
		// Build the matching graph over VC representatives, numbered in
		// the order they first appear in the (A, B)-sorted outedges, so
		// the matching input (and thus tie-breaking between equal-weight
		// matchings) is a pure function of the state.
		n := st.VC().Len()
		order := slices.Grow(s.reps[:0], n)
		repIdx := s.repIdx
		if len(repIdx) < n {
			repIdx = make([]int32, n)
			for i := range repIdx {
				repIdx[i] = -1
			}
		}
		idx := func(r int) int {
			if repIdx[r] < 0 {
				repIdx[r] = int32(len(order))
				order = append(order, r)
			}
			return int(repIdx[r])
		}
		edges := slices.Grow(s.edges[:0], len(out))
		for _, p := range out {
			edges = append(edges, matching.Edge{U: idx(p.A), V: idx(p.B), Weight: p.Flows})
		}
		for _, r := range order {
			repIdx[r] = -1
		}
		s.reps, s.repIdx, s.edges = order, repIdx, edges
		match, err := matching.MaxWeight(len(order), edges, s.deadline)
		if err != nil {
			return ErrTimeout
		}
		if len(match) > 0 {
			err := st.Probe(func(x *deduce.State) error { return fuseAll(x, match, order) })
			if err == nil {
				if err := fuseAll(st, match, order); err != nil {
					return err
				}
				continue
			}
			if !deduce.IsContradiction(err) {
				return err
			}
		}
		// The matching contradicts (or is empty): treat the
		// highest-weight outedge individually, the first by (weight
		// descending, A, B), which is the first in (A, B) order among
		// the heaviest.
		e := out[0]
		for _, p := range out[1:] {
			if p.Flows > e.Flows {
				e = p
			}
		}
		err = st.Probe(func(x *deduce.State) error { return x.FuseVC(e.A, e.B) })
		if err == nil {
			if err := st.FuseVC(e.A, e.B); err != nil {
				return err
			}
			continue
		}
		if !deduce.IsContradiction(err) {
			return err
		}
		// Fusing is impossible: the pair must split (incompatible), which
		// inserts the communication.
		if err := st.SplitVC(e.A, e.B); err != nil {
			return err
		}
	}
}

func fuseAll(st *deduce.State, match []matching.Edge, order []int) error {
	for _, e := range match {
		if err := st.FuseVC(order[e.U], order[e.V]); err != nil {
			return err
		}
	}
	return nil
}

// stageMapping is stage 4: map the remaining virtual clusters onto
// physical clusters in decreasing VCG-degree order (the coloring order
// of Section 4.4.1.3), by fusing each with an anchor; every compatible
// anchor is studied and the best feasible one chosen.
func (s *scheduler) stageMapping(st *deduce.State) error {
	for {
		if err := s.checkTime(); err != nil {
			return err
		}
		reps := st.AppendUnmappedVCReps(s.reps[:0])
		s.reps = reps
		if len(reps) == 0 {
			return nil
		}
		// Decreasing incompatibility degree, ties in ascending order: the
		// first of the highest degree.
		rep, deg := reps[0], st.VC().Degree(reps[0])
		for _, r := range reps[1:] {
			if d := st.VC().Degree(r); d > deg {
				rep, deg = r, d
			}
		}
		cands := s.cands[:0]
		for kk := 0; kk < s.m.Clusters; kk++ {
			k := (kk + s.variant) % s.m.Clusters
			anchor, err := st.VC().Anchor(k)
			if err != nil {
				// k ranges over the machine's clusters and NewState created
				// one anchor per cluster, so this is an internal breakage.
				return fmt.Errorf("%w: stage mapping: %v", deduce.ErrInternal, err)
			}
			if st.VC().Incompatible(rep, anchor) {
				continue
			}
			cands = append(cands, candidate{kind: fuseVC, a: rep, b: anchor})
		}
		s.cands = cands
		if err := study(st, cands); err != nil {
			return err
		}
	}
}
