package core

import (
	"fmt"
	"sort"

	"vcsched/internal/deduce"
	"vcsched/internal/matching"
)

// candidate is one studied alternative: a decision closure run against
// the live state inside a trail-scoped probe (deduce.State.Probe) for
// study, and applied for real when selected. onContra, when set,
// records mandatory knowledge on the live state if the study
// contradicts (e.g. "this combination is impossible — discard it").
type candidate struct {
	apply    func(st *deduce.State) error
	onContra func() error
	// fallback candidates (e.g. dropping a pair outright) are only
	// selected when every regular candidate contradicts.
	fallback bool
}

// study probes every candidate against st (each probe rolled back in
// O(changes) by the trail), drops the ones that contradict (applying
// their onContra knowledge), and commits the best survivor by the
// Section 4.4.3 metrics by re-applying it to the live state — the same
// double application the Clone-per-probe implementation performed, so
// budget accounting is unchanged. It returns errNoCandidates when every
// alternative contradicts.
func (s *scheduler) study(st *deduce.State, cands []candidate) error {
	best, bestFB := -1, -1
	var bestM, bestFBM deduce.Metrics
	for i := range cands {
		var m deduce.Metrics
		var mErr error
		err := st.Probe(func(x *deduce.State) error {
			if err := cands[i].apply(x); err != nil {
				return err
			}
			m, mErr = x.Metrics()
			return nil
		})
		if err != nil {
			if !deduce.IsContradiction(err) {
				return err
			}
			if cands[i].onContra != nil {
				if err := cands[i].onContra(); err != nil {
					return err
				}
			}
			continue
		}
		if mErr != nil {
			return mErr
		}
		if cands[i].fallback {
			if bestFB < 0 || m.Better(bestFBM) {
				bestFB, bestFBM = i, m
			}
		} else if best < 0 || m.Better(bestM) {
			best, bestM = i, m
		}
	}
	if best < 0 {
		best = bestFB
	}
	if best < 0 {
		return errNoCandidates
	}
	return cands[best].apply(st)
}

var errNoCandidates = fmt.Errorf("%w: every candidate contradicts", deduce.ErrContradiction)

// stageCombinations is stage 1: resolve every open SG pair between
// original instructions. Candidates come from the most constraining
// pairs; the alternatives per pair are each remaining combination plus
// dropping the pair entirely.
func (s *scheduler) stageCombinations(st *deduce.State) error {
	for {
		if err := s.checkTime(); err != nil {
			return err
		}
		pairs := s.candidatePairs(st)
		if len(pairs) == 0 {
			return nil
		}
		// Choosing a combination keeps parallelism available, so
		// dropping the pair is normally the last resort. The final retry
		// inverts that: a conservative, list-scheduler-like search
		// (prefer no-overlap, merge only when forced) that escapes dead
		// ends the aggressive merging runs into.
		conservative := s.variant%3 == 2
		var cands []candidate
		for _, pi := range pairs {
			p := st.PairAt(pi)
			u, v := p.U, p.V
			combs := p.Combs // PairAt materializes a fresh slice
			if s.variant%2 == 1 {
				reverse(combs)
			}
			for _, comb := range combs {
				comb := comb
				cands = append(cands, candidate{
					apply:    func(x *deduce.State) error { return x.ChooseComb(u, v, comb) },
					onContra: func() error { return st.DiscardComb(u, v, comb) },
					fallback: conservative,
				})
			}
			cands = append(cands, candidate{
				apply:    func(x *deduce.State) error { return x.DropPair(u, v) },
				fallback: !conservative,
			})
		}
		if err := s.study(st, cands); err != nil {
			return err
		}
	}
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
		cycles := spreadCycles(st.Est(node), st.Lst(node), cycleCandLimit)
		if s.variant%2 == 1 {
			reverse(cycles)
		}
		var cands []candidate
		for _, t := range cycles {
			t := t
			cands = append(cands, candidate{
				apply: func(x *deduce.State) error { return x.FixCycle(node, t) },
				onContra: func() error {
					// Boundary contradictions tighten the live window.
					if t == st.Est(node) {
						return st.TightenEst(node, t+1)
					}
					if t == st.Lst(node) {
						return st.TightenLst(node, t-1)
					}
					return nil
				},
			})
		}
		if err := s.study(st, cands); err != nil {
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

// spreadCycles picks up to limit cycles from [est, lst], always
// including both boundaries and spreading the rest evenly.
func spreadCycles(est, lst, limit int) []int {
	n := lst - est + 1
	if n <= limit {
		out := make([]int, 0, n)
		for t := est; t <= lst; t++ {
			out = append(out, t)
		}
		return out
	}
	out := make([]int, 0, limit)
	for i := 0; i < limit; i++ {
		t := est + i*(n-1)/(limit-1)
		if len(out) == 0 || out[len(out)-1] != t {
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
		out, err := st.OutEdges()
		if err != nil {
			return err
		}
		if len(out) == 0 {
			return nil
		}
		// Build the matching graph over VC representatives. out is a Go
		// map: sort the pairs before numbering nodes and emitting edges,
		// or the matching input (and thus tie-breaking between
		// equal-weight matchings) would vary run to run.
		type pairW struct{ a, b, w int }
		all := make([]pairW, 0, len(out))
		for p, w := range out {
			all = append(all, pairW{p[0], p[1], w})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].a != all[j].a {
				return all[i].a < all[j].a
			}
			return all[i].b < all[j].b
		})
		repIdx := make(map[int]int)
		var order []int
		idx := func(r int) int {
			if i, ok := repIdx[r]; ok {
				return i
			}
			repIdx[r] = len(order)
			order = append(order, r)
			return len(order) - 1
		}
		edges := make([]matching.Edge, 0, len(all))
		for _, p := range all {
			edges = append(edges, matching.Edge{U: idx(p.a), V: idx(p.b), Weight: p.w})
		}
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
		// highest-weight outedge individually.
		sort.Slice(all, func(i, j int) bool {
			if all[i].w != all[j].w {
				return all[i].w > all[j].w
			}
			if all[i].a != all[j].a {
				return all[i].a < all[j].a
			}
			return all[i].b < all[j].b
		})
		e := all[0]
		err = st.Probe(func(x *deduce.State) error { return x.FuseVC(e.a, e.b) })
		if err == nil {
			if err := st.FuseVC(e.a, e.b); err != nil {
				return err
			}
			continue
		}
		if !deduce.IsContradiction(err) {
			return err
		}
		// Fusing is impossible: the pair must split (incompatible), which
		// inserts the communication.
		if err := st.SplitVC(e.a, e.b); err != nil {
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
		reps := st.UnmappedVCReps()
		if len(reps) == 0 {
			return nil
		}
		// Decreasing incompatibility degree.
		sort.SliceStable(reps, func(i, j int) bool {
			return st.VC().Degree(reps[i]) > st.VC().Degree(reps[j])
		})
		rep := reps[0]
		var cands []candidate
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
			cands = append(cands, candidate{
				apply: func(x *deduce.State) error { return x.FuseVC(rep, anchor) },
			})
		}
		if err := s.study(st, cands); err != nil {
			return err
		}
	}
}
