package deduce

import "math/bits"

// This file implements the per-pair combination sets as fixed-width
// bitsets: every pair owns combW words of st.combWords, bit b of the
// set standing for combination base+b. Discarding a combination is a
// bit clear, the U2 feasibility intersection is a word AND against a
// contiguous range mask (sg.CombFeasibleAt holds exactly for c in
// [est(U)−lst(V), lst(U)−est(V)]), and the remaining-combination count
// is a popcount. Every word mutation is trailed at word granularity
// and stamps its pair (setCombWord), so speculation stays O(changed
// words) and propagation revisits exactly the changed pairs.

// pairRec is the flat per-pair record. Combination membership lives in
// the state's combWords; base/nbits fix the bit ↔ combination mapping
// for the pair's lifetime (the original feasible span of its SG edge).
type pairRec struct {
	u, v   int32
	base   int32 // combination value of bit 0
	nbits  int32 // fixed width of the pair's bit range
	comb   int32 // chosen combination, valid when status == Chosen
	status PairStatus
}

// setCombWord assigns word w of pair i's combination bitset, recording
// the old value on the trail and stamping the pair.
func (st *State) setCombWord(i, w int, nw uint64) {
	gw := i*st.idx.combW + w
	old := st.combWords[gw]
	if old == nw {
		return
	}
	if st.tr != nil {
		st.tr.entries = append(st.tr.entries, trailEntry{kind: tCombWord, a: gw, w: old})
	}
	st.combWords[gw] = nw
	st.stampPair(i)
}

// combHas reports whether combination c remains in pair i's set.
func (st *State) combHas(i, c int) bool {
	p := &st.pairs[i]
	b := c - int(p.base)
	if b < 0 || b >= int(p.nbits) {
		return false
	}
	return st.combWords[i*st.idx.combW+(b>>6)]&(1<<uint(b&63)) != 0
}

// combCount returns the number of remaining combinations of pair i.
func (st *State) combCount(i int) int {
	base := i * st.idx.combW
	n := 0
	for w := 0; w < st.idx.combW; w++ {
		n += bits.OnesCount64(st.combWords[base+w])
	}
	return n
}

// combFirst returns the smallest remaining combination of pair i.
func (st *State) combFirst(i int) (int, bool) {
	p := &st.pairs[i]
	base := i * st.idx.combW
	for w := 0; w < st.idx.combW; w++ {
		if x := st.combWords[base+w]; x != 0 {
			return int(p.base) + w<<6 + bits.TrailingZeros64(x), true
		}
	}
	return 0, false
}

// combClear removes combination c from pair i (no-op when absent).
func (st *State) combClear(i, c int) {
	p := &st.pairs[i]
	b := c - int(p.base)
	if b < 0 || b >= int(p.nbits) {
		return
	}
	w := b >> 6
	st.setCombWord(i, w, st.combWords[i*st.idx.combW+w]&^(1<<uint(b&63)))
}

// combClearAll empties pair i's set.
func (st *State) combClearAll(i int) {
	for w := 0; w < st.idx.combW; w++ {
		st.setCombWord(i, w, 0)
	}
}

// combSetOnly reduces pair i's set to the singleton {c}.
func (st *State) combSetOnly(i, c int) {
	p := &st.pairs[i]
	b := c - int(p.base)
	for w := 0; w < st.idx.combW; w++ {
		var nw uint64
		if b>>6 == w {
			nw = 1 << uint(b&63)
		}
		st.setCombWord(i, w, nw)
	}
}

// rangeMaskWord returns the mask of bits b in the word starting at bit
// offset ws with lo <= ws+b <= hi.
func rangeMaskWord(ws, lo, hi int) uint64 {
	lo -= ws
	hi -= ws
	if hi < 0 || lo > 63 {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi > 63 {
		hi = 63
	}
	m := ^uint64(0) << uint(lo)
	if hi < 63 {
		m &= 1<<uint(hi+1) - 1
	}
	return m
}

// combPruneWindow intersects pair i's set with the combinations
// feasible inside the current bound windows (rule U2) and returns how
// many were dropped. Feasibility is the contiguous range
// [est(U)−lst(V), lst(U)−est(V)], so the intersection is one AND per
// word.
func (st *State) combPruneWindow(i int) int {
	p := &st.pairs[i]
	lo := st.est[p.u] - st.lst[p.v]
	hi := st.lst[p.u] - st.est[p.v]
	loB := lo - int(p.base)
	hiB := hi - int(p.base)
	base := i * st.idx.combW
	dropped := 0
	for w := 0; w < st.idx.combW; w++ {
		old := st.combWords[base+w]
		if old == 0 {
			continue
		}
		nw := old & rangeMaskWord(w<<6, loB, hiB)
		if nw != old {
			dropped += bits.OnesCount64(old ^ nw)
			st.setCombWord(i, w, nw)
		}
	}
	return dropped
}

// appendCombs appends pair i's remaining combinations to dst in
// increasing order.
func (st *State) appendCombs(dst []int, i int) []int {
	p := &st.pairs[i]
	base := i * st.idx.combW
	for w := 0; w < st.idx.combW; w++ {
		x := st.combWords[base+w]
		for x != 0 {
			b := bits.TrailingZeros64(x)
			x &^= 1 << uint(b)
			dst = append(dst, int(p.base)+w<<6+b)
		}
	}
	return dst
}
