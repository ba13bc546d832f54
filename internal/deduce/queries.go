package deduce

import (
	"errors"
	"slices"

	"vcsched/internal/sched"
)

// isContradiction distinguishes genuine contradictions from budget
// exhaustion and programming errors.
func isContradiction(err error) bool { return errors.Is(err, ErrContradiction) }

// IsContradiction reports whether err is a DP contradiction.
func IsContradiction(err error) bool { return isContradiction(err) }

// Metrics summarizes a state for the candidate-comparison heuristics of
// Section 4.4.3. Pending PLCs are deliberately not counted as
// communications: penalizing a merely *possible* future copy as a full
// one biases stage 1 against parallelism (the study mechanism already
// discards alternatives whose communications cannot fit).
type Metrics struct {
	Comms    int // materialized communications (minimize)
	SumSlack int // total remaining freedom (minimize: more deduced, more compact)
	OutEdges int // value flows between distinct compatible VCs (minimize ratio)
	VCs      int // virtual clusters holding at least one instruction
}

// Better reports whether m is a better scheduling state than o under the
// paper's ordering: fewer communications first, then more compact, then
// a smaller outedge/VC ratio.
func (m Metrics) Better(o Metrics) bool {
	if m.Comms != o.Comms {
		return m.Comms < o.Comms
	}
	if m.SumSlack != o.SumSlack {
		return m.SumSlack < o.SumSlack
	}
	// Compare OutEdges/VCs < o.OutEdges/o.VCs without division.
	return m.OutEdges*max(o.VCs, 1) < o.OutEdges*max(m.VCs, 1)
}

// Metrics computes the comparison metrics of the current state. It runs
// after every candidate probe, so both counts below work over arena
// scratch (a seen-bitmap plus a touched-list to undo it) instead of
// per-call maps.
func (st *State) Metrics() (Metrics, error) {
	m := Metrics{Comms: len(st.comms)}
	for node := 0; node < len(st.est); node++ {
		m.SumSlack += st.lst[node] - st.est[node]
	}
	oe, err := st.outEdgeCount()
	if err != nil {
		return Metrics{}, err
	}
	m.OutEdges = oe
	m.VCs = st.instrVCCount()
	return m, nil
}

// instrVCCount counts VCs containing at least one instruction node
// (anchors alone do not count). The seen-bitmap invariant: all-false
// between calls (the touched list clears exactly the set entries).
func (st *State) instrVCCount() int {
	n := st.vc.Len()
	seen := claim(&st.ar.repSeen, n, n)
	touched := st.ar.repTouched[:0]
	count := 0
	for i := 0; i < st.nOrig; i++ {
		r := st.vc.Rep(st.vcID(i))
		if !seen[r] {
			seen[r] = true
			touched = append(touched, r)
			count++
		}
	}
	for _, r := range touched {
		seen[r] = false
	}
	st.ar.repTouched = touched[:0]
	return count
}

// outEdgeCount counts the distinct unordered pairs of VC representatives
// that are distinct, not incompatible, and joined by at least one value
// flow — len() of the former outEdgePairs map, without building it.
// Pair keys dedup through a bitset over rep-id pairs; the touched word
// list restores the all-zero invariant on every return path.
func (st *State) outEdgeCount() (int, error) {
	n := st.vc.Len()
	words := (n*n + 63) >> 6
	seen := claim(&st.ar.keySeen, words, words)
	touched := st.ar.keyTouched[:0]
	count := 0
	cleanup := func() {
		for _, w := range touched {
			seen[w] = 0
		}
		st.ar.keyTouched = touched[:0]
	}
	add := func(node, consumer int) {
		a := st.vc.Rep(node)
		b := st.vc.Rep(consumer)
		if a == b || st.vc.Incompatible(a, b) {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := a*n + b
		w := key >> 6
		bit := uint64(1) << uint(key&63)
		if seen[w]&bit == 0 {
			if seen[w] == 0 {
				touched = append(touched, w)
			}
			seen[w] |= bit
			count++
		}
	}
	for v := 0; v < st.nOrig; v++ {
		for _, c := range st.dataConsumers(v) {
			add(v, st.vcID(c))
		}
	}
	for li := range st.SB.LiveIns {
		node, err := st.valueVCNode(-(li + 1))
		if err != nil {
			cleanup()
			return 0, err
		}
		for _, c := range st.SB.LiveIns[li].Consumers {
			add(node, st.vcID(c))
		}
	}
	for oi, u := range st.SB.LiveOuts {
		anchor, err := st.vc.Anchor(st.pins.LiveOut[oi])
		if err != nil {
			cleanup()
			return 0, internalf("live-out %d: %v", u, err)
		}
		add(anchor, st.vcID(u))
	}
	cleanup()
	return count, nil
}

// OutEdge is one stage-3 outedge: an unordered pair A < B of VC
// representatives that are distinct and not incompatible, and the
// number of value flows crossing them (its matching-graph weight).
type OutEdge struct {
	A, B, Flows int
}

// AppendOutEdges appends the current outedges to dst in ascending (A,
// B) order, counting the flows of each pair, for the stage-3 matching
// graph. The pairs are gathered as packed keys in arena scratch and
// sorted as integers, so a call allocates nothing once dst has grown.
func (st *State) AppendOutEdges(dst []OutEdge) ([]OutEdge, error) {
	keys := claim(&st.ar.outKeys, 0, st.idx.flows)
	add := func(a, b int) {
		a, b = st.vc.Rep(a), st.vc.Rep(b)
		if a == b || st.vc.Incompatible(a, b) {
			return
		}
		keys = append(keys, uint64(min(a, b))<<32|uint64(max(a, b)))
	}
	for v := 0; v < st.nOrig; v++ {
		for _, c := range st.dataConsumers(v) {
			add(v, st.vcID(c))
		}
	}
	for li := range st.SB.LiveIns {
		if len(st.SB.LiveIns[li].Consumers) == 0 {
			continue
		}
		node, err := st.valueVCNode(-(li + 1))
		if err != nil {
			st.ar.outKeys = keys
			return dst, err
		}
		for _, c := range st.SB.LiveIns[li].Consumers {
			add(node, st.vcID(c))
		}
	}
	for oi, u := range st.SB.LiveOuts {
		anchor, err := st.vc.Anchor(st.pins.LiveOut[oi])
		if err != nil {
			st.ar.outKeys = keys
			return dst, internalf("live-out %d: %v", u, err)
		}
		add(anchor, st.vcID(u))
	}
	st.ar.outKeys = keys
	slices.Sort(keys)
	dst = slices.Grow(dst, len(keys))
	for i, k := range keys {
		if i > 0 && k == keys[i-1] {
			dst[len(dst)-1].Flows++
			continue
		}
		dst = append(dst, OutEdge{A: int(k >> 32), B: int(uint32(k)), Flows: 1})
	}
	return dst, nil
}

// OutEdges returns the current outedges as a multiset keyed by the
// representative pair (AppendOutEdges' pairs and counts).
func (st *State) OutEdges() (map[[2]int]int, error) {
	edges, err := st.AppendOutEdges(nil)
	if err != nil {
		return nil, err
	}
	out := make(map[[2]int]int, len(edges))
	for _, e := range edges {
		out[[2]int{e.A, e.B}] = e.Flows
	}
	return out, nil
}

// OpenPairs returns the first k indices of the pairs still Open in
// order of combination slack (fewest realizable placements first), ties
// by index: the paper's most-constraining-first candidate order for
// stages 1 and 5. It returns the whole order when fewer than k pairs
// are open. The slice is arena scratch, valid until the next query.
func (st *State) OpenPairs(k int) []int {
	sel := claim(&st.ar.sel, 0, min(k, len(st.pairs)))
	for i := range st.pairs {
		if st.pairs[i].status == Open {
			sel = insertKeyed(sel, k, keyed{key: st.pairSlack(i), item: i})
		}
	}
	return st.selected(sel)
}

// pairSlack measures the freedom of a pair: the combined window slack of
// its instructions plus its remaining combination count.
func (st *State) pairSlack(i int) int {
	p := &st.pairs[i]
	return st.Slack(int(p.u)) + st.Slack(int(p.v)) + st.combCount(i)
}

// UnpinnedInstrs returns the first k original instructions not yet
// fixed to a cycle, lowest slack first, ties by id (the stage-2
// candidate order). Like OpenPairs it returns the whole order when it
// is shorter, in arena scratch.
func (st *State) UnpinnedInstrs(k int) []int { return st.unpinned(0, st.nOrig, k) }

// UnpinnedCopies returns the first k communication nodes not yet fixed
// to a cycle, lowest slack first, ties by id (the stage-6 candidate
// order), as UnpinnedInstrs does.
func (st *State) UnpinnedCopies(k int) []int { return st.unpinned(st.nOrig, len(st.est), k) }

func (st *State) unpinned(lo, hi, k int) []int {
	sel := claim(&st.ar.sel, 0, min(k, hi-lo))
	for n := lo; n < hi; n++ {
		if !st.Pinned(n) {
			sel = insertKeyed(sel, k, keyed{key: st.Slack(n), item: n})
		}
	}
	return st.selected(sel)
}

// keyed is one candidate of a query with its sort key.
type keyed struct{ key, item int }

// insertKeyed adds c to sel, the at most k smallest candidates seen so
// far in (key, item) order. Candidates arrive in ascending item order,
// so c goes after every entry with a key no larger than its own, which
// keeps the order stable, and one past the k-th is dropped. Each key is
// computed once, and the queries need only the first few candidates of
// orders hundreds long, so one pass with an insertion beats a sort.
func insertKeyed(sel []keyed, k int, c keyed) []keyed {
	n := len(sel)
	if n == k {
		if k == 0 || sel[n-1].key <= c.key {
			return sel
		}
		n--
	} else {
		sel = append(sel, keyed{})
	}
	j := n
	for j > 0 && sel[j-1].key > c.key {
		sel[j] = sel[j-1]
		j--
	}
	sel[j] = c
	return sel
}

// selected keeps sel's buffer on the arena and returns its items.
func (st *State) selected(sel []keyed) []int {
	st.ar.sel = sel
	out := claim(&st.ar.selOut, 0, len(sel))
	for _, c := range sel {
		out = append(out, c.item)
	}
	st.ar.selOut = out
	return out
}

// AllPairsResolved reports whether every SG pair is Chosen or Dropped.
func (st *State) AllPairsResolved() bool {
	for i := range st.pairs {
		if st.pairs[i].status == Open {
			return false
		}
	}
	return true
}

// AllPinned reports whether every node (instructions and copies) is
// fixed to a cycle.
func (st *State) AllPinned() bool {
	for n := 0; n < len(st.est); n++ {
		if !st.Pinned(n) {
			return false
		}
	}
	return true
}

// AllMapped reports whether every instruction's VC is pinned to a
// physical cluster.
func (st *State) AllMapped() bool {
	for i := 0; i < st.nOrig; i++ {
		if _, ok := st.vc.PinnedPC(st.vcID(i)); !ok {
			return false
		}
	}
	return true
}

// UnmappedVCReps returns the representatives of instruction-bearing VCs
// not yet pinned to a physical cluster, ascending.
func (st *State) UnmappedVCReps() []int { return st.AppendUnmappedVCReps(nil) }

// AppendUnmappedVCReps appends UnmappedVCReps' representatives to dst,
// ascending, deduplicating through the arena's seen-bitmap as
// instrVCCount does.
func (st *State) AppendUnmappedVCReps(dst []int) []int {
	n := st.vc.Len()
	seen := claim(&st.ar.repSeen, n, n)
	first := len(dst)
	for i := 0; i < st.nOrig; i++ {
		r := st.vc.Rep(st.vcID(i))
		if seen[r] {
			continue
		}
		seen[r] = true
		dst = append(dst, r)
	}
	reps := dst[first:]
	for _, r := range reps {
		seen[r] = false
	}
	kept := reps[:0]
	for _, r := range reps {
		if _, ok := st.vc.PinnedPC(r); !ok {
			kept = append(kept, r)
		}
	}
	slices.Sort(kept)
	return dst[:first+len(kept)]
}

// ExtractSchedule converts a fully decided state (AllPinned, AllMapped)
// into a concrete schedule ready for validation.
func (st *State) ExtractSchedule() (*sched.Schedule, error) {
	if !st.AllPinned() {
		return nil, contraf("extract: nodes remain unpinned")
	}
	if !st.AllMapped() {
		return nil, contraf("extract: virtual clusters remain unmapped")
	}
	s := sched.New(st.SB, st.M, st.pins)
	for i := 0; i < st.nOrig; i++ {
		pc, _ := st.vc.PinnedPC(st.vcID(i))
		s.Place[i] = sched.Placement{Cycle: st.est[i], Cluster: pc}
	}
	for _, c := range st.comms {
		s.Comms = append(s.Comms, sched.Comm{Producer: c.Value, Cycle: st.est[c.Node]})
	}
	return s, nil
}
