package deduce

import (
	"errors"
	"sort"

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
		for _, c := range st.SB.DataConsumers(v) {
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

// outEdgePairs collects, per unordered pair of VC representatives that
// are distinct and not incompatible, the number of value flows crossing
// them (the stage-3 outedges and the matching-graph weights). Cold path:
// only the mapping stage needs the multiset, so it keeps the map form.
func (st *State) outEdgePairs() (map[[2]int]int, error) {
	out := make(map[[2]int]int)
	add := func(value, consumer int) error {
		node, err := st.valueVCNode(value)
		if err != nil {
			return err
		}
		a := st.vc.Rep(node)
		b := st.vc.Rep(st.vcID(consumer))
		if a == b || st.vc.Incompatible(a, b) {
			return nil
		}
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
		return nil
	}
	for v := 0; v < st.nOrig; v++ {
		for _, c := range st.SB.DataConsumers(v) {
			if err := add(v, c); err != nil {
				return nil, err
			}
		}
	}
	for li := range st.SB.LiveIns {
		for _, c := range st.SB.LiveIns[li].Consumers {
			if err := add(-(li + 1), c); err != nil {
				return nil, err
			}
		}
	}
	for oi, u := range st.SB.LiveOuts {
		anchor, err := st.vc.Anchor(st.pins.LiveOut[oi])
		if err != nil {
			return nil, internalf("live-out %d: %v", u, err)
		}
		a, b := st.vc.Rep(anchor), st.vc.Rep(st.vcID(u))
		if a == b || st.vc.Incompatible(a, b) {
			continue
		}
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
	}
	return out, nil
}

// OutEdges exposes the current outedge multiset for the stage-3 matching
// graph.
func (st *State) OutEdges() (map[[2]int]int, error) { return st.outEdgePairs() }

// OpenPairs returns the indices of pairs still Open, sorted by
// combination slack (fewest realizable placements first) — the paper's
// most-constraining-first candidate order for stages 1 and 5.
func (st *State) OpenPairs() []int {
	var idx []int
	for i := range st.pairs {
		if st.pairs[i].status == Open {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return st.pairSlack(idx[a]) < st.pairSlack(idx[b])
	})
	return idx
}

// pairSlack measures the freedom of a pair: the combined window slack of
// its instructions plus its remaining combination count.
func (st *State) pairSlack(i int) int {
	p := &st.pairs[i]
	return st.Slack(int(p.u)) + st.Slack(int(p.v)) + st.combCount(i)
}

// UnpinnedInstrs returns the original instructions not yet fixed to a
// cycle, lowest slack first (the stage-2 candidate order).
func (st *State) UnpinnedInstrs() []int { return st.unpinned(0, st.nOrig) }

// UnpinnedCopies returns the communication nodes not yet fixed to a
// cycle, lowest slack first (the stage-6 candidate order).
func (st *State) UnpinnedCopies() []int { return st.unpinned(st.nOrig, len(st.est)) }

func (st *State) unpinned(lo, hi int) []int {
	var nodes []int
	for n := lo; n < hi; n++ {
		if !st.Pinned(n) {
			nodes = append(nodes, n)
		}
	}
	sort.SliceStable(nodes, func(a, b int) bool {
		return st.Slack(nodes[a]) < st.Slack(nodes[b])
	})
	return nodes
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
// not yet pinned to a physical cluster.
func (st *State) UnmappedVCReps() []int {
	seen := make(map[int]bool)
	var reps []int
	for i := 0; i < st.nOrig; i++ {
		r := st.vc.Rep(st.vcID(i))
		if seen[r] {
			continue
		}
		seen[r] = true
		if _, ok := st.vc.PinnedPC(r); !ok {
			reps = append(reps, r)
		}
	}
	sort.Ints(reps)
	return reps
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
