package deduce

import (
	"math/bits"
	"slices"

	"vcsched/internal/ir"
	"vcsched/internal/sg"
)

// families are the rule families of one propagation pass, in pass
// order.
var families = [...]func(*State) (bool, error){
	(*State).propagateBounds,
	(*State).ruleCCCoherence,
	(*State).rulePrunePairs,
	(*State).ruleCCResources,
	(*State).rulePinnedResources,
	(*State).ruleClusterEdges,
	(*State).ruleCPLC,
	(*State).rulePPLC,
	(*State).ruleWindowPacking,
}

// Propagate runs every rule family to a fixpoint, returning nil, a
// contradiction, or ErrBudget. It is the paper's deduction process: each
// pass may conclude new mandatory changes, which are themselves fed back
// in until nothing changes.
//
// Passes are change-driven (stamps.go): at its turn each family skips
// the pairs, classes or whole sweep whose inputs did not change since
// its last clean run. A skipped item is one a full sweep would leave
// untouched, so every pass makes the mutations of a full sweep in the
// same order, fails with the same first error and spends the same step.
// Any error resets every memo to never; a nil return marks the state a
// clean fixpoint, which a later rollback can restore with its memos.
func (st *State) Propagate() error {
	if err := st.propagate(); err != nil {
		st.memo = memos{}
		st.fix = fixpoint{}
		return err
	}
	st.markFixpoint()
	return nil
}

func (st *State) propagate() error {
	if err := injectFault("deduce.propagate"); err != nil {
		return err
	}
	for {
		if err := st.budget.spend(); err != nil {
			return err
		}
		changed := false
		for _, f := range families {
			st.syncVersions()
			ch, err := f(st)
			if err != nil {
				return err
			}
			changed = changed || ch
		}
		if err := st.ruleCliqueVeto(); err != nil {
			return err
		}
		if !changed {
			return nil
		}
	}
}

// propagateBounds is rule U1: earliest starts forward and latest starts
// backward over all precedence arcs, plus coherence inside connected
// components (members move together at fixed offsets). It runs to its
// own fixpoint, so its memo is the clock at the end of a clean run:
// with no bound, arc or component change since, a sweep is a no-op.
func (st *State) propagateBounds() (bool, error) {
	if max(st.stamp.bounds, st.stamp.arcs, st.stamp.cc) <= st.memo.bounds {
		return false, nil
	}
	changed := false
	for {
		pass := false
		for _, a := range st.arcs {
			if v := st.est[a.From] + a.Lat; v > st.est[a.To] {
				st.setEst(a.To, v)
				pass = true
			}
			if v := st.lst[a.To] - a.Lat; v < st.lst[a.From] {
				st.setLst(a.From, v)
				pass = true
			}
		}
		if ch, err := st.ccBounds(); err != nil {
			return changed, err
		} else if ch {
			pass = true
		}
		if !pass {
			break
		}
		changed = true
	}
	for i := range st.est {
		if st.est[i] > st.lst[i] {
			return changed, contraf("node %d window empty: [%d,%d]", i, st.est[i], st.lst[i])
		}
	}
	st.memo.bounds = st.ar.clock
	return changed, nil
}

// ccBounds aligns the bounds of connected-component members: with
// Cyc(x) = Cyc(root) + off(x), the component-wide feasible root window
// is the intersection of every member's window shifted by its offset.
func (st *State) ccBounds() (bool, error) {
	g := st.ccGroups()
	changed := false
	for gi, root := range g.roots {
		members := g.members[g.start[gi]:g.start[gi+1]]
		if len(members) < 2 {
			continue
		}
		lo, hi := -1<<30, 1<<30
		for _, m := range members {
			_, off := st.cc.Find(m)
			if v := st.est[m] - off; v > lo {
				lo = v
			}
			if v := st.lst[m] - off; v < hi {
				hi = v
			}
		}
		if lo > hi {
			return changed, contraf("connected component of %d has empty window", root)
		}
		for _, m := range members {
			_, off := st.cc.Find(m)
			if st.est[m] < lo+off {
				st.setEst(m, lo+off)
				changed = true
			}
			if st.lst[m] > hi+off {
				st.setLst(m, hi+off)
				changed = true
			}
		}
	}
	return changed, nil
}

// ruleCCCoherence resolves pairs whose relative offset became known
// through transitive component merges (rule U3): the implied combination
// is auto-chosen if still available, the pair is dropped if the offset
// precludes overlap, and a discarded-but-implied combination is a
// contradiction. A pair's inputs are its own record and the components.
// Only an Open pair inside one component can be resolved, and after a
// clean run there is none; a pair gets there only through a change to
// its own record or through a merge of the components of its two ends,
// and commitComb stamps the pairs a merge joins (stampJoinedPairs). So
// the stamped pairs are the only ones to revisit.
func (st *State) ruleCCCoherence() (bool, error) {
	memo := st.memo.coherence
	if st.stamp.pairs <= memo {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for wi, w := range st.dirtyPairs(memo, false) {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			p := &st.pairs[i]
			if p.status != Open {
				continue
			}
			delta, same := st.cc.Delta(int(p.u), int(p.v))
			if !same {
				continue
			}
			lo, hi := sg.CombRange(st.lat[p.u], st.lat[p.v])
			if delta < lo || delta > hi {
				st.touchPair(i)
				p.status = Dropped
				st.combClearAll(i)
				changed = true
				continue
			}
			if !st.combHas(i, delta) {
				return changed, contraf("pair (%d,%d): implied combination %d already discarded", p.u, p.v, delta)
			}
			st.touchPair(i)
			p.status = Chosen
			p.comb = int32(delta)
			st.combSetOnly(i, delta)
			changed = true
		}
	}
	st.memo.coherence = start
	return changed, nil
}

// dirtyPairs returns, as a bitset over pair indexes in arena scratch,
// the pairs a pair rule with the given memo must revisit: each pair
// whose own stamp is newer than memo and, with bounds, each pair with
// an endpoint whose bounds moved since (sgIndex.incident). Blocks of 64
// pairs whose newest stamp is at most memo are skipped whole. The set
// is fixed when the sweep starts. Pairs stamped during the sweep (by a
// D1 choice's merge, say) are newer than the memo the sweep leaves, so
// the next run revisits them; visiting a pair a full sweep would leave
// alone changes nothing, so that costs a visit, not a difference.
func (st *State) dirtyPairs(memo uint64, bounds bool) []uint64 {
	pw := st.idx.pairW
	d := claim(&st.ar.dirty, pw, pw)
	clear(d)
	if bounds && st.stamp.bounds > memo {
		for n := 0; n < st.nOrig; n++ {
			if st.stamp.node[n] <= memo {
				continue
			}
			row := st.idx.incident[n*pw : (n+1)*pw]
			for k, w := range row {
				d[k] |= w
			}
		}
	}
	if st.stamp.pairs > memo {
		for b, newest := range st.stamp.pairBlk {
			if newest <= memo {
				continue
			}
			for k, s := range st.stamp.pair[b<<6 : min(b<<6+64, len(st.pairs))] {
				if s > memo {
					d[b] |= 1 << uint(k)
				}
			}
		}
	}
	return d
}

// rulePrunePairs is rule U2 plus deduction rule D1: combinations whose
// offset cannot be realized inside the current windows are discarded —
// feasibility is a contiguous offset range, so the discard is one AND
// per bitset word (combPruneWindow); if the pair is forced to overlap,
// a single surviving combination is mandatory (chosen), and zero
// surviving combinations contradict. A pair's inputs are its own record
// and the bounds of its two instructions; only pairs with a changed
// input are revisited, found through dirtyPairs.
func (st *State) rulePrunePairs() (bool, error) {
	memo := st.memo.prune
	if max(st.stamp.bounds, st.stamp.pairs) <= memo {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for wi, w := range st.dirtyPairs(memo, true) {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			p := &st.pairs[i]
			if p.status == Dropped {
				if st.mustOverlap(int(p.u), int(p.v)) {
					return changed, contraf("pair (%d,%d) dropped but forced to overlap", p.u, p.v)
				}
				continue
			}
			if st.combPruneWindow(i) > 0 {
				changed = true
			}
			n := st.combCount(i)
			if p.status == Chosen {
				if n == 0 {
					return changed, contraf("pair (%d,%d): chosen combination %d became infeasible", p.u, p.v, p.comb)
				}
				continue
			}
			if n == 0 {
				st.touchPair(i)
				p.status = Dropped
				changed = true
				if st.mustOverlap(int(p.u), int(p.v)) {
					return changed, contraf("pair (%d,%d): no combination left but overlap forced", p.u, p.v)
				}
				continue
			}
			if n == 1 && st.mustOverlap(int(p.u), int(p.v)) {
				// D1: mandatory choice.
				c, _ := st.combFirst(i)
				if err := st.commitComb(i, c); err != nil {
					return changed, err
				}
				changed = true
			}
		}
	}
	st.memo.prune = start
	return changed, nil
}

func (st *State) mustOverlap(u, v int) bool {
	return sg.MustOverlap(st.est[u], st.lst[u], st.lat[u], st.est[v], st.lst[v], st.lat[v])
}

// commitComb records a chosen combination for pair i: pair state plus
// the offset relation in the connected-component structure. It is the
// only caller of OffsetUF.Relate, so every merge stamps the pairs it
// joins first.
func (st *State) commitComb(i, comb int) error {
	st.touchPair(i)
	p := &st.pairs[i]
	p.status = Chosen
	p.comb = int32(comb)
	st.combSetOnly(i, comb)
	if !st.cc.Same(int(p.u), int(p.v)) {
		st.stampJoinedPairs(int(p.u), int(p.v))
	}
	if err := st.cc.Relate(int(p.u), int(p.v), comb); err != nil {
		return contraf("pair (%d,%d): offset %d conflicts with connected components", p.u, p.v, comb)
	}
	return nil
}

// stampJoinedPairs stamps every Open pair with one end in a's component
// and the other in b's, just before the two merge: those are the pairs
// the merge puts inside one component, where ruleCCCoherence resolves
// them. It walks the member list of the smaller component and the
// incident pairs of each member.
func (st *State) stampJoinedPairs(a, b int) {
	if st.cc.SetSize(a) > st.cc.SetSize(b) {
		a, b = b, a
	}
	rb, _ := st.cc.Find(b)
	pw := st.idx.pairW
	for m := a; ; {
		for k, w := range st.idx.incident[m*pw : (m+1)*pw] {
			for ; w != 0; w &= w - 1 {
				j := k<<6 | bits.TrailingZeros64(w)
				q := &st.pairs[j]
				if q.status != Open {
					continue
				}
				if r, _ := st.cc.Find(int(q.u) + int(q.v) - m); r == rb {
					st.stampPair(j)
				}
			}
		}
		if m = st.cc.NextMember(m); m == a {
			return
		}
	}
}

// sortTriples stable-sorts the resource scratch rows by (key, class),
// preserving the collection order inside each group.
func sortTriples(trips []resTriple) {
	slices.SortStableFunc(trips, func(a, b resTriple) int {
		if a.key != b.key {
			return a.key - b.key
		}
		return int(a.class) - int(b.class)
	})
}

// ruleCCResources analyses resource usage inside connected components
// (rule U3's resource half): members at one relative cycle issue
// together in any schedule, so their per-class count must fit the
// machine, and with single-unit clusters same-class co-issuers must
// spread across clusters (rule D3 / paper Rule 2). Its inputs are the
// components and the VCG alone.
func (st *State) ruleCCResources() (bool, error) {
	if max(st.stamp.cc, st.stamp.vc) <= st.memo.ccRes {
		return false, nil
	}
	start := st.ar.clock
	g := st.ccGroups()
	changed := false
	for gi := range g.roots {
		members := g.members[g.start[gi]:g.start[gi+1]]
		if len(members) < 2 {
			continue
		}
		trips := st.ar.trips[:0]
		for _, m := range members {
			_, off := st.cc.Find(m)
			trips = append(trips, resTriple{key: off, class: st.class[m], node: m})
		}
		st.ar.trips = trips
		sortTriples(trips)
		ch, err := st.spreadTripleRuns(trips)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	st.memo.ccRes = start
	return changed, nil
}

// spreadTripleRuns walks the sorted (key, class) runs of the resource
// scratch and spreads every certain co-issue group of two or more.
func (st *State) spreadTripleRuns(trips []resTriple) (bool, error) {
	changed := false
	for s := 0; s < len(trips); {
		e := s + 1
		for e < len(trips) && trips[e].key == trips[s].key && trips[e].class == trips[s].class {
			e++
		}
		if e-s >= 2 {
			nodes := st.ar.groupNodes[:0]
			for k := s; k < e; k++ {
				nodes = append(nodes, trips[k].node)
			}
			st.ar.groupNodes = nodes
			ch, err := st.spreadAcrossClusters(nodes, trips[s].class)
			if err != nil {
				return changed, err
			}
			changed = changed || ch
		}
		s = e
	}
	return changed, nil
}

// rulePinnedResources applies the same co-issue analysis to nodes pinned
// to absolute cycles, and checks bus capacity among pinned copies. Its
// inputs are the bounds and the VCG.
func (st *State) rulePinnedResources() (bool, error) {
	if max(st.stamp.bounds, st.stamp.vc) <= st.memo.pinned {
		return false, nil
	}
	start := st.ar.clock
	trips := st.ar.trips[:0]
	pinnedCopies := st.ar.pinnedCopies[:0]
	for node := 0; node < len(st.est); node++ {
		if !st.Pinned(node) {
			continue
		}
		if st.class[node] == ir.Copy {
			pinnedCopies = append(pinnedCopies, node)
			continue
		}
		trips = append(trips, resTriple{key: st.est[node], class: st.class[node], node: node})
	}
	st.ar.trips, st.ar.pinnedCopies = trips, pinnedCopies
	sortTriples(trips)
	changed, err := st.spreadTripleRuns(trips)
	if err != nil {
		return changed, err
	}
	// Bus capacity among pinned copies: each occupies BusOccupancy
	// cycles. Copies never start after End − BusLatency, so End + occ
	// bounds every occupied cycle.
	if len(pinnedCopies) > 0 {
		occ := st.M.BusOccupancy()
		use := claim(&st.ar.busUse, st.End+occ+2, st.End+occ+2)
		clear(use)
		for _, node := range pinnedCopies {
			for t := st.est[node]; t < st.est[node]+occ; t++ {
				use[t]++
				if use[t] > st.M.Buses {
					return changed, contraf("cycle %d: %d pinned copies exceed %d bus(es)", t, use[t], st.M.Buses)
				}
			}
		}
	}
	st.memo.pinned = start
	return changed, nil
}

// spreadAcrossClusters handles a set of same-class nodes that certainly
// issue in the same cycle: more than the machine holds is a
// contradiction, and so is one virtual cluster holding more of them
// than the fattest cluster has units (a VC lands on one cluster); with
// single-unit clusters every pair must go to different clusters (their
// VCs become incompatible — paper Rule 2).
func (st *State) spreadAcrossClusters(nodes []int, class ir.Class) (bool, error) {
	if len(nodes) > st.M.TotalFU(class) {
		return false, contraf("%d %s instructions forced into one cycle on a machine with %d unit(s)",
			len(nodes), class, st.M.TotalFU(class))
	}
	if fat := st.M.MaxClusterFU(class); fat != 1 {
		// Multi-unit clusters yield no pairwise facts, only a cap per VC.
		for _, u := range nodes {
			same := 0
			for _, w := range nodes {
				if st.vc.SameVC(st.vcID(u), st.vcID(w)) {
					same++
				}
			}
			if same > fat {
				return false, contraf("%d %s instructions share a cycle and a virtual cluster; no cluster has more than %d %s unit(s)",
					same, class, fat, class)
			}
		}
		return false, nil
	}
	changed := false
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := st.vcID(nodes[i]), st.vcID(nodes[j])
			if st.vc.Incompatible(a, b) {
				continue
			}
			if st.vc.SameVC(a, b) {
				return changed, contraf("instructions %d and %d share a cycle and a virtual cluster with one %s unit per cluster",
					nodes[i], nodes[j], class)
			}
			if err := st.vc.SetIncompatible(a, b); err != nil {
				return changed, contraf("cannot spread %d and %d: %v", nodes[i], nodes[j], err)
			}
			changed = true
		}
	}
	return changed, nil
}

// ruleClusterEdges walks every value flow (data edges, live-in
// consumers, live-out pins) and applies the cluster rules: a definite
// cross-cluster flow materializes its communication (U4); a flow with no
// room for a communication fuses the two VCs (D4 / paper Rule 1); a
// fused flow needs nothing. Its inputs are the bounds, arcs,
// communications and the VCG.
func (st *State) ruleClusterEdges() (bool, error) {
	if max(st.stamp.bounds, st.stamp.arcs, st.stamp.comms, st.stamp.vc) <= st.memo.flows {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for _, e := range st.SB.Edges {
		if e.Kind != ir.Data {
			continue
		}
		ch, err := st.handleFlow(e.From, e.To)
		changed = changed || ch
		if err != nil {
			return changed, err
		}
	}
	for li := range st.SB.LiveIns {
		for _, c := range st.SB.LiveIns[li].Consumers {
			ch, err := st.handleFlow(-(li + 1), c)
			changed = changed || ch
			if err != nil {
				return changed, err
			}
		}
	}
	for oi, u := range st.SB.LiveOuts {
		ch, err := st.handleLiveOut(u, st.pins.LiveOut[oi])
		changed = changed || ch
		if err != nil {
			return changed, err
		}
	}
	st.memo.flows = start
	return changed, nil
}

// handleFlow treats one value→consumer flow.
func (st *State) handleFlow(value, consumer int) (bool, error) {
	pNode, err := st.valueVCNode(value)
	if err != nil {
		return false, err
	}
	cNode := st.vcID(consumer)
	if st.vc.SameVC(pNode, cNode) {
		return false, nil
	}
	if st.vc.Incompatible(pNode, cNode) {
		// Definite cross-cluster flow: the value must be broadcast, and
		// the consumer waits for the bus (U4).
		node, ch, err := st.ensureComm(value)
		if err != nil {
			return ch, err
		}
		if st.addArc(node, consumer, st.M.BusLatency) {
			ch = true
		}
		return ch, nil
	}
	// Undecided: is there room for a communication if they split? The
	// copy must issue at or after the value is ready and arrive by the
	// consumer's latest start.
	if st.M.Buses > 0 && st.valueReadyEst(value)+st.M.BusLatency <= st.lst[consumer] {
		return false, nil
	}
	// No room (or no bus): they must share a cluster (D4).
	if err := st.vc.Fuse(pNode, cNode); err != nil {
		return false, contraf("flow %d→%d must fuse but cannot: %v", value, consumer, err)
	}
	return true, nil
}

// handleLiveOut treats a live-out value pinned to physical cluster pc:
// like a consumer at the anchor whose latest start is the region end.
func (st *State) handleLiveOut(u, pc int) (bool, error) {
	anchor, err := st.vc.Anchor(pc)
	if err != nil {
		return false, internalf("live-out %d: %v", u, err)
	}
	uNode := st.vcID(u)
	if st.vc.SameVC(uNode, anchor) {
		return false, nil
	}
	if st.vc.Incompatible(uNode, anchor) {
		node, ch, err := st.ensureComm(u)
		if err != nil {
			return ch, err
		}
		// The copy must complete by the region end.
		if st.lst[node] > st.End-st.M.BusLatency {
			st.setLst(node, st.End-st.M.BusLatency)
			ch = true
		}
		return ch, nil
	}
	if st.M.Buses > 0 && st.valueReadyEst(u)+st.M.BusLatency <= st.End {
		return false, nil
	}
	if err := st.vc.Fuse(uNode, anchor); err != nil {
		return false, contraf("live-out %d must stay in cluster %d but cannot: %v", u, pc, err)
	}
	return true, nil
}

// ensureComm materializes the (single, broadcast) communication for a
// value. Returns the copy's state node.
func (st *State) ensureComm(value int) (node int, changed bool, err error) {
	if n := st.commFor(value); n >= 0 {
		return st.comms[n].Node, false, nil
	}
	if st.M.Buses < 1 {
		return 0, false, contraf("value %d needs a communication but the machine has no bus", value)
	}
	est := st.valueReadyEst(value)
	lst := st.End - st.M.BusLatency
	if est > lst {
		return 0, false, contraf("communication of value %d cannot fit: ready %d, deadline %d", value, est, lst)
	}
	home, err := st.valueVCNode(value)
	if err != nil {
		return 0, false, err
	}
	node, err = st.addNode(ir.Copy, st.M.BusLatency, est, lst)
	if err != nil {
		return 0, false, err
	}
	st.commIdx[st.commSlot(value)] = int32(len(st.comms))
	st.comms = append(st.comms, commRec{Node: node, Value: value})
	st.trailMark(tCommAdd)
	st.stamp.comms = st.tick()
	// The copy executes in the value's home cluster.
	if err := st.vc.Fuse(st.vcID(node), home); err != nil {
		return 0, true, contraf("copy of value %d cannot join its producer's VC: %v", value, err)
	}
	if value >= 0 {
		st.addArc(value, node, st.lat[value])
	}
	return node, true, nil
}

// ruleCPLC is paper-style consumer-driven communication deduction: two
// consumers of one value in incompatible VCs cannot both sit with the
// producer, so the value's communication is mandatory even though which
// consumer is remote is unknown (C-PLC, immediately a concrete copy in
// the broadcast model). Its deadline is bounded by the later of the two
// consumers. Its inputs are the bounds, communications and the VCG.
func (st *State) ruleCPLC() (bool, error) {
	if max(st.stamp.bounds, st.stamp.comms, st.stamp.vc) <= st.memo.cplc {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	nVals := st.nOrig + len(st.SB.LiveIns)
	for vi := 0; vi < nVals; vi++ {
		v := vi
		if vi >= st.nOrig {
			v = -(vi - st.nOrig + 1)
		}
		consumers := st.consumersOf(v)
		if len(consumers) < 2 {
			continue
		}
		for i := 0; i < len(consumers); i++ {
			for j := i + 1; j < len(consumers); j++ {
				c1, c2 := consumers[i], consumers[j]
				if !st.vc.Incompatible(st.vcID(c1), st.vcID(c2)) {
					continue
				}
				node, ch, err := st.ensureComm(v)
				changed = changed || ch
				if err != nil {
					return changed, err
				}
				// At least one of c1, c2 reads from the bus.
				deadline := max(st.lst[c1], st.lst[c2]) - st.M.BusLatency
				if st.lst[node] > deadline {
					st.setLst(node, deadline)
					changed = true
				}
			}
		}
	}
	st.memo.cplc = start
	return changed, nil
}

// rulePPLC is paper Rule 5: a consumer whose producers sit in
// incompatible VCs will receive at least one value over the bus, so its
// earliest start moves past the earliest possible arrival, and a PLC
// records the pending bus demand until one alternative materializes.
// Its inputs are the bounds, PLCs and the VCG.
func (st *State) rulePPLC() (bool, error) {
	if max(st.stamp.bounds, st.stamp.plcs, st.stamp.vc) <= st.memo.pplc {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for c := 0; c < st.nOrig; c++ {
		values := st.idx.consVals[st.idx.consStart[c]:st.idx.consStart[c+1]]
		if len(values) < 2 {
			continue
		}
		for i := 0; i < len(values); i++ {
			for j := i + 1; j < len(values); j++ {
				v1, v2 := values[i], values[j]
				n1, err := st.valueVCNode(v1)
				if err != nil {
					return changed, err
				}
				n2, err := st.valueVCNode(v2)
				if err != nil {
					return changed, err
				}
				if !st.vc.Incompatible(n1, n2) {
					continue
				}
				arrive := min(st.valueReadyEst(v1), st.valueReadyEst(v2)) + st.M.BusLatency
				if st.est[c] < arrive {
					st.setEst(c, arrive)
					changed = true
					if st.est[c] > st.lst[c] {
						return changed, contraf("consumer %d of incompatible producers %d,%d: arrival %d after lstart %d",
							c, v1, v2, arrive, st.lst[c])
					}
				}
				if !st.plcSeenHas(c, min(v1, v2), max(v1, v2)) {
					st.plcs = append(st.plcs, plcRec{Consumer: c, Alts: [2]int{v1, v2}})
					st.trailMark(tPLCAdd)
					st.stamp.plcs = st.tick()
					changed = true
				}
			}
		}
	}
	st.memo.pplc = start
	return changed, nil
}

// plcSeenHas reports whether a PLC for consumer c over the (normalized
// lo <= hi) alternative pair is already recorded. The list stays small
// (one entry per incompatible producer pair), so a linear scan beats
// the former map.
func (st *State) plcSeenHas(c, lo, hi int) bool {
	for _, p := range st.plcs {
		if p.Consumer == c && min(p.Alts[0], p.Alts[1]) == lo && max(p.Alts[0], p.Alts[1]) == hi {
			return true
		}
	}
	return false
}

// packingSizeLimit bounds the O(n³) window-packing analysis; beyond this
// many nodes of one class the rule is skipped (fewer deductions, still
// sound).
const packingSizeLimit = 80

// ruleWindowPacking is rule D2, a Hall-style interval bound per
// instruction class: if the instructions whose windows fit inside [a,b]
// outnumber the capacity cap·(b−a+1), no schedule exists; at exact
// saturation, instructions merely overlapping [a,b] are pushed outside.
// Copies are packed against bus capacity with their occupancy, together
// with pending PLC reservations. Only classes with changed inputs
// (packingInputs) are packed again.
func (st *State) ruleWindowPacking() (bool, error) {
	memo := st.memo.packing
	dirty := false
	for class := ir.Class(0); int(class) < ir.NumClasses; class++ {
		dirty = dirty || st.packingInputs(class) > memo
	}
	if !dirty {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	byClass := &st.ar.byClass
	for c := range byClass {
		byClass[c] = byClass[c][:0]
	}
	for node := 0; node < len(st.est); node++ {
		byClass[st.class[node]] = append(byClass[st.class[node]], node)
	}
	for class := ir.Class(0); int(class) < ir.NumClasses; class++ {
		nodes := byClass[class]
		if len(nodes) < 2 || len(nodes) > packingSizeLimit || st.packingInputs(class) <= memo {
			continue
		}
		var cap, dur int
		if class == ir.Copy {
			cap, dur = st.M.Buses, st.M.BusOccupancy()
		} else {
			cap, dur = st.M.TotalFU(class), 1
		}
		if cap < 1 {
			return changed, contraf("instructions of class %s on a machine without %s units", class, class)
		}
		ivs := st.ar.ivs[:0]
		for _, n := range nodes {
			ivs = append(ivs, interval{node: n, lo: st.est[n], hi: st.lst[n] + dur - 1})
		}
		if class == ir.Copy {
			// Pending PLCs reserve bus bandwidth — but one broadcast can
			// cover every PLC it is an alternative of, so only PLCs with
			// pairwise-disjoint alternative sets are certain to need
			// distinct copies (a sound lower bound on future demand).
			seenAlts := st.ar.plcAlts[:0]
			for _, p := range st.plcs {
				if st.plcCovered(p) || containsInt(seenAlts, p.Alts[0]) || containsInt(seenAlts, p.Alts[1]) {
					continue
				}
				seenAlts = append(seenAlts, p.Alts[0], p.Alts[1])
				lo := min(st.valueReadyEst(p.Alts[0]), st.valueReadyEst(p.Alts[1]))
				hi := st.lst[p.Consumer] - st.M.BusLatency + dur - 1
				ivs = append(ivs, interval{node: -1, lo: lo, hi: hi})
			}
			st.ar.plcAlts = seenAlts
		}
		st.ar.ivs = ivs
		ch, err := st.packIntervals(ivs, cap, dur)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	st.memo.packing = start
	return changed, nil
}

// packingInputs returns the latest stamp among D2's inputs for one
// class: the class's nodes and their bounds. Copies also read the PLCs,
// the communications that cover them and the bounds of the PLCs'
// producers and consumers, so any bound.
func (st *State) packingInputs(class ir.Class) uint64 {
	if class == ir.Copy {
		return max(st.stamp.bounds, st.stamp.comms, st.stamp.plcs)
	}
	return st.stamp.class[class]
}

type interval struct {
	node   int // −1 for PLC reservations (no bound to tighten)
	lo, hi int // occupied-cycle window (inclusive)
}

func (st *State) packIntervals(ivs []interval, cap, dur int) (bool, error) {
	// One sort of the left ends, and one of the intervals by right end
	// (keys pack the right end above the interval's index), from which
	// the distinct right ends come in order too.
	los := st.ar.los[:0]
	keys := claim(&st.ar.hiKeys, 0, len(ivs))
	for i, iv := range ivs {
		los = append(los, iv.lo)
		keys = append(keys, int64(iv.hi)<<32|int64(i))
	}
	slices.Sort(los)
	slices.Sort(keys)
	los = dedupInts(los)
	his := st.ar.his[:0]
	live := claim(&st.ar.live, 0, len(ivs))
	for _, key := range keys {
		if hi := int(key >> 32); len(his) == 0 || his[len(his)-1] != hi {
			his = append(his, hi)
		}
		live = append(live, int32(key))
	}
	st.ar.los, st.ar.hiKeys, st.ar.his, st.ar.live = los, keys, his, live
	changed := false
	first := 0 // his[first:] are the right ends at or after a
	for _, a := range los {
		// Demand in [a,b] counts the intervals with lo >= a and hi <= b.
		// While b sweeps, that set and its right ends stay fixed: a
		// saturation push moves a counted start to b+1 > a and keeps its
		// end, and a pull only moves intervals starting before a. Nor
		// can an interval that starts before a be counted at a later
		// (larger) left edge, or be pushed. So live, the intervals by
		// right end, drops those at each left edge and keeps the rest
		// in order, and demand is a cursor over it. Once the room
		// cap·(b−a+1) exceeds the whole counted demand, no wider window
		// can be over capacity or saturated; once even one cycle's room
		// does, no later left edge, which counts fewer, can be either.
		n := 0
		for _, i := range live {
			if ivs[i].lo >= a {
				live[n] = i
				n++
			}
		}
		live = live[:n]
		total := n * dur
		if total < cap {
			break
		}
		for first < len(his) && his[first] < a {
			first++
		}
		k := 0
		for _, b := range his[first:] {
			room := cap * (b - a + 1)
			if room > total {
				break
			}
			for k < n && ivs[live[k]].hi <= b {
				k++
			}
			demand := k * dur
			if demand > room {
				return changed, contraf("window [%d,%d]: demand %d exceeds capacity %d", a, b, demand, room)
			}
			if demand != room {
				continue
			}
			// Saturated: overlapping outsiders must leave [a,b].
			for i := range ivs {
				iv := &ivs[i]
				if iv.node < 0 || (iv.lo >= a && iv.hi <= b) || iv.hi < a || iv.lo > b {
					continue
				}
				if iv.lo >= a {
					// Starts inside, ends after b: push the start past b.
					newEst := b + 1
					if newEst > st.est[iv.node] {
						st.setEst(iv.node, newEst)
						iv.lo = newEst
						changed = true
						if st.est[iv.node] > st.lst[iv.node] {
							return changed, contraf("packing pushed node %d past its deadline", iv.node)
						}
					}
				} else if iv.hi <= b {
					// Ends inside, starts before a: pull the end before a.
					newLst := a - 1 - (dur - 1)
					if newLst < st.lst[iv.node] {
						st.setLst(iv.node, newLst)
						iv.hi = a - 1
						changed = true
						if st.est[iv.node] > st.lst[iv.node] {
							return changed, contraf("packing pulled node %d before its release", iv.node)
						}
					}
				}
			}
		}
	}
	return changed, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// ruleCliqueVeto is rule D9: a VCG whose (greedily lower-bounded) max
// clique exceeds the physical cluster count can never be mapped. On
// heterogeneous machines it additionally vetoes pinning an instruction
// to a cluster without units of its class.
func (st *State) ruleCliqueVeto() error {
	if st.vc.CliqueExceeds(st.M.Clusters) {
		return contraf("virtual cluster graph contains a clique larger than %d clusters", st.M.Clusters)
	}
	if st.M.Heterogeneous() {
		for i := 0; i < st.nOrig; i++ {
			if pc, ok := st.vc.PinnedPC(st.vcID(i)); ok && st.M.ClusterFU(pc, st.class[i]) == 0 {
				return contraf("instruction %d (%s) pinned to cluster %d which has no %s units",
					i, st.class[i], pc, st.class[i])
			}
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
