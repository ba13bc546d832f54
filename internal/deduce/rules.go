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
	for _, gi := range g.multi {
		root := g.roots[gi]
		members := g.members[g.start[gi]:g.start[gi+1]]
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
// the stamped pairs, its pending set, are the only ones to revisit.
func (st *State) ruleCCCoherence() (bool, error) {
	memo := st.memo.coherence
	if st.stamp.pairs <= memo {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for wi, w := range st.takePending(st.pend.coherence, memo) {
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

// prunePairs returns, as a bitset over pair indexes in arena scratch,
// the pairs rulePrunePairs must revisit: its pending set (takePending)
// and each pair with an endpoint whose bounds moved since memo
// (sgIndex.incident). The set is fixed when the sweep starts. Pairs
// stamped during the sweep (by a D1 choice's merge, say) are pending
// for the next run; visiting a pair a full sweep would leave alone
// changes nothing, so that costs a visit, not a difference.
func (st *State) prunePairs(memo uint64) []uint64 {
	d := st.takePending(st.pend.prune, memo)
	if memo != 0 && st.stamp.bounds > memo {
		pw := st.idx.pairW
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
	return d
}

// rulePrunePairs is rule U2 plus deduction rule D1: combinations whose
// offset cannot be realized inside the current windows are discarded —
// feasibility is a contiguous offset range, so the discard is one AND
// per bitset word (combPruneWindow); if the pair is forced to overlap,
// a single surviving combination is mandatory (chosen), and zero
// surviving combinations contradict. A pair's inputs are its own record
// and the bounds of its two instructions; only pairs with a changed
// input are revisited, found through prunePairs.
func (st *State) rulePrunePairs() (bool, error) {
	memo := st.memo.prune
	if max(st.stamp.bounds, st.stamp.pairs) <= memo {
		return false, nil
	}
	start := st.ar.clock
	changed := false
	for wi, w := range st.prunePairs(memo) {
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
// joins first, then stamps the root of the component it forms and logs
// the step for the cc-groups cache (logCCStep).
func (st *State) commitComb(i, comb int) error {
	st.touchPair(i)
	p := &st.pairs[i]
	p.status = Chosen
	p.comb = int32(comb)
	st.combSetOnly(i, comb)
	u, v := int(p.u), int(p.v)
	if st.cc.Same(u, v) {
		if err := st.cc.Relate(u, v, comb); err != nil {
			return contraf("pair (%d,%d): offset %d conflicts with connected components", p.u, p.v, comb)
		}
		return nil
	}
	st.stampJoinedPairs(u, v)
	from, ru, rv := st.cc.Version(), st.cc.Root(u), st.cc.Root(v)
	_ = st.cc.Relate(u, v, comb) // two sets: the relation cannot conflict
	keep := st.cc.Root(u)
	st.stampRoot(keep)
	st.logCCStep(from, keep, ru+rv-keep)
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

// coIssueBias keeps the cycles and component offsets of co-issue keys
// non-negative; both stay far inside it.
const coIssueBias = 1 << 23

// coIssueKey packs one row of the resource rules' co-issue grouping:
// the cycle or component offset at, then the class, then the node. Rows
// collected in node order and sorted as plain integers thus come grouped
// by (at, class) with each group in node order, the order a stable sort
// by (at, class) leaves them in.
func coIssueKey(at int, class ir.Class, node int) uint64 {
	return uint64(at+coIssueBias)<<40 | uint64(class)<<32 | uint64(uint32(node))
}

// ruleCCResources analyses resource usage inside connected components
// (rule U3's resource half): members at one relative cycle issue
// together in any schedule, so their per-class count must fit the
// machine, and with single-unit clusters same-class co-issuers must
// spread across clusters (rule D3 / paper Rule 2). Its inputs are the
// components and the VCG alone. While the VCG has not moved since its
// memo, before the sweep or during it, only components formed since,
// whose root a merge stamped (commitComb), can need a spread: a clean
// run left every other one spread, and a component a rollback split off
// holds only groups of one that was, at the same relative cycles.
func (st *State) ruleCCResources() (bool, error) {
	memo := st.memo.ccRes
	if max(st.stamp.cc, st.stamp.vc) <= memo {
		return false, nil
	}
	start := st.ar.clock
	g := st.ccGroups()
	sk := itemSkip{memo: memo, part: true}
	changed := false
	for _, gi := range g.multi {
		root := g.roots[gi]
		if sk.still(st, 0) && st.stamp.root[root] <= memo {
			continue
		}
		keys := st.ar.coKeys[:0]
		for _, m := range g.members[g.start[gi]:g.start[gi+1]] {
			_, off := st.cc.Find(m)
			keys = append(keys, coIssueKey(off, st.class[m], m))
		}
		st.ar.coKeys = keys
		slices.Sort(keys)
		ch, err := st.spreadCoIssue(keys, nil)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	st.memo.ccRes = start
	return changed, nil
}

// spreadCoIssue walks the sorted co-issue keys and spreads every
// certain co-issue group of two or more. With a non-nil sk it skips, at
// each group's turn, a group none of whose nodes moved while only bounds
// have moved since sk's memo: the group then holds only nodes that
// shared its cycle at the last clean run, which left them spread.
func (st *State) spreadCoIssue(keys []uint64, sk *itemSkip) (bool, error) {
	changed := false
	for s := 0; s < len(keys); {
		// The run of keys sharing keys[s]'s (at, class) is one group.
		nodes := st.ar.groupNodes[:0]
		e := s
		for ; e < len(keys) && keys[e]>>32 == keys[s]>>32; e++ {
			nodes = append(nodes, int(uint32(keys[e])))
		}
		st.ar.groupNodes = nodes
		class := ir.Class(keys[s] >> 32 & 0xff)
		s = e
		if len(nodes) < 2 || sk != nil && sk.still(st, 0) && !sk.anyMoved(st, nodes) {
			continue
		}
		ch, err := st.spreadAcrossClusters(nodes, class)
		if err != nil {
			return changed, err
		}
		changed = changed || ch
	}
	return changed, nil
}

// rulePinnedResources applies the same co-issue analysis to nodes pinned
// to absolute cycles, and checks bus capacity among pinned copies. Its
// inputs are the bounds and the VCG. While only bounds have moved since
// its memo, it revisits only the groups holding a node whose bounds
// moved, and the bus check only when a pinned copy moved: a node
// becomes pinned, or moves to another cycle, only by a bound move, so
// every other group and the pinned copies are what the last clean run
// saw, less any node a rollback unpinned since.
func (st *State) rulePinnedResources() (bool, error) {
	memo := st.memo.pinned
	if max(st.stamp.bounds, st.stamp.vc) <= memo {
		return false, nil
	}
	start := st.ar.clock
	sk := itemSkip{memo: memo, part: true}
	part := sk.still(st, 0)
	keys := st.ar.coKeys[:0]
	pinnedCopies := st.ar.pinnedCopies[:0]
	groups, bus := !part, !part
	for node := 0; node < len(st.est); node++ {
		if !st.Pinned(node) {
			continue
		}
		moved := sk.moved(st, node)
		if st.class[node] == ir.Copy {
			pinnedCopies = append(pinnedCopies, node)
			bus = bus || moved
			continue
		}
		groups = groups || moved
		keys = append(keys, coIssueKey(st.est[node], st.class[node], node))
	}
	st.ar.coKeys, st.ar.pinnedCopies = keys, pinnedCopies
	changed := false
	if groups {
		slices.Sort(keys)
		ch, err := st.spreadCoIssue(keys, &sk)
		if err != nil {
			return ch, err
		}
		changed = ch
	}
	// Bus capacity among pinned copies: each occupies BusOccupancy
	// cycles. Copies never start after End − BusLatency, so End + occ
	// bounds every occupied cycle.
	if len(pinnedCopies) > 0 && (bus || !sk.still(st, 0)) {
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
// communications and the VCG; a flow reads the bounds of its producer
// and consumer, a live-out those of its value and of the value's copy.
// While only bounds have moved since the memo, a flow none of whose
// nodes moved is skipped (itemSkip).
func (st *State) ruleClusterEdges() (bool, error) {
	memo := st.memo.flows
	if max(st.stamp.bounds, st.stamp.arcs, st.stamp.comms, st.stamp.vc) <= memo {
		return false, nil
	}
	start := st.ar.clock
	sk := itemSkip{memo: memo, part: true}
	changed := false
	for _, e := range st.SB.Edges {
		if e.Kind != ir.Data {
			continue
		}
		if sk.still(st, max(st.stamp.arcs, st.stamp.comms)) && !sk.moved(st, e.From) && !sk.moved(st, e.To) {
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
			if sk.still(st, max(st.stamp.arcs, st.stamp.comms)) && !sk.moved(st, c) {
				continue
			}
			ch, err := st.handleFlow(-(li + 1), c)
			changed = changed || ch
			if err != nil {
				return changed, err
			}
		}
	}
	for oi, u := range st.SB.LiveOuts {
		if sk.still(st, max(st.stamp.arcs, st.stamp.comms)) && !sk.moved(st, u) {
			if n := st.commFor(u); n < 0 || !sk.moved(st, st.comms[n].Node) {
				continue
			}
		}
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
// consumers. Its inputs are the bounds, communications and the VCG; a
// value reads its own bounds, its consumers' and its copy's. While only
// bounds have moved since the memo, a value none of whose nodes moved
// is skipped (itemSkip).
func (st *State) ruleCPLC() (bool, error) {
	memo := st.memo.cplc
	if max(st.stamp.bounds, st.stamp.comms, st.stamp.vc) <= memo {
		return false, nil
	}
	start := st.ar.clock
	sk := itemSkip{memo: memo, part: true}
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
		if sk.still(st, st.stamp.comms) && !st.valueMoved(&sk, v, consumers) {
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

// valueMoved reports whether a node C-PLC reads for value v moved since
// sk's memo: v itself, one of its consumers, or its copy.
func (st *State) valueMoved(sk *itemSkip, v int, consumers []int) bool {
	if v >= 0 && sk.moved(st, v) || sk.anyMoved(st, consumers) {
		return true
	}
	n := st.commFor(v)
	return n >= 0 && sk.moved(st, st.comms[n].Node)
}

// rulePPLC is paper Rule 5: a consumer whose producers sit in
// incompatible VCs will receive at least one value over the bus, so its
// earliest start moves past the earliest possible arrival, and a PLC
// records the pending bus demand until one alternative materializes.
// Its inputs are the bounds, PLCs and the VCG; a consumer reads its own
// bounds and its producers'. While only bounds have moved since the
// memo, a consumer none of whose nodes moved is skipped (itemSkip).
func (st *State) rulePPLC() (bool, error) {
	memo := st.memo.pplc
	if max(st.stamp.bounds, st.stamp.plcs, st.stamp.vc) <= memo {
		return false, nil
	}
	start := st.ar.clock
	sk := itemSkip{memo: memo, part: true}
	changed := false
	for c := 0; c < st.nOrig; c++ {
		values := st.idx.consVals[st.idx.consStart[c]:st.idx.consStart[c+1]]
		if len(values) < 2 {
			continue
		}
		if sk.still(st, st.stamp.plcs) && !sk.moved(st, c) && !st.producersMoved(&sk, values) {
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

// producersMoved reports whether an instruction among values (live-ins
// have no bounds) moved since sk's memo.
func (st *State) producersMoved(sk *itemSkip, values []int) bool {
	for _, v := range values {
		if v >= 0 && sk.moved(st, v) {
			return true
		}
	}
	return false
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
// (packingInputs) are packed again. A class's nodes come from the
// block's per-class lists (sgIndex.classNodes) and, for copies, the
// communication nodes, in node order.
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
	for class := ir.Class(0); int(class) < ir.NumClasses; class++ {
		if st.packingInputs(class) <= memo {
			continue
		}
		nodes := st.idx.classNodes[class]
		count := len(nodes)
		if class == ir.Copy {
			count += len(st.est) - st.nOrig
		}
		if count < 2 || count > packingSizeLimit {
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
			for n := st.nOrig; n < len(st.est); n++ {
				ivs = append(ivs, interval{node: n, lo: st.est[n], hi: st.lst[n] + dur - 1})
			}
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
		ch, err := st.packIntervals(ivs, cap, dur, &st.ar.packOrder[class])
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

// packOrder holds one class's last D2 sort: the (left end, index) and
// (right end, index) keys of its intervals, sorted. Bounds move little
// between runs, so the next run's sorts start from that order
// (sortIntervals).
type packOrder struct {
	byLo, byHi []int64
}

// sortIntervals sorts the (left end, index) keys of ivs, or with byHi
// the (right end, index) keys, starting from the order of the keys the
// last sort left in *keys: it re-keys each index held there from ivs
// and insertion-sorts, which costs little when few bounds moved since.
// Keys of another length than ivs were left by a run over other
// intervals (a copy came or went) and start from index order. Either
// way the result is the one sorted order; the start changes only the
// work.
func sortIntervals(keys *[]int64, ivs []interval, byHi bool) []int64 {
	k := *keys
	if len(k) != len(ivs) {
		k = claim(keys, len(ivs), len(ivs))
		for i := range k {
			k[i] = int64(i)
		}
	}
	for p, key := range k {
		i := int64(uint32(key))
		at := ivs[i].lo
		if byHi {
			at = ivs[i].hi
		}
		k[p] = int64(at)<<32 | i
	}
	for p := 1; p < len(k); p++ {
		key := k[p]
		q := p
		for ; q > 0 && k[q-1] > key; q-- {
			k[q] = k[q-1]
		}
		k[q] = key
	}
	return k
}

func (st *State) packIntervals(ivs []interval, cap, dur int, ord *packOrder) (bool, error) {
	// One sort of the left ends, and one of the intervals by right end
	// (keys pack the end above the interval's index), from which the
	// distinct right ends come in order too.
	los := st.ar.los[:0]
	for _, key := range sortIntervals(&ord.byLo, ivs, false) {
		if lo := int(key >> 32); len(los) == 0 || los[len(los)-1] != lo {
			los = append(los, lo)
		}
	}
	his := st.ar.his[:0]
	live := claim(&st.ar.live, 0, len(ivs))
	for _, key := range sortIntervals(&ord.byHi, ivs, true) {
		if hi := int(key >> 32); len(his) == 0 || his[len(his)-1] != hi {
			his = append(his, hi)
		}
		live = append(live, int32(key))
	}
	st.ar.los, st.ar.his, st.ar.live = los, his, live
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
