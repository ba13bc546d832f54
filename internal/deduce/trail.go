package deduce

import (
	"vcsched/internal/vcg"
)

// This file implements trail-based speculation: instead of deep-copying
// the whole State to evaluate a candidate decision (O(N) per probe),
// Probe records every reversible mutation its function makes on a trail
// and undoes them in reverse order — O(changes) per probe, the
// backtracking architecture of modern constraint/SAT engines. Probe is
// the only way in: the search stages, Shave and difftest all speculate
// one decision at a time, so the trail holds one checkpoint and probes
// do not nest.
//
// What is trailed: est/lst bound moves, pair status/comb mutations,
// combination bitset words (at word granularity, via setCombWord), arc
// inserts and latency tightenings, node additions, communication and
// PLC materializations. The connected-component union-find
// (graphutil.OffsetUF) and the virtual cluster graph (vcg.Graph) keep
// their own op logs, checkpointed here via marks; the logs touch
// disjoint structures, so undo order between them does not matter.
// Undoing to a mark restores the structure's version too, and the
// VCG's mark carries the clique-bound memo of the marked content, so
// the caches keyed on those versions answer for the restored state
// without recomputing.
// Everything else on State (superblock, machine, SG, deadlines, the
// shared sgIndex, pins, budget) is immutable during decisions.
//
// Almost every probe opens at a clean propagation fixpoint (the search
// studies each candidate from a state the last decision left
// propagated), and a rollback to such a checkpoint keeps what
// propagation knows: the restored state is that fixpoint, so the undo
// stamps nothing and leaves every memo covering every input
// (stamps.go). A rollback to any other checkpoint stamps every slot it
// restores.
//
// The budget is deliberately NOT restored on rollback: speculative work
// costs real deduction steps, exactly as it did when probes ran on
// clones sharing the parent's budget. This keeps budget accounting —
// and therefore every exhaustion point and pinned step count — byte-
// identical to the Clone-per-probe implementation.

// trailKind tags one reversible mutation.
type trailKind uint8

const (
	tEst      trailKind = iota // a=node, b=old est
	tLst                       // a=node, b=old lst
	tPairMeta                  // a=pair index, b=old comb, status=old status
	tCombWord                  // a=global bitset word index, w=old word
	tArcLat                    // a=arc index, b=old latency
	tArcAdd                    // arc appended; undo truncates arcs/outA/inA
	tCommAdd                   // comm appended; undo truncates comms and clears commIdx
	tPLCAdd                    // PLC appended; undo truncates plcs
	tNodeAdd                   // state node appended; undo truncates the node arrays
)

// trailEntry is one recorded mutation. Combination-set changes are
// recorded per mutated word (tCombWord, old value in w), so recording a
// pair never allocates and undo is O(changed words).
type trailEntry struct {
	kind   trailKind
	status PairStatus
	a, b   int
	w      uint64
}

// trailCP is a probe's checkpoint: the marks of the two
// structure-owned logs, and whether it opened at a clean fixpoint. The
// entry log starts empty at the checkpoint.
type trailCP struct {
	cc    int
	vc    vcg.Mark
	clean bool
}

// trail is the mutation log of one State while a probe runs. The
// backing array lives on the state's Arena (one live state — and
// therefore at most one live trail — per arena), so a steady-state
// probe records and undoes without allocating, and the storage is
// reused across every state the arena backs rather than bouncing
// through a global pool.
type trail struct {
	entries []trailEntry
	cp      trailCP
}

// Probe speculatively runs f against the live state and always rolls
// its mutations back, returning f's error. It replaces the
// Clone-per-probe pattern: semantically identical (same deductions,
// same budget spend, same error), but O(changes) instead of O(N).
// Callers that want to keep a successful candidate re-apply it to the
// live state afterwards, exactly as the clone-based callers did. f must
// not Probe or Clone the state it is given.
func (st *State) Probe(f func(*State) error) error {
	st.begin()
	err := f(st)
	st.rollback()
	return err
}

// begin opens the trail's checkpoint. While it is open the state must
// not be Cloned (the copy would share no undo obligations; the
// underlying structures panic on the attempt). It also keeps the
// cc-groups entry of the current partition for the rollback to find
// (ccgroups.go).
func (st *State) begin() {
	if st.tr != nil {
		panic("deduce: nested Probe")
	}
	tr := &st.ar.tr
	if cap(tr.entries) == 0 {
		// First trail on this arena: size the log for a typical probe
		// on this SG — a few bound moves per node plus pair mutations —
		// so steady state never grows it.
		tr.entries = make([]trailEntry, 0, 4*len(st.est)+3*len(st.pairs)+16)
	}
	st.tr = tr
	st.keepCCGroups()
	tr.cp = trailCP{
		cc:    st.cc.TrailMark(),
		vc:    st.vc.TrailMark(),
		clean: st.atFixpoint(),
	}
}

// rollback closes the checkpoint, undoing every mutation recorded since
// begin in reverse order, and ends trailing. A checkpoint opened at a
// clean fixpoint restores that fixpoint with every propagation memo
// kept (stamps.go).
func (st *State) rollback() {
	tr := st.tr
	if tr == nil {
		panic("deduce: rollback without begin")
	}
	st.undoTo(tr.cp)
	st.tr = nil
	st.cc.TrailStop()
	st.vc.TrailStop()
}

// undoTo reverts the whole entry log, then the structure-owned logs
// down to checkpoint cp's marks. Entries are undone most recent first,
// so a slot mutated several times ends at its oldest recorded value.
// Unless cp opened at a clean fixpoint, every restored slot takes a
// fresh stamp (restamp): such an undo is a change, so no propagation
// memo taken during the speculation covers it (stamps.go).
func (st *State) undoTo(cp trailCP) {
	tr := st.tr
	for i := len(tr.entries) - 1; i >= 0; i-- {
		e := tr.entries[i]
		if !cp.clean {
			st.restamp(e)
		}
		switch e.kind {
		case tEst:
			st.est[e.a] = e.b
		case tLst:
			st.lst[e.a] = e.b
		case tPairMeta:
			p := &st.pairs[e.a]
			p.status = e.status
			p.comb = int32(e.b)
		case tCombWord:
			st.combWords[e.a] = e.w
		case tArcLat:
			st.arcs[e.a].Lat = e.b
		case tArcAdd:
			n := len(st.arcs) - 1
			a := st.arcs[n]
			st.arcs = st.arcs[:n]
			st.outA[a.From] = st.outA[a.From][:len(st.outA[a.From])-1]
			st.inA[a.To] = st.inA[a.To][:len(st.inA[a.To])-1]
		case tCommAdd:
			n := len(st.comms) - 1
			st.commIdx[st.commSlot(st.comms[n].Value)] = -1
			st.comms = st.comms[:n]
		case tPLCAdd:
			st.plcs = st.plcs[:len(st.plcs)-1]
		case tNodeAdd:
			n := len(st.est) - 1
			st.class = st.class[:n]
			st.lat = st.lat[:n]
			st.est = st.est[:n]
			st.lst = st.lst[:n]
			st.outA = st.outA[:n]
			st.inA = st.inA[:n]
			st.stamp.node = st.stamp.node[:n]
		}
	}
	tr.entries = tr.entries[:0]
	st.cc.TrailUndo(cp.cc)
	st.vc.TrailUndo(cp.vc)
	if cp.clean {
		st.restoreFixpoint()
	}
}

// restamp stamps the slot entry e is about to restore. A removed node
// is stamped before it goes: its class loses a node.
func (st *State) restamp(e trailEntry) {
	switch e.kind {
	case tEst, tLst:
		st.stampNode(e.a)
	case tPairMeta:
		st.stampPair(e.a)
	case tCombWord:
		st.stampPair(e.a / st.idx.combW)
	case tArcLat, tArcAdd:
		st.stamp.arcs = st.tick()
	case tCommAdd:
		st.stamp.comms = st.tick()
	case tPLCAdd:
		st.stamp.plcs = st.tick()
	case tNodeAdd:
		st.stampNode(len(st.est) - 1)
	}
}

// setEst moves a node's earliest start, recording the old bound and
// stamping the node.
func (st *State) setEst(node, v int) {
	if st.tr != nil {
		st.tr.entries = append(st.tr.entries, trailEntry{kind: tEst, a: node, b: st.est[node]})
	}
	st.est[node] = v
	st.stampNode(node)
}

// setLst moves a node's latest start, recording the old bound and
// stamping the node.
func (st *State) setLst(node, v int) {
	if st.tr != nil {
		st.tr.entries = append(st.tr.entries, trailEntry{kind: tLst, a: node, b: st.lst[node]})
	}
	st.lst[node] = v
	st.stampNode(node)
}

// touchPair records pair i's pre-mutation status and chosen comb and
// stamps the pair. Call before every status/comb mutation of a pair;
// the combination bitset needs no explicit snapshot — setCombWord
// trails and stamps each mutated word itself. Redundant records are
// harmless (undo runs in reverse, so the oldest snapshot wins).
func (st *State) touchPair(i int) {
	st.stampPair(i)
	if st.tr == nil {
		return
	}
	p := &st.pairs[i]
	st.tr.entries = append(st.tr.entries, trailEntry{kind: tPairMeta, status: p.status, a: i, b: int(p.comb)})
}

// trailMark appends a fieldless marker entry (arc/comm/PLC/node
// additions, undone by truncating the corresponding structure). The
// caller stamps the structure.
func (st *State) trailMark(kind trailKind) {
	if st.tr != nil {
		st.tr.entries = append(st.tr.entries, trailEntry{kind: kind})
	}
}
