package deduce

import "vcsched/internal/ir"

// This file makes propagation change-driven. Every mutation of the
// state takes a stamp from one monotonic clock (per arena), recorded on
// the input it changed: a node's bounds, the pairs (as a whole, and in
// the pending set of each pair family), the arc list, the
// communications, the PLCs. A merge of two components also marks the
// Open pairs it puts inside one component (commitComb), the only pairs
// it can make resolvable, and stamps the root of the component it
// forms. The union-find and the VCG keep their own content versions,
// which name contents: a new content takes a value never used before,
// and an undo restores the value its mark saw. syncVersions folds a
// version other than the one it last saw into the clock as one more
// stamp.
//
// Each rule family remembers in memos the clock at the start of its
// last clean (error-free) run, 0 meaning never. When the family's turn
// comes in a pass it skips every item, class or whole family whose
// input stamps are all at most its memo: those inputs are exactly what
// the last clean run saw, that run left the item alone or changed one
// of the item's own inputs (which then carries a newer stamp), so a
// full sweep would leave the item untouched again. Skips therefore
// change no mutation, no mutation order and no error, and Propagate
// spends exactly the steps a full sweep spends.
//
// Below the family, the skips go down to single items. The pair
// families take their dirty pairs from a pending set of their own,
// which stampPair fills and the family's sweep takes and clears at its
// start; a never memo means every pair. The families whose items read
// node bounds and whole structures (flows, C-PLC, P-PLC, pinned
// co-issue groups) visit, while only bounds have moved since the memo,
// just the items that read a node stamped since; each item is decided
// at its turn, and once the VCG, the communications, the arcs or the
// PLCs move, before the sweep or during it, every remaining item is
// visited (itemSkip). The component family revisits, while the VCG
// stands still, only the components formed since its memo, and D2 only
// the classes with a newer input.
//
// A rollback to a clean fixpoint keeps what propagation knows. A
// checkpoint is clean when the last Propagate returned nil and neither
// the clock nor the union-find or VCG version has moved since: the
// state is then a fixpoint of every rule, where a full sweep changes
// nothing. Rolling back to it restores that very state, so undoTo
// stamps nothing, syncs the structure versions, empties the pending
// sets and sets every memo to the clock (restoreFixpoint). Any other
// rollback is a change like any other: undoTo stamps every slot it
// restores, and a structure version it moves back differs from the one
// the probe's propagation last saw, so the next syncVersions stamps
// that too. So no memo taken during the rolled-back probe covers an
// input the undo changed. NewState and Clone start every memo at
// never, and an error from any family resets them all.

// stamps holds the clock value of the latest change to each rule input.
type stamps struct {
	node   []uint64              // per node: a bound moved
	root   []uint64              // per original instruction: a merge left it the root of the component it formed
	class  [ir.NumClasses]uint64 // a bound of a node of the class moved, or the class gained or lost a node
	bounds uint64                // any bound moved, or a node was added or removed
	pairs  uint64                // any pair's status, chosen comb or a combination word changed
	arcs   uint64                // an arc was added, tightened or undone
	comms  uint64                // a communication was materialized or undone
	plcs   uint64                // a PLC was recorded or undone
	cc     uint64                // the union-find's membership version moved
	vc     uint64                // the VCG's content version moved

	// ccVer and vcVer are the structure versions syncVersions last saw
	// (0 = none yet; versions start at 1).
	ccVer, vcVer uint64
}

// memos holds, per rule family, the clock at the start of its last
// clean run (the end, for U1, which runs to its own fixpoint); 0 is
// never.
type memos struct {
	bounds    uint64 // U1 propagateBounds
	coherence uint64 // U3 ruleCCCoherence
	prune     uint64 // U2/D1 rulePrunePairs
	ccRes     uint64 // D3 ruleCCResources
	pinned    uint64 // D3 rulePinnedResources
	flows     uint64 // D4/U4 ruleClusterEdges
	cplc      uint64 // C-PLC ruleCPLC
	pplc      uint64 // P-PLC rulePPLC
	packing   uint64 // D2 ruleWindowPacking
}

// pending holds, per pair family, a bitset over the pairs changed since
// the family's sweep last took it: stampPair sets a pair's bit in both,
// and a sweep takes its own and clears it at its start (takePending).
// It is exact only while the family's memo is not never, which is when
// sweeps read it.
type pending struct {
	coherence, prune []uint64
}

// fixpoint identifies the state the last clean Propagate left: the
// clock and the union-find and VCG versions when it returned nil. The
// zero value is none.
type fixpoint struct {
	clock, ccVer, vcVer uint64
}

// tick advances the arena clock and returns the new stamp.
func (st *State) tick() uint64 {
	st.ar.clock++
	return st.ar.clock
}

// initStamps stamps every input of a freshly built state with one new
// clock value, newer than any memo (all memos start at never).
func (st *State) initStamps() {
	s := st.tick()
	st.stamp.node = claim(&st.ar.stampNode, len(st.est), cap(st.est))
	st.stamp.root = claim(&st.ar.stampRoot, st.nOrig, st.nOrig)
	for i := range st.stamp.node {
		st.stamp.node[i] = s
	}
	for i := range st.stamp.root {
		st.stamp.root[i] = s
	}
	pw := st.idx.pairW
	st.pend.coherence = claim(&st.ar.pendCoherence, pw, pw)
	st.pend.prune = claim(&st.ar.pendPrune, pw, pw)
	clear(st.pend.coherence)
	clear(st.pend.prune)
	for c := range st.stamp.class {
		st.stamp.class[c] = s
	}
	st.stamp.bounds, st.stamp.pairs, st.stamp.arcs, st.stamp.comms, st.stamp.plcs = s, s, s, s, s
	st.stamp.cc, st.stamp.vc = s, s
	st.stamp.ccVer, st.stamp.vcVer = st.cc.Version(), st.vc.Version()
}

// stampNode records a bound move of node n.
func (st *State) stampNode(n int) {
	s := st.tick()
	st.stamp.node[n] = s
	st.stamp.class[st.class[n]] = s
	st.stamp.bounds = s
}

// stampPair records a change to pair i: it becomes pending for both
// pair families.
func (st *State) stampPair(i int) {
	st.stamp.pairs = st.tick()
	bit := uint64(1) << uint(i&63)
	st.pend.coherence[i>>6] |= bit
	st.pend.prune[i>>6] |= bit
}

// takePending returns, in arena scratch, the pairs a pair family whose
// last clean run began at memo must revisit for changes to their own
// records: every pair when memo is never, else the family's pending
// set. Either way the pending set is cleared, so a pair stamped during
// the sweep is pending for the next one, exactly as its stamp would be
// newer than the memo this sweep leaves.
func (st *State) takePending(pend []uint64, memo uint64) []uint64 {
	pw := st.idx.pairW
	d := claim(&st.ar.dirty, pw, pw)
	if memo == 0 {
		for k := range d {
			d[k] = ^uint64(0)
		}
		if r := len(st.pairs) & 63; r != 0 {
			d[pw-1] = 1<<uint(r) - 1
		}
	} else {
		copy(d, pend)
	}
	clear(pend)
	return d
}

// stampRoot records that a merge left original instruction r the root
// of the component it formed.
func (st *State) stampRoot(r int) {
	st.stamp.root[r] = st.tick()
}

// itemSkip decides, at each item's turn, whether a sweep of a family
// whose items read node bounds and whole structures may skip an item
// (ruleClusterEdges, ruleCPLC, rulePPLC, rulePinnedResources). memo is
// the start of the family's last clean run; part stays true while only
// node bounds have moved since then, before the sweep and during it.
type itemSkip struct {
	memo uint64
	part bool
}

// still reports whether only node bounds have moved since the memo,
// given the newest stamp of the family's structure inputs other than
// the VCG. A VCG move during the sweep shows as a version other than
// the one syncVersions saw at the family's turn. Once false, it stays
// false for the rest of the sweep.
func (k *itemSkip) still(st *State, others uint64) bool {
	k.part = k.part && max(others, st.stamp.vc) <= k.memo && st.vc.Version() == st.stamp.vcVer
	return k.part
}

// moved reports whether node n's bounds moved since the memo.
func (k *itemSkip) moved(st *State, n int) bool { return st.stamp.node[n] > k.memo }

// anyMoved reports whether the bounds of any of nodes moved since the
// memo.
func (k *itemSkip) anyMoved(st *State, nodes []int) bool {
	for _, n := range nodes {
		if st.stamp.node[n] > k.memo {
			return true
		}
	}
	return false
}

// syncVersions folds moved union-find and VCG versions into the clock.
// Propagate calls it at every family's turn, so a structure change made
// anywhere (a decision, an earlier family, an undo) carries a stamp
// newer than every memo taken before it.
func (st *State) syncVersions() {
	if v := st.cc.Version(); v != st.stamp.ccVer {
		st.stamp.ccVer = v
		st.stamp.cc = st.tick()
	}
	if v := st.vc.Version(); v != st.stamp.vcVer {
		st.stamp.vcVer = v
		st.stamp.vc = st.tick()
	}
}

// markFixpoint records that the state is a clean fixpoint: Propagate
// just returned nil.
func (st *State) markFixpoint() {
	st.fix = fixpoint{clock: st.ar.clock, ccVer: st.cc.Version(), vcVer: st.vc.Version()}
}

// atFixpoint reports whether the state is still the clean fixpoint
// markFixpoint recorded: nothing has been stamped and neither structure
// version has moved since.
func (st *State) atFixpoint() bool {
	return st.fix.clock != 0 && st.fix == fixpoint{clock: st.ar.clock, ccVer: st.cc.Version(), vcVer: st.vc.Version()}
}

// restoreFixpoint finishes a rollback to a checkpoint opened at a clean
// fixpoint. The state is that fixpoint again, where a full sweep of any
// family changes nothing, so every memo may cover every input: the
// structure versions the undo restored are synced without a stamp,
// both pending sets are emptied, and every memo is set to the clock.
func (st *State) restoreFixpoint() {
	st.stamp.ccVer, st.stamp.vcVer = st.cc.Version(), st.vc.Version()
	clear(st.pend.coherence)
	clear(st.pend.prune)
	c := st.ar.clock
	st.memo = memos{bounds: c, coherence: c, prune: c, ccRes: c, pinned: c, flows: c, cplc: c, pplc: c, packing: c}
	st.markFixpoint()
}
