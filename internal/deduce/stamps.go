package deduce

import "vcsched/internal/ir"

// This file makes propagation change-driven. Every mutation of the
// state takes a stamp from one monotonic clock (per arena), recorded on
// the input it changed: a node's bounds, a pair's status and
// combination words, the arc list, the communications, the PLCs. A
// merge of two components also stamps the Open pairs it puts inside
// one component (commitComb), the only pairs it can make resolvable.
// The union-find and the VCG keep their own content versions, which
// name contents: a new content takes a value never used before, and an
// undo restores the value its mark saw. syncVersions folds a version
// other than the one it last saw into the clock as one more stamp.
//
// Each rule family remembers in memos the clock at the start of its
// last clean (error-free) run, 0 meaning never. When the family's turn
// comes in a pass it skips every pair, class or whole family whose
// input stamps are all at most its memo: those inputs are exactly what
// the last clean run saw, that run left the item alone or changed one
// of the item's own inputs (which then carries a newer stamp), so a
// full sweep would leave the item untouched again. Skips therefore
// change no mutation, no mutation order and no error, and Propagate
// spends exactly the steps a full sweep spends.
//
// A rollback to a clean fixpoint keeps what propagation knows. A
// checkpoint is clean when the last Propagate returned nil and neither
// the clock nor the union-find or VCG version has moved since: the
// state is then a fixpoint of every rule, where a full sweep changes
// nothing. Rolling back to it restores that very state, so undoTo
// stamps nothing, syncs the structure versions and sets every memo to
// the clock (restoreFixpoint). Any other rollback is a change like any
// other: undoTo stamps every slot it restores, and a structure version
// it moves back differs from the one the probe's propagation last saw,
// so the next syncVersions stamps that too. So no memo taken during the
// rolled-back probe covers an input the undo changed. NewState and
// Clone start every memo at never, and an error from any family resets
// them all.

// stamps holds the clock value of the latest change to each rule input.
type stamps struct {
	node    []uint64              // per node: a bound moved
	pair    []uint64              // per pair: status, chosen comb or a combination word changed
	pairBlk []uint64              // per block of 64 pairs: the newest of its pairs' stamps
	class   [ir.NumClasses]uint64 // a bound of a node of the class moved, or the class gained or lost a node
	bounds  uint64                // any bound moved, or a node was added or removed
	pairs   uint64                // any pair changed
	arcs    uint64                // an arc was added, tightened or undone
	comms   uint64                // a communication was materialized or undone
	plcs    uint64                // a PLC was recorded or undone
	cc      uint64                // the union-find's membership version moved
	vc      uint64                // the VCG's content version moved

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
	st.stamp.pair = claim(&st.ar.stampPair, len(st.pairs), len(st.pairs))
	st.stamp.pairBlk = claim(&st.ar.stampPairBlk, st.idx.pairW, st.idx.pairW)
	for i := range st.stamp.node {
		st.stamp.node[i] = s
	}
	for i := range st.stamp.pair {
		st.stamp.pair[i] = s
	}
	for i := range st.stamp.pairBlk {
		st.stamp.pairBlk[i] = s
	}
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

// stampPair records a change to pair i.
func (st *State) stampPair(i int) {
	s := st.tick()
	st.stamp.pair[i] = s
	st.stamp.pairBlk[i>>6] = s
	st.stamp.pairs = s
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
// structure versions the undo restored are synced without a stamp, and
// every memo is set to the clock.
func (st *State) restoreFixpoint() {
	st.stamp.ccVer, st.stamp.vcVer = st.cc.Version(), st.vc.Version()
	c := st.ar.clock
	st.memo = memos{bounds: c, coherence: c, prune: c, ccRes: c, pinned: c, flows: c, cplc: c, pplc: c, packing: c}
	st.markFixpoint()
}
