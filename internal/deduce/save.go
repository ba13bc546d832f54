package deduce

import (
	"vcsched/internal/graphutil"
	"vcsched/internal/ir"
	"vcsched/internal/vcg"
)

// This file lets several searches start from one state: Save copies the
// state's content onto its arena, and Restore puts it back, as often as
// needed, without rebuilding or re-propagating it. The core search
// builds and shaves each exit vector's state once and restores it for
// every retry variant after the first.
//
// The copy reuses the arena's buffers, so a restore allocates nothing
// once the buffers have grown. The two structures with versions (the
// union-find and the VCG) go back to the version they gave the saved
// content, as a trail undo does, and keep taking fresh ones after it,
// so the caches keyed on those versions (cc-groups, the clique memo)
// stay sound. The arena clock is not restored: it stays
// monotonic, and every stamp the restored state keeps is at most the
// clock. A state saved at a clean fixpoint is restored as that
// fixpoint with every propagation memo covering every input, as a
// rollback to a clean checkpoint is (stamps.go); any other restored
// state starts every memo at never, so its next Propagate is a full
// sweep.

// savedState is the content of the state the arena's last Save copied.
// owner is that state; a NewState on the arena clears it, since the
// state's own buffers then belong to the new state.
type savedState struct {
	owner     *State
	class     []ir.Class
	lat       []int
	est       []int
	lst       []int
	pairs     []pairRec
	combWords []uint64
	arcs      []arc
	comms     []commRec
	commIdx   []int32
	plcs      []plcRec
	// outStart/outArcs and inStart/inArcs hold the adjacency lists as
	// CSRs: node n's arcs are outArcs[outStart[n]:outStart[n+1]].
	outStart, outArcs []int
	inStart, inArcs   []int
	cc                graphutil.Snapshot
	vc                vcg.Snapshot
	clean             bool
}

// Save copies the state's content onto its arena, replacing what an
// earlier Save copied, for Restore. It must not be called inside a
// Probe.
func (st *State) Save() {
	if st.tr != nil {
		panic("deduce: Save during active trail")
	}
	sv := &st.ar.saved
	sv.owner = st
	saveInto(&sv.class, st.class)
	saveInto(&sv.lat, st.lat)
	saveInto(&sv.est, st.est)
	saveInto(&sv.lst, st.lst)
	saveInto(&sv.pairs, st.pairs)
	saveInto(&sv.combWords, st.combWords)
	saveInto(&sv.arcs, st.arcs)
	saveInto(&sv.comms, st.comms)
	saveInto(&sv.commIdx, st.commIdx)
	saveInto(&sv.plcs, st.plcs)
	saveAdj(&sv.outStart, &sv.outArcs, st.outA, cap(st.outA), cap(st.arcs))
	saveAdj(&sv.inStart, &sv.inArcs, st.inA, cap(st.inA), cap(st.arcs))
	st.cc.SaveTo(&sv.cc)
	st.vc.SaveTo(&sv.vc)
	sv.clean = st.atFixpoint()
}

// Restore puts back the content the arena's last Save copied from this
// state. The budget is not restored: the work done since the save was
// spent. It must not be called inside a Probe, and only on the state
// that saved, before another NewState on its arena.
func (st *State) Restore() {
	sv := &st.ar.saved
	if st.tr != nil || sv.owner != st {
		panic("deduce: Restore during active trail or of another state")
	}
	st.class = append(st.class[:0], sv.class...)
	st.lat = append(st.lat[:0], sv.lat...)
	st.est = append(st.est[:0], sv.est...)
	st.lst = append(st.lst[:0], sv.lst...)
	st.pairs = append(st.pairs[:0], sv.pairs...)
	st.combWords = append(st.combWords[:0], sv.combWords...)
	st.arcs = append(st.arcs[:0], sv.arcs...)
	st.comms = append(st.comms[:0], sv.comms...)
	st.commIdx = append(st.commIdx[:0], sv.commIdx...)
	st.plcs = append(st.plcs[:0], sv.plcs...)
	st.outA = restoreAdj(st.outA, sv.outStart, sv.outArcs)
	st.inA = restoreAdj(st.inA, sv.inStart, sv.inArcs)
	st.cc.RestoreFrom(&sv.cc)
	st.vc.RestoreFrom(&sv.vc)
	// Nodes are only ever added, so the stamps of the saved nodes are
	// still in place, each at most the clock.
	st.stamp.node = st.stamp.node[:len(st.est)]
	if sv.clean {
		st.restoreFixpoint()
		return
	}
	st.memo = memos{}
	st.fix = fixpoint{}
}

// saveInto copies src into *buf, growing the buffer to src's capacity
// when it is too small, so a later, longer src of the same backing
// array fits without another allocation.
func saveInto[T any](buf *[]T, src []T) {
	if cap(*buf) < len(src) {
		*buf = make([]T, 0, cap(src))
	}
	*buf = append((*buf)[:0], src...)
}

// saveAdj copies adjacency lists into a CSR over *start and *list,
// sized up front for nodes rows and arcs entries.
func saveAdj(start, list *[]int, adj [][]int, nodes, arcs int) {
	s := claim(start, len(adj)+1, nodes+1)
	l := claim(list, 0, arcs)
	for i, row := range adj {
		s[i] = len(l)
		l = append(l, row...)
	}
	s[len(adj)] = len(l)
	*list = l
}

// restoreAdj rebuilds adjacency lists from a CSR into adj's rows,
// reusing each row's capacity.
func restoreAdj(adj [][]int, start, list []int) [][]int {
	n := len(start) - 1
	adj = adj[:n]
	for i := range adj {
		adj[i] = append(adj[i][:0], list[start[i]:start[i+1]]...)
	}
	return adj
}
