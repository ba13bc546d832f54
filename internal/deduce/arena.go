package deduce

import (
	"vcsched/internal/graphutil"
	"vcsched/internal/ir"
	"vcsched/internal/sg"
	"vcsched/internal/vcg"
)

// Arena owns the reusable backing storage of one live State at a time:
// the flat node/pair/arc arrays, the VCG and connected-component
// structures, the cc-groups cache and every per-rule scratch buffer.
// NewState with Options.Arena re-slices these buffers instead of
// allocating, so a scheduling driver that builds many states strictly
// sequentially (the AWCT enumeration, shaving probes) pays the
// allocation cost once per superblock rather than once per state.
//
// Lifetime contract: a state built on an arena is valid only until the
// next NewState on the same arena — the buffers are clobbered, not
// copied. Concurrent states need distinct arenas (or Options.Arena ==
// nil, which gives every state a private one); Clone always detaches
// onto a fresh arena.
type Arena struct {
	idx *sgIndex

	class     []ir.Class
	lat       []int
	est       []int
	lst       []int
	pairs     []pairRec
	combWords []uint64
	arcs      []arc
	outA      [][]int
	inA       [][]int
	comms     []commRec
	commIdx   []int32
	plcs      []plcRec

	cc *graphutil.OffsetUF
	vc *vcg.Graph

	// clock is the propagation stamp clock (stamps.go): monotonic over
	// every state the arena backs. stampNode/stampPair/stampPairBlk back
	// the per-node, per-pair and per-64-pair-block stamps.
	clock        uint64
	stampNode    []uint64
	stampPair    []uint64
	stampPairBlk []uint64

	// tr is the speculation trail's backing storage (entry log +
	// checkpoint). The trail is live only inside a Probe of the arena's
	// current state, so owning it here makes a probe allocation-free
	// after the first probe on a block — the last piece of the
	// flat-state push.
	tr trail

	// saved is the state content the last Save copied (save.go).
	saved savedState

	// cc-groups cache: the backing arrays of the state's two CSR
	// entries (ccgroups.go), plus rebuild scratch.
	ccRoots   [2][]int
	ccStart   [2][]int
	ccMembers [2][]int
	ccSlot    []int32
	ccCursor  []int32
	ccSeen    []bool

	// Rule scratch: contents are dead between rule invocations.
	trips        []resTriple
	groupNodes   []int
	pinnedCopies []int
	busUse       []int
	ivs          []interval
	los          []int
	his          []int
	hiKeys       []int64 // packIntervals' (right end, index) keys
	live         []int32 // packIntervals' counted intervals by right end
	byClass      [ir.NumClasses][]int
	plcAlts      []int
	dirty        []uint64 // dirtyPairs' pair bitset

	// Candidate-query scratch (queries.go).
	sel    []keyed
	selOut []int

	// Metrics scratch.
	repSeen    []bool
	repTouched []int
	keySeen    []uint64
	keyTouched []int

	combBuf []int // combination materialization (DumpText, PairAt)
}

// resTriple is one (cycle-or-offset, class, node) row of the resource
// rules' grouping scratch; replaces the per-pass map[key][]int.
type resTriple struct {
	key   int
	class ir.Class
	node  int
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// index returns the immutable per-(superblock, SG) lookup tables,
// rebuilding them only when the arena is pointed at a different block.
func (ar *Arena) index(sb *ir.Superblock, g *sg.Graph) *sgIndex {
	if ar.idx == nil || ar.idx.sb != sb || ar.idx.g != g {
		ar.idx = buildSGIndex(sb, g)
	}
	return ar.idx
}

// claim returns a slice of length n (capacity at least c) backed by
// *buf, reallocating the arena buffer only on growth. Contents are
// whatever the previous user left — callers overwrite or clear.
func claim[T any](buf *[]T, n, c int) []T {
	if c < n {
		c = n
	}
	if cap(*buf) < c {
		*buf = make([]T, n, c)
	}
	*buf = (*buf)[:n]
	return *buf
}

// claimAdj is claim for adjacency lists: the outer slice is resized and
// every inner slice truncated to zero length, keeping the per-node
// capacity earned in previous states.
func claimAdj(buf *[][]int, n, c int) [][]int {
	if c < n {
		c = n
	}
	if cap(*buf) < c {
		*buf = make([][]int, n, c)
	}
	s := (*buf)[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	*buf = s
	return s
}

// appendAdj extends an adjacency outer slice by one empty row, reusing
// a spare row (and its capacity) left in the backing array by an
// earlier state or an undone node addition.
func appendAdj(s [][]int) [][]int {
	if len(s) < cap(s) {
		s = s[: len(s)+1 : cap(s)]
		s[len(s)-1] = s[len(s)-1][:0]
		return s
	}
	return append(s, nil)
}

// sgIndex holds lookup tables derived purely from one (superblock, SG)
// pair: immutable after construction and safely shared between states
// (clones included) and across arena reuse.
type sgIndex struct {
	sb    *ir.Superblock
	g     *sg.Graph
	nOrig int

	// combW is the fixed per-pair width of the combination bitsets, in
	// 64-bit words: enough for the widest feasible span of any SG edge.
	combW int

	// estarts is ir.Superblock.EStarts, every state's initial estarts.
	estarts []int

	// pairW is the width in 64-bit words of a bitset over the pairs, and
	// incident holds one such row per original instruction: bit i of
	// row n is set when n is an endpoint of pair i. rulePrunePairs ORs
	// the rows of the instructions whose bounds moved to find the pairs
	// it must revisit (dirtyPairs).
	pairW    int
	incident []uint64

	// pairAt maps U*nOrig+V (U < V) to the dense pair index, −1 when
	// the pair has no SG edge.
	pairAt []int32

	// consStart/consVals form a CSR of valuesConsumedBy: the values
	// instruction c reads are consVals[consStart[c]:consStart[c+1]],
	// data-edge producers first (edge order), then live-in encodings.
	consStart []int32
	consVals  []int

	// dataStart/dataCons form a CSR of ir.Superblock.DataConsumers: the
	// instructions reading the value u produces are
	// dataCons[dataStart[u]:dataStart[u+1]], in out-edge order.
	dataStart []int32
	dataCons  []int
}

func buildSGIndex(sb *ir.Superblock, g *sg.Graph) *sgIndex {
	n := sb.N()
	idx := &sgIndex{sb: sb, g: g, nOrig: n, combW: 1, estarts: sb.EStarts()}
	idx.pairAt = make([]int32, n*n)
	for i := range idx.pairAt {
		idx.pairAt[i] = -1
	}
	idx.pairW = (len(g.Edges) + 63) >> 6
	idx.incident = make([]uint64, n*idx.pairW)
	for ei, e := range g.Edges {
		idx.pairAt[e.U*n+e.V] = int32(ei)
		span := e.Combs[len(e.Combs)-1] - e.Combs[0] + 1
		if w := (span + 63) >> 6; w > idx.combW {
			idx.combW = w
		}
		bit := uint64(1) << uint(ei&63)
		idx.incident[e.U*idx.pairW+ei>>6] |= bit
		idx.incident[e.V*idx.pairW+ei>>6] |= bit
	}
	idx.consStart = make([]int32, n+1)
	for c := 0; c < n; c++ {
		for _, ei := range sb.InEdges(c) {
			if sb.Edges[ei].Kind == ir.Data {
				idx.consVals = append(idx.consVals, sb.Edges[ei].From)
			}
		}
		for li := range sb.LiveIns {
			for _, cc := range sb.LiveIns[li].Consumers {
				if cc == c {
					idx.consVals = append(idx.consVals, -(li + 1))
				}
			}
		}
		idx.consStart[c+1] = int32(len(idx.consVals))
	}
	idx.dataStart = make([]int32, n+1)
	for u := 0; u < n; u++ {
		for _, ei := range sb.OutEdges(u) {
			if sb.Edges[ei].Kind == ir.Data {
				idx.dataCons = append(idx.dataCons, sb.Edges[ei].To)
			}
		}
		idx.dataStart[u+1] = int32(len(idx.dataCons))
	}
	return idx
}

// pairIndex returns the dense pair index of (a,b), −1 when no SG edge
// exists (including out-of-range ids, matching the former map miss).
func (st *State) pairIndex(a, b int) int {
	if a > b {
		a, b = b, a
	}
	if a < 0 || b >= st.nOrig {
		return -1
	}
	return int(st.idx.pairAt[a*st.nOrig+b])
}

// commSlot maps a value (instruction id or live-in encoding) to its
// commIdx slot.
func (st *State) commSlot(value int) int {
	if value >= 0 {
		return value
	}
	return st.nOrig + (-(value + 1))
}

// commFor returns the comms index holding value's communication, or −1.
func (st *State) commFor(value int) int { return int(st.commIdx[st.commSlot(value)]) }
