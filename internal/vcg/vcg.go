// Package vcg maintains the virtual cluster graph (VCG) of the paper: a
// dynamic partition of instructions into virtual clusters (VCs — sets of
// instructions that must end up in the same physical cluster) together
// with incompatibility edges between VCs (pairs that must end up in
// different physical clusters).
//
// Two update operations drive it, both triggered by the deduction
// process: Fuse (the VCs must share a physical cluster) and
// SetIncompatible (they must not). A fusion of incompatible VCs, or an
// incompatibility inside one VC, is a contradiction.
//
// Besides the instruction nodes, the graph can host anchor nodes — one
// per physical cluster, pairwise incompatible — representing the
// pre-assigned locations of live-in/live-out values. Fusing an
// instruction's VC with anchor k pins it to physical cluster k while
// keeping the paper's delayed-mapping discipline intact.
//
// The partition lives in a graphutil.OffsetUF whose offsets stay 0 (a
// VC fixes no cycle distance), so a VC's representative is the
// union-by-size root: Fuse keeps the larger VC's representative, the
// first argument's on a tie.
//
// Incompatibility adjacency is stored as fixed-width bitset rows (one
// row of incW words per node), so edge queries are single-word tests,
// Degree is a popcount sweep, and the clique lower bound the deduction
// process re-checks after every rule pass walks words instead of maps.
// Rows hold bits only between current representatives: Fuse migrates
// the losing representative's edges to the survivor and zeroes its row.
package vcg

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"vcsched/internal/faultpoint"
	"vcsched/internal/graphutil"
)

// ErrContradiction is returned when a fusion or incompatibility request
// conflicts with the current graph.
var ErrContradiction = errors.New("vcg: contradiction")

// Graph is a virtual cluster graph. Create one with New; the zero value
// is not usable.
//
// It supports trail-scoped speculation: between TrailMark and
// TrailUndo/TrailStop every mutation (fusion, incompatibility edge,
// node addition) is recorded so it can be reverted in O(changes)
// instead of requiring a Clone.
type Graph struct {
	uf *graphutil.OffsetUF
	// inc is the incompatibility adjacency: node i's row is the incW
	// words inc[i*incW:(i+1)*incW], bit j set when VCs i and j are
	// incompatible. Rows are valid for representatives only.
	inc  []uint64
	incW int
	// anchorBase is the node index of the anchor for physical cluster 0;
	// −1 when the graph has no anchors.
	anchorBase int
	numAnchors int
	trailing   bool
	ops        []vop

	// version names the graph content: every mutation that can change
	// the partition or the incompatibility sets, and Reset, take a
	// fresh value from issued (monotonic, never reused), and TrailUndo
	// restores the value its mark saw, since it restores that very
	// content. It keys the CliqueExceeds memo: the clique bound is a
	// pure function of the content, so an unchanged version means the
	// previous answer still holds. Propagation re-checks the clique
	// veto after every rule pass while most passes never touch the
	// VCG, which made the recomputation the hottest path in probing.
	version, issued uint64
	memo            cliqueMemo

	// Scratch for the native clique bound; contents are dead between
	// calls, the backing arrays are kept so steady-state re-checks do
	// not allocate.
	scReps   []int
	scDeg    []int
	scOrder  []int
	scClique []int
	scCount  []int
}

// vop is one reversible incompatibility-adjacency mutation. Fusions
// live in the embedded OffsetUF's own log; the two logs are
// independent (they touch disjoint structures), so undo order between
// them does not matter.
type vop struct {
	kind uint8
	x, y int
}

const (
	vopEdgeAdd uint8 = iota // edge (x,y) inserted; undo clears both bits
	vopEdgeDel              // edge (x,y) removed by Fuse; undo re-sets both bits
	vopNodeAdd              // node appended; undo truncates inc by one row
)

// cliqueMemo is one CliqueExceeds answer: whether the graph of
// version ver has a clique of more than k VCs (ver 0 = no answer;
// versions start at 1).
type cliqueMemo struct {
	ver    uint64
	k      int
	exceed bool
}

// Mark is a checkpoint in the graph's trail, from TrailMark. It carries
// the version and the CliqueExceeds memo of the marked content, so an
// undo to it restores both.
type Mark struct {
	uf   int
	ops  int
	ver  uint64
	memo cliqueMemo
}

func wordsFor(n int) int {
	w := (n + 63) >> 6
	if w < 1 {
		w = 1
	}
	return w
}

// New creates a VCG over n instruction nodes (ids 0..n−1), each in its
// own VC. If anchors > 0, that many anchor nodes are appended (ids
// n..n+anchors−1) and made pairwise incompatible.
func New(n, anchors int) *Graph {
	return NewWithCap(n, anchors, n+anchors)
}

// NewWithCap is New with a capacity hint: rows are sized for capNodes
// total nodes up front, so adding nodes up to the hint never relayouts
// the adjacency. The deduction state passes its maximum node count
// (instructions + every materializable communication).
func NewWithCap(n, anchors, capNodes int) *Graph {
	if capNodes < n+anchors {
		capNodes = n + anchors
	}
	w := wordsFor(capNodes)
	g := &Graph{
		uf:         graphutil.NewOffsetUF(n),
		inc:        make([]uint64, n*w, capNodes*w),
		incW:       w,
		anchorBase: -1,
	}
	g.bump()
	g.addAnchors(anchors)
	return g
}

// bump gives the graph a version no earlier content has had.
func (g *Graph) bump() {
	g.issued++
	g.version = g.issued
}

// Reset reinitializes the graph to n singleton instruction nodes plus
// the given anchors, reusing the backing storage (per-request arena
// reuse). The new content takes a fresh version, so no stale memo can
// survive a reset. It must not be called while a trail is active.
func (g *Graph) Reset(n, anchors, capNodes int) {
	if g.trailing {
		panic("vcg: Reset during active trail")
	}
	if capNodes < n+anchors {
		capNodes = n + anchors
	}
	g.uf.Reset(n)
	w := wordsFor(capNodes)
	if w > g.incW || cap(g.inc) < capNodes*w {
		g.inc = make([]uint64, 0, capNodes*w)
		g.incW = w
	}
	g.inc = g.inc[:n*g.incW]
	clear(g.inc)
	g.anchorBase = -1
	g.numAnchors = 0
	g.ops = g.ops[:0]
	g.bump()
	g.addAnchors(anchors)
}

func (g *Graph) addAnchors(anchors int) {
	if anchors <= 0 {
		return
	}
	g.anchorBase = g.uf.Len()
	g.numAnchors = anchors
	for k := 0; k < anchors; k++ {
		g.addNode()
	}
	for a := 0; a < anchors; a++ {
		for b := a + 1; b < anchors; b++ {
			// Anchors represent distinct physical clusters; fresh
			// anchors are distinct VCs, so this cannot contradict.
			g.setEdge(g.anchorBase+a, g.anchorBase+b)
		}
	}
}

func (g *Graph) row(i int) []uint64 { return g.inc[i*g.incW : (i+1)*g.incW] }

func (g *Graph) hasEdge(x, y int) bool {
	return g.inc[x*g.incW+(y>>6)]&(1<<uint(y&63)) != 0
}

func (g *Graph) setBits(x, y int) {
	g.inc[x*g.incW+(y>>6)] |= 1 << uint(y&63)
	g.inc[y*g.incW+(x>>6)] |= 1 << uint(x&63)
}

func (g *Graph) clearBits(x, y int) {
	g.inc[x*g.incW+(y>>6)] &^= 1 << uint(y&63)
	g.inc[y*g.incW+(x>>6)] &^= 1 << uint(x&63)
}

func (g *Graph) addNode() int {
	id := g.uf.Add()
	if need := wordsFor(id + 1); need > g.incW {
		g.relayout(need, id)
	}
	n := (id + 1) * g.incW
	if cap(g.inc) >= n {
		g.inc = g.inc[:n]
		row := g.inc[id*g.incW : n]
		clear(row)
	} else {
		ninc := make([]uint64, n, 2*n)
		copy(ninc, g.inc)
		g.inc = ninc
	}
	g.bump()
	if g.trailing {
		g.ops = append(g.ops, vop{kind: vopNodeAdd})
	}
	return id
}

// relayout widens every row to w words (rare: only when growth exceeds
// the construction-time capacity hint). rows is the node count before
// the node being added.
func (g *Graph) relayout(w, rows int) {
	nw := g.incW * 2
	if nw < w {
		nw = w
	}
	ninc := make([]uint64, rows*nw, (rows+8)*nw)
	for i := 0; i < rows; i++ {
		copy(ninc[i*nw:i*nw+g.incW], g.inc[i*g.incW:(i+1)*g.incW])
	}
	g.inc, g.incW = ninc, nw
}

// AddNode appends a fresh node (used for communication instructions
// materialized during scheduling) and returns its id.
func (g *Graph) AddNode() int { return g.addNode() }

// Version returns the content version. A mutation that can change the
// partition or the incompatibility sets (fusion, new edge, node
// addition) or a Reset moves it to a value the graph has never had;
// TrailUndo moves it back to the value at the mark, and RestoreFrom to
// the value at the save, since each restores that content. So a caller
// that saw the same version twice saw the same graph.
func (g *Graph) Version() uint64 { return g.version }

// Len returns the total number of nodes (instructions + anchors +
// additions).
func (g *Graph) Len() int { return g.uf.Len() }

// Anchor returns the node id of the anchor for physical cluster k. It
// returns an error (formerly a panic) when the graph has no such
// anchor — an out-of-range physical cluster, or a graph created without
// anchors.
func (g *Graph) Anchor(k int) (int, error) {
	if g.anchorBase < 0 {
		return 0, fmt.Errorf("vcg: no such anchor %d: graph has no anchors", k)
	}
	if k < 0 || k >= g.numAnchors {
		return 0, fmt.Errorf("vcg: no such anchor %d: %d anchor(s) exist", k, g.numAnchors)
	}
	return g.anchorBase + k, nil
}

// MustAnchor is Anchor for callers that know k is valid (tests,
// examples); it panics on misuse instead of returning an error.
// Production paths use Anchor and propagate the error.
func (g *Graph) MustAnchor(k int) int {
	a, err := g.Anchor(k)
	if err != nil {
		panic(err)
	}
	return a
}

// HasAnchors reports whether anchor nodes exist.
func (g *Graph) HasAnchors() bool { return g.anchorBase >= 0 }

// NumAnchors returns the number of anchor nodes.
func (g *Graph) NumAnchors() int { return g.numAnchors }

// Rep returns the canonical representative of a's VC.
func (g *Graph) Rep(a int) int { return g.uf.Root(a) }

// SameVC reports whether a and b are in one VC.
func (g *Graph) SameVC(a, b int) bool { return g.uf.Same(a, b) }

// Incompatible reports whether the VCs of a and b are marked
// incompatible.
func (g *Graph) Incompatible(a, b int) bool {
	ra, rb := g.Rep(a), g.Rep(b)
	if ra == rb {
		return false
	}
	return g.hasEdge(ra, rb)
}

// Fuse merges the VCs of a and b. It returns ErrContradiction (wrapped)
// if they are incompatible.
func (g *Graph) Fuse(a, b int) error {
	ra, rb := g.Rep(a), g.Rep(b)
	if ra == rb {
		return nil
	}
	if g.hasEdge(ra, rb) {
		return errContra("fuse of incompatible VCs")
	}
	// Both are representatives, so the relation cannot conflict.
	_ = g.uf.Relate(ra, rb, 0)
	r := g.Rep(ra)
	g.bump()
	other := ra + rb - r
	// Migrate the losing representative's edges onto the survivor,
	// lowest neighbor first (deterministic; the former map iteration
	// produced the same final state in arbitrary order).
	orow := g.row(other)
	for wi := range orow {
		w := orow[wi]
		for w != 0 {
			bi := bits.TrailingZeros64(w)
			w &^= 1 << uint(bi)
			x := wi<<6 | bi
			g.clearBits(x, other)
			if g.trailing {
				g.ops = append(g.ops, vop{kind: vopEdgeDel, x: x, y: other})
			}
			g.setEdge(x, r)
		}
	}
	return nil
}

// SetIncompatible marks the VCs of a and b as requiring different
// physical clusters. It returns ErrContradiction (wrapped) if they are
// already the same VC.
func (g *Graph) SetIncompatible(a, b int) error {
	ra, rb := g.Rep(a), g.Rep(b)
	if ra == rb {
		return errContra("incompatibility inside one VC")
	}
	g.setEdge(ra, rb)
	return nil
}

func (g *Graph) setEdge(x, y int) {
	if x == y || g.hasEdge(x, y) {
		return
	}
	g.setBits(x, y)
	g.bump()
	if g.trailing {
		g.ops = append(g.ops, vop{kind: vopEdgeAdd, x: x, y: y})
	}
}

// TrailMark enables trailing (if not already active) and returns a
// checkpoint that TrailUndo can revert to.
func (g *Graph) TrailMark() Mark {
	g.trailing = true
	return Mark{uf: g.uf.TrailMark(), ops: len(g.ops), ver: g.version, memo: g.memo}
}

// TrailUndo reverts every mutation recorded after m, restoring the
// graph observed at TrailMark time with its version. A CliqueExceeds
// answer computed during the speculation is for other content; the
// answer the mark carried is put back in its place.
func (g *Graph) TrailUndo(m Mark) {
	g.version = m.ver
	if g.memo.ver != m.ver {
		g.memo = m.memo
	}
	for i := len(g.ops) - 1; i >= m.ops; i-- {
		op := g.ops[i]
		switch op.kind {
		case vopEdgeAdd:
			g.clearBits(op.x, op.y)
		case vopEdgeDel:
			g.setBits(op.x, op.y)
		case vopNodeAdd:
			// Reverse order guarantees every edge op touching this node
			// was already undone, so its row (and every bit for it in
			// other rows) is zero before the truncation.
			g.inc = g.inc[:len(g.inc)-g.incW]
		}
	}
	g.ops = g.ops[:m.ops]
	g.uf.TrailUndo(m.uf)
}

// TrailStop ends trailing: both op logs are discarded (keeping backing
// arrays for reuse).
func (g *Graph) TrailStop() {
	g.trailing = false
	g.ops = g.ops[:0]
	g.uf.TrailStop()
}

func errContra(msg string) error {
	return &contraError{msg}
}

type contraError struct{ msg string }

func (e *contraError) Error() string { return "vcg: " + e.msg }
func (e *contraError) Unwrap() error { return ErrContradiction }

// PinnedPC returns the physical cluster a's VC is pinned to via an
// anchor, if any.
func (g *Graph) PinnedPC(a int) (int, bool) {
	if g.anchorBase < 0 {
		return 0, false
	}
	ra := g.Rep(a)
	for k := 0; k < g.numAnchors; k++ {
		if g.Rep(g.anchorBase+k) == ra {
			return k, true
		}
	}
	return 0, false
}

// VCs returns the current VC representatives, sorted.
func (g *Graph) VCs() []int {
	seen := make([]bool, g.uf.Len())
	reps := make([]int, 0, g.uf.Len())
	for i := 0; i < g.uf.Len(); i++ {
		r := g.Rep(i)
		if !seen[r] {
			seen[r] = true
			reps = append(reps, r)
		}
	}
	sort.Ints(reps)
	return reps
}

// NumVCs returns the number of virtual clusters (including anchors).
func (g *Graph) NumVCs() int { return len(g.VCs()) }

// Members returns the node ids of a's VC, sorted.
func (g *Graph) Members(a int) []int {
	ra := g.Rep(a)
	var out []int
	for i := 0; i < g.uf.Len(); i++ {
		if g.Rep(i) == ra {
			out = append(out, i)
		}
	}
	return out
}

// Degree returns the number of VCs incompatible with a's VC.
func (g *Graph) Degree(a int) int {
	d := 0
	for _, w := range g.row(g.Rep(a)) {
		d += bits.OnesCount64(w)
	}
	return d
}

// IncompatibleVCs returns the representatives of VCs incompatible with
// a's VC, sorted.
func (g *Graph) IncompatibleVCs(a int) []int {
	var out []int
	row := g.row(g.Rep(a))
	for wi, w := range row {
		for w != 0 {
			bi := bits.TrailingZeros64(w)
			w &^= 1 << uint(bi)
			out = append(out, wi<<6|bi)
		}
	}
	return out
}

// CliqueExceeds reports whether a clique of more than k VCs exists (by
// the greedy lower bound), which proves no k-cluster mapping exists.
// The answer is memoized against the graph's content version: repeated
// checks with no intervening mutation (the common case — the deduction
// process re-checks after every rule pass) are O(1), and so is the
// first check after a trail undo to content already checked.
func (g *Graph) CliqueExceeds(k int) bool {
	if g.memo.ver == g.version && g.memo.k == k {
		return g.memo.exceed
	}
	r := g.cliqueExceeds(k)
	g.memo = cliqueMemo{ver: g.version, k: k, exceed: r}
	return r
}

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// cliqueExceeds answers whether the greedy clique bound exceeds k. The
// bound grows a clique from each seed VC in decreasing-degree order
// (ties by ascending representative) by adding every VC, in the same
// order, adjacent to all members so far, and is the largest clique so
// grown. A clique of more than k VCs holds only VCs of degree at least
// k, and those come first in the order, so a seed of lower degree, or
// growth past the last VC of degree at least k, cannot reach more than
// k: those VCs are left out, and the answer is true at the first clique
// of more than k. It works directly on the bitset rows with
// graph-owned scratch, so it does not allocate. The
// "coloring.maxclique" fault point fires here, on the deduction
// process's hottest query (only KindPanic is meaningful on a bare-bool
// query; other kinds are ignored).
func (g *Graph) cliqueExceeds(k int) bool {
	faultpoint.Fire("coloring.maxclique")
	n := g.uf.Len()
	reps := growInts(&g.scReps, n)[:0]
	for i := 0; i < n; i++ {
		if g.Rep(i) == i {
			reps = append(reps, i)
		}
	}
	if k < 1 {
		// One VC is a clique of one.
		return len(reps) > k
	}
	if len(reps) <= k {
		return false
	}
	deg := growInts(&g.scDeg, len(reps))[:0]
	cands, maxd := reps[:0], 0
	for _, r := range reps {
		d := 0
		for _, w := range g.row(r) {
			d += bits.OnesCount64(w)
		}
		if d < k {
			continue
		}
		cands, deg = append(cands, r), append(deg, d)
		if d > maxd {
			maxd = d
		}
	}
	if len(cands) <= k {
		return false
	}
	// Stable counting sort by degree, descending: count[j] starts the
	// degree maxd−j, and ties keep ascending representative order.
	count := growInts(&g.scCount, maxd-k+2)
	clear(count)
	for _, d := range deg {
		count[maxd-d+1]++
	}
	for j := 1; j < len(count); j++ {
		count[j] += count[j-1]
	}
	order := growInts(&g.scOrder, len(cands))
	for i, d := range deg {
		order[count[maxd-d]] = cands[i]
		count[maxd-d]++
	}
	if cap(g.scClique) < len(order) {
		g.scClique = make([]int, 0, len(order))
	}
	clique := g.scClique[:0]
	for _, seed := range order {
		clique = append(clique[:0], seed)
		for _, v := range order {
			if v == seed {
				continue
			}
			ok := true
			for _, c := range clique {
				if !g.hasEdge(v, c) {
					ok = false
					break
				}
			}
			if ok {
				if clique = append(clique, v); len(clique) > k {
					return true
				}
			}
		}
	}
	return false
}

// Clone returns a deep copy of the graph. It must not be called while a
// trail is active: the copy would carry none of the original's undo
// obligations.
func (g *Graph) Clone() *Graph {
	if g.trailing {
		panic("vcg: Clone during active trail")
	}
	return &Graph{
		uf:         g.uf.Clone(),
		inc:        append([]uint64(nil), g.inc...),
		incW:       g.incW,
		anchorBase: g.anchorBase,
		numAnchors: g.numAnchors,
		version:    g.version,
		issued:     g.issued,
		memo:       g.memo,
	}
}

// Snapshot is a copy of one graph's content, taken by SaveTo and put
// back by RestoreFrom. Its storage is reused from one save to the next.
type Snapshot struct {
	owner                  *Graph
	uf                     graphutil.Snapshot
	inc                    []uint64
	incW                   int
	anchorBase, numAnchors int
	version                uint64
	memo                   cliqueMemo
}

// SaveTo copies the graph into s, reusing s's storage. It must not be
// called while a trail is active.
func (g *Graph) SaveTo(s *Snapshot) {
	if g.trailing {
		panic("vcg: SaveTo during active trail")
	}
	g.uf.SaveTo(&s.uf)
	if cap(s.inc) < len(g.inc) {
		s.inc = make([]uint64, 0, cap(g.inc))
	}
	s.owner = g
	s.inc = append(s.inc[:0], g.inc...)
	s.incW, s.anchorBase, s.numAnchors = g.incW, g.anchorBase, g.numAnchors
	s.version, s.memo = g.version, g.memo
}

// RestoreFrom puts back the content s saved from this graph. Like
// TrailUndo it restores the version the graph gave that content, and
// the CliqueExceeds answer the save carried; the version counter stays
// where it is, so later content still takes values never used before. s must come from SaveTo
// on this graph, and no trail may be active.
func (g *Graph) RestoreFrom(s *Snapshot) {
	if g.trailing || s.owner != g {
		panic("vcg: RestoreFrom of a foreign snapshot or during active trail")
	}
	g.uf.RestoreFrom(&s.uf)
	g.inc = append(g.inc[:0], s.inc...)
	g.incW, g.anchorBase, g.numAnchors = s.incW, s.anchorBase, s.numAnchors
	g.version = s.version
	if g.memo.ver != s.version {
		g.memo = s.memo
	}
}
