// Package graphutil provides the small graph data structures shared by
// the scheduling packages: plain union-find (virtual clusters) and
// union-find with relative offsets (connected components of the
// scheduling graph, where members have fixed cycle distances).
//
// Both structures keep every element's representative in a flat array
// (a label, not a parent pointer), and each set's members on a circular
// list threaded through the elements, so a query is one array read and
// a merge relabels the losing set. The choice of the surviving
// representative is the classic one (union by size for UnionFind, by
// rank for OffsetUF), so the representatives are those of a
// disjoint-set forest with the same rule.
//
// OffsetUF also names its membership with a version: a new membership
// takes a value the structure never had, and a trail undo restores the
// value its mark saw, so a cache of the partition keyed on the version
// is valid again after a rollback to the partition it describes.
package graphutil

import "fmt"

// UnionFind is a disjoint-set structure with union by size. Find is one
// array read; Union relabels the smaller set. It supports trail-scoped
// speculation: between TrailMark and TrailUndo/TrailStop every
// structural change (Union, Add) is recorded in an op log so it can be
// reverted in O(changes), restoring the exact pre-mark labels.
type UnionFind struct {
	elems    []ufElem
	sets     int
	trailing bool
	ops      []ufOp
}

// ufElem is one element: its representative, the next member of its
// set on the set's circular list, and (at representatives) the set
// size.
type ufElem struct {
	root, next, size int32
}

// ufOp is one reversible UnionFind mutation. ry < 0 marks an Add (undo
// truncates); otherwise it is a Union that relabelled root ry's set to
// root rx (undo splits the lists and relabels them back).
type ufOp struct{ ry, rx int32 }

// NewUnionFind creates n singleton sets 0..n-1.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	u.Reset(n)
	return u
}

// Len returns the number of elements.
func (u *UnionFind) Len() int { return len(u.elems) }

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Add appends a new singleton element and returns its index.
func (u *UnionFind) Add() int {
	i := len(u.elems)
	u.elems = append(u.elems, ufElem{root: int32(i), next: int32(i), size: 1})
	u.sets++
	if u.trailing {
		u.ops = append(u.ops, ufOp{ry: -1})
	}
	return i
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int { return int(u.elems[x].root) }

// Same reports whether x and y are in the same set.
func (u *UnionFind) Same(x, y int) bool { return u.elems[x].root == u.elems[y].root }

// Union merges the sets of x and y and returns the surviving
// representative: the root of the larger set, x's on a tie.
func (u *UnionFind) Union(x, y int) int {
	rx, ry := u.elems[x].root, u.elems[y].root
	if rx == ry {
		return int(rx)
	}
	if u.elems[rx].size < u.elems[ry].size {
		rx, ry = ry, rx
	}
	u.relabel(ry, rx)
	u.splice(rx, ry)
	u.elems[rx].size += u.elems[ry].size
	u.sets--
	if u.trailing {
		u.ops = append(u.ops, ufOp{ry: ry, rx: rx})
	}
	return int(rx)
}

// relabel sets the representative of every member on first's list.
func (u *UnionFind) relabel(first, root int32) {
	m := first
	for {
		u.elems[m].root = root
		if m = u.elems[m].next; m == first {
			return
		}
	}
}

// splice joins the circular lists through a and b when they are
// distinct lists, and splits them again when a and b are on one list
// that an earlier splice of the same two elements joined.
func (u *UnionFind) splice(a, b int32) {
	u.elems[a].next, u.elems[b].next = u.elems[b].next, u.elems[a].next
}

// SetSize returns the size of x's set.
func (u *UnionFind) SetSize(x int) int { return int(u.elems[u.elems[x].root].size) }

// TrailMark enables trailing (if not already active) and returns a mark
// for the current op-log position, suitable for TrailUndo.
func (u *UnionFind) TrailMark() int {
	u.trailing = true
	return len(u.ops)
}

// TrailLen returns the current op-log position (the number of recorded
// mutations); comparing it with an earlier mark tells whether anything
// changed since.
func (u *UnionFind) TrailLen() int { return len(u.ops) }

// TrailUndo reverts every mutation recorded after mark, most recent
// first, restoring the exact labels and lists at TrailMark time.
func (u *UnionFind) TrailUndo(mark int) {
	for i := len(u.ops) - 1; i >= mark; i-- {
		op := u.ops[i]
		if op.ry < 0 { // Add
			u.elems = u.elems[:len(u.elems)-1]
			u.sets--
			continue
		}
		u.splice(op.rx, op.ry)
		u.relabel(op.ry, op.ry)
		u.elems[op.rx].size -= u.elems[op.ry].size
		u.sets++
	}
	u.ops = u.ops[:mark]
}

// TrailStop ends trailing: the op log is discarded (keeping its backing
// array for reuse).
func (u *UnionFind) TrailStop() {
	u.trailing = false
	u.ops = u.ops[:0]
}

// Reset reinitializes the structure to n singleton sets, reusing the
// backing array (including capacity gained from previous growth). It
// must not be called while a trail is active.
func (u *UnionFind) Reset(n int) {
	if u.trailing {
		panic("graphutil: UnionFind.Reset during active trail")
	}
	if cap(u.elems) < n {
		u.elems = make([]ufElem, n)
	}
	u.elems = u.elems[:n]
	for i := range u.elems {
		u.elems[i] = ufElem{root: int32(i), next: int32(i), size: 1}
	}
	u.sets = n
	u.ops = u.ops[:0]
}

// Clone returns a deep copy. It must not be called while a trail is
// active: the copy would share no op log with the original, so undo
// obligations would be silently lost.
func (u *UnionFind) Clone() *UnionFind {
	if u.trailing {
		panic("graphutil: UnionFind.Clone during active trail")
	}
	return &UnionFind{elems: append([]ufElem(nil), u.elems...), sets: u.sets}
}

// Groups returns the members of every set, keyed by representative.
func (u *UnionFind) Groups() map[int][]int {
	g := make(map[int][]int)
	for i := range u.elems {
		r := u.Find(i)
		g[r] = append(g[r], i)
	}
	return g
}

// OffsetUF is a union-find whose elements carry a relative integer
// offset to their set representative: Offset(x) is defined such that for
// two members x, y of one set, value(x) − value(y) = Offset(x) −
// Offset(y) in any assignment consistent with the recorded relations.
// It models the paper's connected components: choosing a combination
// fixes the cycle distance between two instructions.
// Like UnionFind, it keeps each element's representative and offset in
// a flat array, so Find, Same and Delta are array reads; a merging
// Relate relabels the set of the lower-ranked root. It supports
// trail-scoped speculation via TrailMark/TrailUndo/TrailStop: Relate
// and Add are logged for O(changes) reversal.
type OffsetUF struct {
	elems    []offElem
	trailing bool
	ops      []offOp
	// version names the set membership: every Add, merging Relate and
	// Reset takes a fresh value from issued (monotonic, never reused),
	// and TrailUndo restores the value the mark saw, because it
	// restores that very membership. Two reads of one version therefore
	// saw one partition, and callers key caches of the partition on it.
	version, issued uint64
}

// offElem is one element: its representative, its offset to the
// representative (value(x) − value(root)), the next member of its set
// on the set's circular list, and (at representatives) the union rank
// and the set size.
type offElem struct {
	root, next, rank, size int32
	off                    int
}

// offOp is one reversible OffsetUF mutation. ry < 0 marks an Add;
// otherwise root ry's set was relabelled to root rx, every member's
// offset shifted by −d, and rx's rank bumped if rankBumped. ver is the
// version before the mutation, which undoing it restores.
type offOp struct {
	ry, rx     int32
	rankBumped bool
	d          int
	ver        uint64
}

// NewOffsetUF creates n singletons with offset 0.
func NewOffsetUF(n int) *OffsetUF {
	o := &OffsetUF{}
	o.Reset(n)
	return o
}

// Len returns the number of elements.
func (o *OffsetUF) Len() int { return len(o.elems) }

// Add appends a new singleton element and returns its index.
func (o *OffsetUF) Add() int {
	i := len(o.elems)
	o.elems = append(o.elems, offElem{root: int32(i), next: int32(i), size: 1})
	if o.trailing {
		o.ops = append(o.ops, offOp{ry: -1, ver: o.version})
	}
	o.bump()
	return i
}

// bump gives the structure a version no earlier state has had.
func (o *OffsetUF) bump() {
	o.issued++
	o.version = o.issued
}

// Find returns the representative of x and x's offset to it.
func (o *OffsetUF) Find(x int) (root, offset int) {
	e := &o.elems[x]
	return int(e.root), e.off
}

// Same reports whether x and y are in one set.
func (o *OffsetUF) Same(x, y int) bool { return o.elems[x].root == o.elems[y].root }

// Delta returns value(x) − value(y) if x and y are in the same set.
func (o *OffsetUF) Delta(x, y int) (delta int, sameSet bool) {
	ex, ey := &o.elems[x], &o.elems[y]
	if ex.root != ey.root {
		return 0, false
	}
	return ex.off - ey.off, true
}

// Relate records value(x) − value(y) = delta. If x and y were already
// related, it reports whether the existing relation agrees; a
// disagreement leaves the structure unchanged and returns ErrConflict.
func (o *OffsetUF) Relate(x, y, delta int) error {
	rx, ox := o.Find(x)
	ry, oy := o.Find(y)
	if rx == ry {
		if ox-oy != delta {
			return fmt.Errorf("%w: %d−%d = %d, want %d", ErrConflict, x, y, ox-oy, delta)
		}
		return nil
	}
	// value(rx) = value(x) − ox; value(ry) = value(y) − oy.
	// value(x) − value(y) = delta ⇒ value(rx) − value(ry) = delta − ox + oy.
	d := delta - ox + oy
	if o.elems[rx].rank < o.elems[ry].rank {
		rx, ry, d = ry, rx, -d
	}
	// value(ry) − value(rx) = −d, so every member of ry's set moves its
	// offset by −d.
	o.shift(int32(ry), int32(rx), -d)
	o.splice(int32(rx), int32(ry))
	bumped := o.elems[rx].rank == o.elems[ry].rank
	if bumped {
		o.elems[rx].rank++
	}
	o.elems[rx].size += o.elems[ry].size
	if o.trailing {
		o.ops = append(o.ops, offOp{ry: int32(ry), rx: int32(rx), rankBumped: bumped, d: d, ver: o.version})
	}
	o.bump()
	return nil
}

// shift relabels every member on first's list to root and adds by to
// its offset.
func (o *OffsetUF) shift(first, root int32, by int) {
	m := first
	for {
		e := &o.elems[m]
		e.root = root
		e.off += by
		if m = e.next; m == first {
			return
		}
	}
}

// splice joins or splits circular lists, as UnionFind.splice does.
func (o *OffsetUF) splice(a, b int32) {
	o.elems[a].next, o.elems[b].next = o.elems[b].next, o.elems[a].next
}

// SetSize returns the number of elements in x's set.
func (o *OffsetUF) SetSize(x int) int { return int(o.elems[o.elems[x].root].size) }

// NextMember returns the member after x on its set's circular member
// list: starting anywhere in a set and following NextMember visits every
// member once before it returns to the start.
func (o *OffsetUF) NextMember(x int) int { return int(o.elems[x].next) }

// Version returns the membership version. An Add, a merging Relate or a
// Reset moves it to a value the structure has never had; TrailUndo
// moves it back to the value at the mark, since it restores that
// membership. So equal versions mean equal membership, and a version
// once left for a new membership never returns.
func (o *OffsetUF) Version() uint64 { return o.version }

// TrailMark enables trailing (if not already active) and returns a mark
// for the current op-log position, suitable for TrailUndo.
func (o *OffsetUF) TrailMark() int {
	o.trailing = true
	return len(o.ops)
}

// TrailUndo reverts every mutation recorded after mark, most recent
// first, restoring the exact structure at TrailMark time, version
// included.
func (o *OffsetUF) TrailUndo(mark int) {
	for i := len(o.ops) - 1; i >= mark; i-- {
		op := o.ops[i]
		o.version = op.ver
		if op.ry < 0 { // Add
			o.elems = o.elems[:len(o.elems)-1]
			continue
		}
		o.splice(op.rx, op.ry)
		o.shift(op.ry, op.ry, op.d)
		o.elems[op.rx].size -= o.elems[op.ry].size
		if op.rankBumped {
			o.elems[op.rx].rank--
		}
	}
	o.ops = o.ops[:mark]
}

// TrailStop ends trailing: the op log is discarded (keeping its backing
// array for reuse).
func (o *OffsetUF) TrailStop() {
	o.trailing = false
	o.ops = o.ops[:0]
}

// Reset reinitializes the structure to n singletons with offset 0,
// reusing the backing array. The new membership takes a fresh version,
// so caches keyed on Version never confuse two states that happen to
// share the storage. It must not be called while a trail is active.
func (o *OffsetUF) Reset(n int) {
	if o.trailing {
		panic("graphutil: OffsetUF.Reset during active trail")
	}
	if cap(o.elems) < n {
		o.elems = make([]offElem, n)
	}
	o.elems = o.elems[:n]
	for i := range o.elems {
		o.elems[i] = offElem{root: int32(i), next: int32(i), size: 1}
	}
	o.bump()
	o.ops = o.ops[:0]
}

// ErrConflict is returned by Relate when a new relation contradicts an
// existing one.
var ErrConflict = fmt.Errorf("graphutil: conflicting offset relation")

// Clone returns a deep copy, version included: the copy has the same
// membership. From then on each issues its own versions. It must not be
// called while a trail is active (see UnionFind.Clone).
func (o *OffsetUF) Clone() *OffsetUF {
	if o.trailing {
		panic("graphutil: OffsetUF.Clone during active trail")
	}
	return &OffsetUF{elems: append([]offElem(nil), o.elems...), version: o.version, issued: o.issued}
}

// Members returns all elements in x's set together with their offsets
// relative to x (member value − x value).
func (o *OffsetUF) Members(x int) map[int]int {
	ex := o.elems[x]
	m := make(map[int]int)
	i := ex.root
	for {
		e := &o.elems[i]
		m[int(i)] = e.off - ex.off
		if i = e.next; i == ex.root {
			return m
		}
	}
}
