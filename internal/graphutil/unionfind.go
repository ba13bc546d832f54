// Package graphutil provides the union-find with relative offsets that
// the scheduling packages share. It models the connected components of
// the scheduling graph, whose members have fixed cycle distances, and
// the virtual clusters of the virtual cluster graph, whose offsets stay
// 0.
//
// The structure keeps every element's representative and offset in a
// flat array (a label, not a parent pointer), and each set's members on
// a circular list threaded through the elements, so a query is one
// array read and a merge relabels the losing set. The surviving
// representative is the classic one, the root of the larger set with
// ties to the first argument's root (union by size), so the
// representatives are those of a disjoint-set forest with the same
// rule. By size also suits flat labels: an element is relabelled only
// into a set at least twice as large as its own.
//
// The structure names its membership with a version: a new membership
// takes a value the structure never had, and a trail undo restores the
// value its mark saw, so a cache of the partition keyed on the version
// is valid again after a rollback to the partition it describes.
package graphutil

import "fmt"

// OffsetUF is a union-find whose elements carry a relative integer
// offset to their set representative: Offset(x) is defined such that for
// two members x, y of one set, value(x) − value(y) = Offset(x) −
// Offset(y) in any assignment consistent with the recorded relations.
// It models the paper's connected components: choosing a combination
// fixes the cycle distance between two instructions. With every offset
// 0 it is the VCG's partition into virtual clusters.
// It keeps each element's representative and offset in a flat array,
// so Find, Same and Delta are array reads; a merging Relate relabels
// the smaller set. It supports trail-scoped speculation via
// TrailMark/TrailUndo/TrailStop: Relate and Add are logged for
// O(changes) reversal.
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
// on the set's circular list, and (at representatives) the set size.
type offElem struct {
	root, next, size int32
	off              int
}

// offOp is one reversible OffsetUF mutation. ry < 0 marks an Add;
// otherwise root ry's set was relabelled to root rx, every member's
// offset shifted by −d. ver is the version before the mutation, which
// undoing it restores.
type offOp struct {
	ry, rx int32
	d      int
	ver    uint64
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

// Root returns the representative of x, as Find does without the
// offset; it stays cheap enough to inline into the VCG's edge queries.
func (o *OffsetUF) Root(x int) int { return int(o.elems[x].root) }

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
// A merge keeps the root of the larger set, x's on a tie.
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
	if o.elems[rx].size < o.elems[ry].size {
		rx, ry, d = ry, rx, -d
	}
	// value(ry) − value(rx) = −d, so every member of ry's set moves its
	// offset by −d.
	o.shift(int32(ry), int32(rx), -d)
	o.splice(int32(rx), int32(ry))
	o.elems[rx].size += o.elems[ry].size
	if o.trailing {
		o.ops = append(o.ops, offOp{ry: int32(ry), rx: int32(rx), d: d, ver: o.version})
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

// splice joins the circular lists through a and b when they are
// distinct lists, and splits them again when a and b are on one list
// that an earlier splice of the same two elements joined.
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
// called while a trail is active: the copy would share no op log with
// the original, so undo obligations would be silently lost.
func (o *OffsetUF) Clone() *OffsetUF {
	if o.trailing {
		panic("graphutil: OffsetUF.Clone during active trail")
	}
	return &OffsetUF{elems: append([]offElem(nil), o.elems...), version: o.version, issued: o.issued}
}
