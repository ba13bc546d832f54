package graphutil

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasic(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 || u.Len() != 5 {
		t.Fatalf("fresh: sets=%d len=%d", u.Sets(), u.Len())
	}
	u.Union(0, 1)
	u.Union(2, 3)
	if !u.Same(0, 1) || !u.Same(2, 3) || u.Same(0, 2) {
		t.Error("membership wrong after unions")
	}
	if u.Sets() != 3 {
		t.Errorf("sets = %d, want 3", u.Sets())
	}
	u.Union(1, 3)
	if !u.Same(0, 2) {
		t.Error("transitive union failed")
	}
	if u.SetSize(0) != 4 {
		t.Errorf("SetSize = %d, want 4", u.SetSize(0))
	}
	// Union of already-joined elements is a no-op.
	before := u.Sets()
	u.Union(0, 3)
	if u.Sets() != before {
		t.Error("redundant union changed set count")
	}
}

func TestUnionFindAddAndClone(t *testing.T) {
	u := NewUnionFind(2)
	i := u.Add()
	if i != 2 || u.Sets() != 3 {
		t.Fatalf("Add: i=%d sets=%d", i, u.Sets())
	}
	u.Union(0, 2)
	cp := u.Clone()
	cp.Union(1, 2)
	if u.Same(1, 2) {
		t.Error("Clone shares state")
	}
	if !cp.Same(0, 1) {
		t.Error("clone lost union")
	}
}

func TestUnionFindGroups(t *testing.T) {
	u := NewUnionFind(6)
	u.Union(0, 1)
	u.Union(1, 2)
	u.Union(4, 5)
	g := u.Groups()
	if len(g) != 3 {
		t.Fatalf("groups = %v", g)
	}
	if len(g[u.Find(0)]) != 3 || len(g[u.Find(4)]) != 2 || len(g[u.Find(3)]) != 1 {
		t.Errorf("group sizes wrong: %v", g)
	}
}

func TestOffsetUFRelate(t *testing.T) {
	o := NewOffsetUF(4)
	// value(1) − value(0) = 3
	if err := o.Relate(1, 0, 3); err != nil {
		t.Fatal(err)
	}
	if d, ok := o.Delta(1, 0); !ok || d != 3 {
		t.Fatalf("Delta(1,0) = %d,%v", d, ok)
	}
	if d, ok := o.Delta(0, 1); !ok || d != -3 {
		t.Fatalf("Delta(0,1) = %d,%v", d, ok)
	}
	if _, ok := o.Delta(0, 2); ok {
		t.Fatal("Delta across sets reported sameSet")
	}
	// value(2) − value(1) = −1 ⇒ value(2) − value(0) = 2
	if err := o.Relate(2, 1, -1); err != nil {
		t.Fatal(err)
	}
	if d, ok := o.Delta(2, 0); !ok || d != 2 {
		t.Fatalf("Delta(2,0) = %d,%v", d, ok)
	}
	// Consistent re-relation is fine; inconsistent errors.
	if err := o.Relate(2, 0, 2); err != nil {
		t.Fatalf("consistent re-relation: %v", err)
	}
	if err := o.Relate(2, 0, 5); !errors.Is(err, ErrConflict) {
		t.Fatalf("inconsistent relation err = %v", err)
	}
	// After the failed relate, old relation still intact.
	if d, _ := o.Delta(2, 0); d != 2 {
		t.Fatal("failed relate corrupted state")
	}
}

func TestOffsetUFMembers(t *testing.T) {
	o := NewOffsetUF(5)
	o.Relate(1, 0, 2)
	o.Relate(2, 0, -1)
	m := o.Members(0)
	want := map[int]int{0: 0, 1: 2, 2: -1}
	if len(m) != len(want) {
		t.Fatalf("Members = %v", m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("Members[%d] = %d, want %d", k, m[k], v)
		}
	}
}

func TestOffsetUFAddClone(t *testing.T) {
	o := NewOffsetUF(1)
	i := o.Add()
	if i != 1 {
		t.Fatalf("Add = %d", i)
	}
	o.Relate(1, 0, 7)
	cp := o.Clone()
	j := cp.Add()
	cp.Relate(j, 0, 1)
	if o.Len() != 2 {
		t.Error("Clone shares backing arrays")
	}
	if d, ok := cp.Delta(1, 0); !ok || d != 7 {
		t.Error("clone lost relation")
	}
}

// refForest is the reference disjoint-set forest the randomized tests
// compare against: plain parent pointers, no compression, and the
// classic choice of the surviving root (by rank or by size, ties to the
// first argument's root). The flat union-finds must name the same
// representative for every element: the sorted component order the
// deduction rules visit depends on it.
type refForest struct {
	parent, weight []int
	byRank         bool
}

func newRefForest(n int, byRank bool) *refForest {
	f := &refForest{byRank: byRank}
	for i := 0; i < n; i++ {
		f.add()
	}
	return f
}

func (f *refForest) add() {
	f.parent = append(f.parent, len(f.parent))
	if f.byRank {
		f.weight = append(f.weight, 0)
	} else {
		f.weight = append(f.weight, 1)
	}
}

func (f *refForest) find(x int) int {
	for f.parent[x] != x {
		x = f.parent[x]
	}
	return x
}

func (f *refForest) union(x, y int) {
	rx, ry := f.find(x), f.find(y)
	if rx == ry {
		return
	}
	if f.weight[rx] < f.weight[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = rx
	switch {
	case !f.byRank:
		f.weight[rx] += f.weight[ry]
	case f.weight[rx] == f.weight[ry]:
		f.weight[rx]++
	}
}

func (f *refForest) clone() *refForest {
	return &refForest{parent: append([]int(nil), f.parent...), weight: append([]int(nil), f.weight...), byRank: f.byRank}
}

// refTrail interleaves trail operations into a randomized replay: it
// opens a checkpoint (TrailMark plus a snapshot of the reference),
// rolls the innermost one back (TrailUndo plus the snapshot), or keeps
// it (as an inner commit does; closing the outermost ends the trail).
type refTrail[T any] struct {
	marks []int
	snaps []T
}

// step draws one trail operation, or none, and applies it through the
// callbacks; it returns the reference to continue with.
func (tr *refTrail[T]) step(rng *rand.Rand, ref T, mark func() int, undo func(int), stop func(), snap func(T) T) T {
	switch rng.Intn(8) {
	case 0:
		tr.marks = append(tr.marks, mark())
		tr.snaps = append(tr.snaps, snap(ref))
	case 1, 2:
		if n := len(tr.marks); n > 0 {
			undo(tr.marks[n-1])
			ref = tr.snaps[n-1]
			tr.marks, tr.snaps = tr.marks[:n-1], tr.snaps[:n-1]
			if n == 1 {
				stop()
			}
		}
	case 3:
		if n := len(tr.marks); n > 0 {
			tr.marks, tr.snaps = tr.marks[:n-1], tr.snaps[:n-1]
			if n == 1 {
				stop()
			}
		}
	}
	return ref
}

// TestOffsetUFAgainstReference replays random relation sequences, with
// element additions and trail checkpoints interleaved, against a
// reference that stores concrete values and a rank-based forest. Relate
// must accept exactly the consistent relations, every Find must name
// the reference's representative, and every offset must match the
// concrete values.
func TestOffsetUFAgainstReference(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		o := NewOffsetUF(n)
		// Each element gets a concrete value; relations are constructed
		// from the values, so every same-component relation is
		// consistent and cross-component relations adopt the values.
		// Values outlive a rolled-back Add: a re-added element reuses
		// its slot's value.
		const steps = 60
		vals := make([]int, n+steps)
		for i := range vals {
			vals[i] = rng.Intn(21) - 10
		}
		ref := newRefForest(n, true)
		var tr refTrail[*refForest]
		for step := 0; step < steps; step++ {
			ref = tr.step(rng, ref, o.TrailMark, o.TrailUndo, o.TrailStop, (*refForest).clone)
			x, y := rng.Intn(o.Len()), rng.Intn(o.Len())
			switch {
			case rng.Intn(8) == 0:
				o.Add()
				ref.add()
			case x == y:
			case rng.Intn(4) == 0 && ref.find(x) == ref.find(y):
				// Deliberately inconsistent relation.
				wrong := vals[x] - vals[y] + 1 + rng.Intn(3)
				if err := o.Relate(x, y, wrong); err == nil {
					return false
				}
			default:
				if err := o.Relate(x, y, vals[x]-vals[y]); err != nil {
					return false
				}
				ref.union(x, y)
			}
			if o.Len() != len(ref.parent) {
				return false
			}
			for i := 0; i < o.Len(); i++ {
				root, off := o.Find(i)
				if root != ref.find(i) || off != vals[i]-vals[root] {
					return false
				}
			}
			a, b := rng.Intn(o.Len()), rng.Intn(o.Len())
			d, ok := o.Delta(a, b)
			if ok != (ref.find(a) == ref.find(b)) || (ok && d != vals[a]-vals[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionFindRandomAgainstReference replays random unions, with
// element additions and trail checkpoints interleaved, against a
// size-based reference forest: every Find must name the reference's
// representative, and the set count and sizes must agree.
func TestUnionFindRandomAgainstReference(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		u := NewUnionFind(n)
		ref := newRefForest(n, false)
		var tr refTrail[*refForest]
		for step := 0; step < 60; step++ {
			ref = tr.step(rng, ref, u.TrailMark, u.TrailUndo, u.TrailStop, (*refForest).clone)
			if rng.Intn(8) == 0 {
				u.Add()
				ref.add()
			} else {
				x, y := rng.Intn(u.Len()), rng.Intn(u.Len())
				u.Union(x, y)
				ref.union(x, y)
			}
			if u.Len() != len(ref.parent) {
				return false
			}
			sets := 0
			for i := 0; i < u.Len(); i++ {
				r := ref.find(i)
				if u.Find(i) != r || u.SetSize(i) != ref.weight[r] {
					return false
				}
				if r == i {
					sets++
				}
			}
			if u.Sets() != sets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
