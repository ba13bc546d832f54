package graphutil

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

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

// refForest is the reference disjoint-set forest the randomized test
// compares against: plain parent pointers, no compression, and the
// classic choice of the surviving root (union by size, ties to the
// first argument's root). The flat union-find must name the same
// representative for every element: the sorted component order the
// deduction rules visit, and every VC representative, depend on it.
type refForest struct {
	parent, size []int
}

func newRefForest(n int) *refForest {
	f := &refForest{}
	for i := 0; i < n; i++ {
		f.add()
	}
	return f
}

func (f *refForest) add() {
	f.parent = append(f.parent, len(f.parent))
	f.size = append(f.size, 1)
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
	if f.size[rx] < f.size[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = rx
	f.size[rx] += f.size[ry]
}

func (f *refForest) clone() *refForest {
	return &refForest{parent: append([]int(nil), f.parent...), size: append([]int(nil), f.size...)}
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
// reference that stores concrete values and a size-based forest. Relate
// must accept exactly the consistent relations, every Find must name
// the reference's representative, every offset must match the concrete
// values, and every set size the reference's.
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
		ref := newRefForest(n)
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
				if root != ref.find(i) || off != vals[i]-vals[root] || o.SetSize(i) != ref.size[root] {
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
