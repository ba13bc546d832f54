package graphutil

import (
	"fmt"
	"math/rand"
	"testing"
)

// offFingerprint renders every observable of an OffsetUF: per-element
// root, offset and set size, and the order of the member lists.
func offFingerprint(o *OffsetUF) string {
	s := fmt.Sprintf("len=%d;", o.Len())
	for x := 0; x < o.Len(); x++ {
		r, off := o.Find(x)
		s += fmt.Sprintf(" %d:%d%+d/%d>%d", x, r, off, o.SetSize(x), o.NextMember(x))
	}
	return s
}

func TestOffsetUFTrailUndoRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	o := NewOffsetUF(8)
	if err := o.Relate(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := o.Relate(2, 3, -1); err != nil {
		t.Fatal(err)
	}
	want := offFingerprint(o)

	mark := o.TrailMark()
	for i := 0; i < 40; i++ {
		switch rng.Intn(4) {
		case 0:
			o.Add()
		default:
			// Conflicting relations are fine: they leave the structure
			// unchanged by contract, so undo must still restore exactly.
			_ = o.Relate(rng.Intn(o.Len()), rng.Intn(o.Len()), rng.Intn(5)-2)
		}
	}
	o.TrailUndo(mark)
	o.TrailStop()
	if got := offFingerprint(o); got != want {
		t.Errorf("after undo:\n got %s\nwant %s", got, want)
	}
}

// TestOffsetUFVersionTracksMembership checks the contract callers key
// caches on: the version names the membership. It moves on every
// membership change (Add, merging Relate, Reset) to a value never seen
// before, stays put for reads and non-merging Relates, and a trail undo
// restores the value the mark saw.
func TestOffsetUFVersionTracksMembership(t *testing.T) {
	o := NewOffsetUF(4)
	seen := map[uint64]bool{}
	fresh := func(what string) uint64 {
		t.Helper()
		v := o.Version()
		if seen[v] {
			t.Fatalf("%s: version %d was seen before", what, v)
		}
		seen[v] = true
		return v
	}
	fresh("NewOffsetUF")
	v0 := o.Version()
	o.Find(3)
	if o.Version() != v0 {
		t.Error("Find bumped the version")
	}
	if err := o.Relate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	v1 := fresh("merging Relate")
	if err := o.Relate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if o.Version() != v1 {
		t.Error("agreeing re-Relate bumped the version")
	}
	o.Add()
	v2 := fresh("Add")
	mark := o.TrailMark()
	if err := o.Relate(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	fresh("merging Relate under a trail")
	o.Add()
	fresh("Add under a trail")
	o.TrailUndo(mark)
	o.TrailStop()
	if got := o.Version(); got != v2 {
		t.Errorf("after trail undo: version %d, want %d, the one the mark saw", got, v2)
	}
	if err := o.Relate(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	fresh("merging Relate after the undo")
	o.Reset(4)
	fresh("Reset")
	cp := o.Clone()
	if cp.Version() != o.Version() {
		t.Errorf("clone version %d, want the original's %d", cp.Version(), o.Version())
	}
	if err := cp.Relate(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	if seen[cp.Version()] {
		t.Errorf("merge on the clone reused version %d", cp.Version())
	}
}

func TestOffsetUFCloneDuringTrailPanics(t *testing.T) {
	o := NewOffsetUF(3)
	o.TrailMark()
	defer o.TrailStop()
	defer func() {
		if recover() == nil {
			t.Error("Clone during active trail did not panic")
		}
	}()
	o.Clone()
}
