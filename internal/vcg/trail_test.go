package vcg

import (
	"fmt"
	"testing"
)

// graphFingerprint renders every observable of the VCG: partition,
// incompatibilities, anchor pins.
func graphFingerprint(g *Graph) string {
	s := fmt.Sprintf("len=%d vcs=%d;", g.Len(), g.NumVCs())
	for _, r := range g.VCs() {
		s += fmt.Sprintf(" %d:%v!%v", r, g.Members(r), g.IncompatibleVCs(r))
		if pc, ok := g.PinnedPC(r); ok {
			s += fmt.Sprintf("@%d", pc)
		}
	}
	return s
}

func TestTrailUndoRestoresFuseAndEdges(t *testing.T) {
	g := New(6, 2)
	if err := g.SetIncompatible(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Fuse(2, 3); err != nil {
		t.Fatal(err)
	}
	want := graphFingerprint(g)

	m := g.TrailMark()
	// Fuse dissolves 0's incompatibility adjacency into the merged rep;
	// undo must resurrect the edge list exactly.
	if err := g.Fuse(0, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIncompatible(3, 5); err != nil {
		t.Fatal(err)
	}
	id := g.AddNode()
	if err := g.Fuse(id, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.Fuse(1, g.MustAnchor(0)); err != nil {
		t.Fatal(err)
	}
	g.TrailUndo(m)
	g.TrailStop()
	if got := graphFingerprint(g); got != want {
		t.Errorf("after undo:\n got %s\nwant %s", got, want)
	}
}

func TestTrailUndoRestoresContradictionBoundary(t *testing.T) {
	g := New(4, 0)
	if err := g.SetIncompatible(0, 1); err != nil {
		t.Fatal(err)
	}
	want := graphFingerprint(g)
	m := g.TrailMark()
	if err := g.Fuse(0, 1); err == nil {
		t.Fatal("fuse of incompatible VCs succeeded")
	}
	if err := g.Fuse(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIncompatible(2, 3); err == nil {
		t.Fatal("incompatibility inside one VC succeeded")
	}
	g.TrailUndo(m)
	g.TrailStop()
	if got := graphFingerprint(g); got != want {
		t.Errorf("after undo:\n got %s\nwant %s", got, want)
	}
}

// TestCliqueExceedsMemo checks the version-keyed memo: the cached
// answer must be invalidated by mutations, and a trail undo must not
// serve the answer computed for the undone content (the undo restores
// the marked version together with the answer the mark carried).
func TestCliqueExceedsMemo(t *testing.T) {
	g := New(4, 0)
	if g.CliqueExceeds(2) {
		t.Fatal("edgeless graph exceeds clique bound 2")
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
		if err := g.SetIncompatible(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !g.CliqueExceeds(2) {
		t.Fatal("triangle not detected after memoized negative answer")
	}
	if g.CliqueExceeds(3) {
		t.Fatal("triangle reported as exceeding 3")
	}

	m := g.TrailMark()
	if err := g.SetIncompatible(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIncompatible(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.SetIncompatible(2, 3); err != nil {
		t.Fatal(err)
	}
	if !g.CliqueExceeds(3) {
		t.Fatal("4-clique not detected while speculating")
	}
	g.TrailUndo(m)
	g.TrailStop()
	if g.CliqueExceeds(3) {
		t.Fatal("stale memo: undone 4-clique still reported")
	}
	if !g.CliqueExceeds(2) {
		t.Fatal("triangle lost by trail undo")
	}
}

// TestVersionNamesContents checks the contract the clique memo and the
// deduction state key on: every mutation, and Reset, moves the version
// to a value never seen before; reads leave it; a trail undo restores
// the value the mark saw, and the next mutation again gets a new one. A
// clone starts at its original's version and issues its own from
// there.
func TestVersionNamesContents(t *testing.T) {
	g := New(4, 2)
	seen := map[uint64]bool{}
	fresh := func(what string) uint64 {
		t.Helper()
		v := g.Version()
		if seen[v] {
			t.Fatalf("%s: version %d was seen before", what, v)
		}
		seen[v] = true
		return v
	}
	fresh("New")
	if err := g.Fuse(0, 1); err != nil {
		t.Fatal(err)
	}
	v := fresh("Fuse")
	g.Rep(2)
	g.Incompatible(0, 2)
	g.CliqueExceeds(2)
	if g.Version() != v {
		t.Error("a read moved the version")
	}
	if err := g.Fuse(0, 1); err != nil || g.Version() != v {
		t.Errorf("a fuse inside one VC moved the version (err %v)", err)
	}
	m := g.TrailMark()
	if err := g.SetIncompatible(0, 2); err != nil {
		t.Fatal(err)
	}
	fresh("SetIncompatible under a trail")
	g.AddNode()
	fresh("AddNode under a trail")
	if err := g.Fuse(2, 3); err != nil {
		t.Fatal(err)
	}
	fresh("Fuse under a trail")
	g.TrailUndo(m)
	g.TrailStop()
	if got := g.Version(); got != v {
		t.Fatalf("after trail undo: version %d, want %d, the one the mark saw", got, v)
	}
	if err := g.SetIncompatible(1, 3); err != nil {
		t.Fatal(err)
	}
	fresh("SetIncompatible after the undo")
	g.Reset(4, 2, 8)
	fresh("Reset")
	cp := g.Clone()
	if cp.Version() != g.Version() {
		t.Errorf("clone version %d, want the original's %d", cp.Version(), g.Version())
	}
	cp.AddNode()
	if seen[cp.Version()] {
		t.Errorf("a mutation of the clone reused version %d", cp.Version())
	}
	m = cp.TrailMark()
	if err := cp.Fuse(0, 1); err != nil {
		t.Fatal(err)
	}
	before := cp.Version()
	cp.TrailUndo(m)
	cp.TrailStop()
	if err := cp.Fuse(0, 2); err != nil {
		t.Fatal(err)
	}
	if cp.Version() == before || seen[cp.Version()] {
		t.Errorf("the clone's next mutation after an undo reused version %d", cp.Version())
	}
}

func TestCloneDuringTrailPanics(t *testing.T) {
	g := New(3, 0)
	g.TrailMark()
	defer g.TrailStop()
	defer func() {
		if recover() == nil {
			t.Error("Clone during active trail did not panic")
		}
	}()
	g.Clone()
}
