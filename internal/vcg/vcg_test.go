package vcg

import (
	"errors"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFuseAndIncompatible(t *testing.T) {
	g := New(4, 0)
	if g.NumVCs() != 4 {
		t.Fatalf("fresh VCs = %d", g.NumVCs())
	}
	if err := g.Fuse(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.SameVC(0, 1) || g.SameVC(0, 2) {
		t.Error("membership wrong")
	}
	if err := g.SetIncompatible(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.Incompatible(0, 2) {
		t.Error("incompatibility not visible through fused member")
	}
	// Fusing incompatible VCs contradicts.
	if err := g.Fuse(0, 2); !errors.Is(err, ErrContradiction) {
		t.Errorf("fuse of incompatible VCs: %v", err)
	}
	// Incompatibility inside a VC contradicts.
	if err := g.SetIncompatible(0, 1); !errors.Is(err, ErrContradiction) {
		t.Errorf("incompatibility inside a VC: %v", err)
	}
	// Redundant operations are fine.
	if err := g.Fuse(0, 1); err != nil {
		t.Errorf("re-fuse: %v", err)
	}
	if err := g.SetIncompatible(0, 2); err != nil {
		t.Errorf("re-incompatible: %v", err)
	}
}

func TestEdgeInheritanceOnFuse(t *testing.T) {
	// 0–1 incompatible, 2–3 incompatible; fusing 1 and 2 must leave the
	// new VC incompatible with both 0 and 3 (Figure 5's "inherits all
	// edges from VCs linked to VC2 or VC3").
	g := New(4, 0)
	g.SetIncompatible(0, 1)
	g.SetIncompatible(2, 3)
	if err := g.Fuse(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.Incompatible(1, 0) || !g.Incompatible(2, 0) {
		t.Error("edge to 0 lost")
	}
	if !g.Incompatible(1, 3) || !g.Incompatible(2, 3) {
		t.Error("edge to 3 lost")
	}
	if g.Degree(1) != 2 {
		t.Errorf("degree = %d, want 2", g.Degree(1))
	}
	if g.NumVCs() != 3 {
		t.Errorf("VCs = %d, want 3", g.NumVCs())
	}
}

func TestPaperFigure5Mapping(t *testing.T) {
	// Figure 5: six VCs with nine incompatibility edges are mapped onto
	// four physical clusters by fusing VC2+VC3 and VC1+VC4.
	g := New(6, 0)
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 5}, {1, 2}, {1, 5}, {2, 4}, {3, 4}, {3, 5}, {4, 5},
	}
	for _, e := range edges {
		if err := g.SetIncompatible(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if g.CliqueExceeds(4) {
		t.Fatal("figure-5 VCG vetoed for 4 clusters")
	}
	// Step 1: fuse VC2 and VC3 (compatible).
	if err := g.Fuse(2, 3); err != nil {
		t.Fatalf("fuse VC2,VC3: %v", err)
	}
	// Step 2: fuse VC1 and VC4 (compatible).
	if err := g.Fuse(1, 4); err != nil {
		t.Fatalf("fuse VC1,VC4: %v", err)
	}
	if g.NumVCs() != 4 {
		t.Fatalf("after fusions VCs = %d, want 4", g.NumVCs())
	}
	// Now every remaining pair is incompatible (the 4 VCs form a clique
	// in Figure 5.c) and the mapping is a bijection.
	if lb := g.maxCliqueLB(); lb != 4 {
		t.Errorf("clique bound after fusions = %d, want 4", lb)
	}
	if g.CliqueExceeds(4) || !g.CliqueExceeds(3) {
		t.Error("clique veto after fusions wrong: want 4 clusters kept, 3 vetoed")
	}
}

// TestFuseKeepsLargerRepresentative pins the union-by-size rule the
// deduction rules' VC order depends on: a fusion keeps the larger VC's
// representative, and the first argument's on a tie.
func TestFuseKeepsLargerRepresentative(t *testing.T) {
	g := New(6, 0)
	fuse := func(a, b, want int) {
		t.Helper()
		if err := g.Fuse(a, b); err != nil {
			t.Fatal(err)
		}
		if r := g.Rep(a); r != want || g.Rep(b) != want {
			t.Fatalf("Fuse(%d,%d): representative %d, want %d", a, b, r, want)
		}
	}
	fuse(5, 4, 5) // singletons tie: the first argument's
	fuse(1, 0, 1)
	fuse(0, 4, 1) // two 2-VCs tie: the first argument's, 0's representative 1
	fuse(3, 5, 1) // a singleton joins a 4-VC: the larger keeps its representative
	fuse(2, 3, 1)
}

func TestAnchors(t *testing.T) {
	g := New(3, 2)
	if !g.HasAnchors() || g.NumAnchors() != 2 {
		t.Fatal("anchors missing")
	}
	a0, a1 := g.MustAnchor(0), g.MustAnchor(1)
	if !g.Incompatible(a0, a1) {
		t.Error("anchors not pairwise incompatible")
	}
	if _, ok := g.PinnedPC(0); ok {
		t.Error("unpinned node reports a pin")
	}
	if err := g.Fuse(0, a1); err != nil {
		t.Fatal(err)
	}
	if pc, ok := g.PinnedPC(0); !ok || pc != 1 {
		t.Errorf("PinnedPC = %d,%v, want 1,true", pc, ok)
	}
	// Node 0 is now pinned to PC1; making it incompatible with a1 must
	// contradict, and fusing with a0 must contradict.
	if err := g.SetIncompatible(0, a1); !errors.Is(err, ErrContradiction) {
		t.Error("pin contradiction not detected")
	}
	if err := g.Fuse(0, a0); !errors.Is(err, ErrContradiction) {
		t.Error("double pin not detected")
	}
}

func TestAddNode(t *testing.T) {
	g := New(2, 1)
	id := g.AddNode()
	if id != 3 { // 2 instructions + 1 anchor
		t.Fatalf("AddNode = %d, want 3", id)
	}
	if err := g.SetIncompatible(id, 0); err != nil {
		t.Fatal(err)
	}
	if !g.Incompatible(id, 0) {
		t.Error("edge on added node lost")
	}
	if g.Len() != 4 {
		t.Errorf("Len = %d, want 4", g.Len())
	}
}

func TestMembersAndVCs(t *testing.T) {
	g := New(5, 0)
	g.Fuse(0, 3)
	g.Fuse(3, 4)
	m := g.Members(0)
	if len(m) != 3 {
		t.Fatalf("Members = %v", m)
	}
	if len(g.VCs()) != 3 {
		t.Errorf("VCs = %v", g.VCs())
	}
	if len(g.IncompatibleVCs(0)) != 0 {
		t.Error("phantom incompatibilities")
	}
	g.SetIncompatible(0, 1)
	if got := g.IncompatibleVCs(4); len(got) != 1 || got[0] != g.Rep(1) {
		t.Errorf("IncompatibleVCs = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := New(4, 1)
	g.SetIncompatible(0, 1)
	cp := g.Clone()
	cp.Fuse(0, 2)
	cp.SetIncompatible(2, 3)
	if g.SameVC(0, 2) {
		t.Error("Clone shares union-find")
	}
	if g.Incompatible(2, 3) {
		t.Error("Clone shares incompatibility sets")
	}
	if !cp.Incompatible(0, 1) {
		t.Error("clone lost an edge")
	}
}

func TestCliqueExceeds(t *testing.T) {
	g := New(4, 0)
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			g.SetIncompatible(a, b)
		}
	}
	if g.CliqueExceeds(3) {
		t.Error("K3 reported as exceeding 3")
	}
	if !g.CliqueExceeds(2) {
		t.Error("K3 not detected as exceeding 2")
	}
}

// Property: after any random sequence of consistent fuses and
// incompatibilities, invariants hold: Incompatible is symmetric, never
// intra-VC, and fusion transitively merges edge sets.
func TestRandomOperationsInvariants(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := New(n, 0)
		for step := 0; step < 30; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if rng.Intn(2) == 0 {
				if g.Incompatible(a, b) {
					if err := g.Fuse(a, b); err == nil {
						return false
					}
				} else if err := g.Fuse(a, b); err != nil {
					return false
				}
			} else {
				if g.SameVC(a, b) {
					if err := g.SetIncompatible(a, b); err == nil {
						return false
					}
				} else if err := g.SetIncompatible(a, b); err != nil {
					return false
				}
			}
		}
		// Invariants.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if g.Incompatible(a, b) != g.Incompatible(b, a) {
					return false
				}
				if g.SameVC(a, b) && g.Incompatible(a, b) {
					return false
				}
			}
		}
		// Edge sets are consistent across members of one VC.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if g.SameVC(a, b) && g.Degree(a) != g.Degree(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// maxClique returns the size of the largest set of current VCs that
// are pairwise incompatible, by trying every subset (at most 12 VCs).
func maxClique(g *Graph) int {
	reps := g.VCs()
	adj := make([]uint32, len(reps))
	for i, a := range reps {
		adj[i] = 1 << uint(i)
		for j, b := range reps {
			if g.Incompatible(a, b) {
				adj[i] |= 1 << uint(j)
			}
		}
	}
	best := 0
	for set := uint32(1); set < 1<<uint(len(reps)); set++ {
		size := bits.OnesCount32(set)
		if size <= best {
			continue
		}
		clique := true
		for i := range reps {
			if set&(1<<uint(i)) != 0 && adj[i]&set != set {
				clique = false
				break
			}
		}
		if clique {
			best = size
		}
	}
	return best
}

// maxCliqueLB is the greedy clique bound CliqueExceeds compares with
// its cluster count, computed in full: a clique is grown from each seed
// VC in decreasing-degree order (ties by ascending representative) by
// adding every VC, in the same order, adjacent to all members so far,
// and the bound is the largest clique so grown.
func (g *Graph) maxCliqueLB() int {
	order := g.VCs()
	sort.SliceStable(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	best := 0
	for _, seed := range order {
		clique := []int{seed}
		for _, v := range order {
			if v == seed {
				continue
			}
			ok := true
			for _, c := range clique {
				if !g.Incompatible(v, c) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		best = max(best, len(clique))
	}
	return best
}

// TestCliqueBoundAgainstBruteForce checks the clique veto against exact
// answers on random VCGs of at most 12 nodes (none, at the small end),
// anchors included, built by random fusions and incompatibilities. The
// greedy bound must never exceed the maximum clique, so CliqueExceeds
// never vetoes a graph for a cluster count some mapping could meet, and
// it must find an edge when there is one. When every pair of VCs is
// made incompatible, the bound must equal the number of VCs. And
// CliqueExceeds, which stops as soon as it has its answer, must give
// the full bound's answer for every cluster count from 0 to one past
// the number of VCs.
func TestCliqueBoundAgainstBruteForce(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		anchors := rng.Intn(4)
		g := New(rng.Intn(13-anchors), anchors)
		n := g.Len()
		for step := rng.Intn(4*n + 1); step > 0; step-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if rng.Intn(3) == 0 {
				_ = g.Fuse(a, b)
			} else {
				_ = g.SetIncompatible(a, b)
			}
		}
		complete := rng.Intn(4) == 0
		if complete {
			reps := g.VCs()
			for i, a := range reps {
				for _, b := range reps[i+1:] {
					if err := g.SetIncompatible(a, b); err != nil {
						t.Log(err)
						return false
					}
				}
			}
		}
		lb, omega := g.maxCliqueLB(), maxClique(g)
		if lb > omega || (omega >= 2 && lb < 2) || (complete && lb != len(g.VCs())) {
			t.Logf("seed %d: greedy bound %d, maximum clique %d, %d VCs, complete %v", seed, lb, omega, len(g.VCs()), complete)
			return false
		}
		for k := 0; k <= len(g.VCs())+1; k++ {
			if got := g.CliqueExceeds(k); got != (lb > k) {
				t.Logf("seed %d: CliqueExceeds(%d) = %v, greedy bound %d", seed, k, got, lb)
				return false
			}
		}
		return !g.CliqueExceeds(omega) && g.CliqueExceeds(lb-1)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
