package sg

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// edgeOf returns the SG edge of pair (u, v), u < v, if one exists.
func edgeOf(g *Graph, u, v int) (Edge, bool) {
	for _, e := range g.Edges {
		if e.U == u && e.V == v {
			return e, true
		}
	}
	return Edge{}, false
}

// TestPaperFigure4 checks the scheduling graph of the Figure 1 DG on the
// Figure 4 machine (1 cluster, 2 I + 1 B per cycle): exactly 8 edges;
// the I–I pairs have combinations {−1,0,1}, the I–B pairs
// {−2..1} / {−1..2} depending on orientation (4 each), and B0–B1 has 2.
func TestPaperFigure4(t *testing.T) {
	sb := ir.PaperFigure1()
	g := Build(sb, machine.PaperExampleSG())
	if g.NumEdges() != 8 {
		t.Fatalf("SG has %d edges, want 8\n%s", g.NumEdges(), g)
	}
	// IDs: I0=0 I1=1 I2=2 I3=3 B0=4 I4=5 B1=6.
	wantEdges := map[Pair][]int{
		{1, 2}: {-1, 0, 1},     // I1–I2
		{1, 3}: {-1, 0, 1},     // I1–I3
		{2, 3}: {-1, 0, 1},     // I2–I3
		{3, 5}: {-1, 0, 1},     // I3–I4
		{1, 4}: {-1, 0, 1, 2},  // I1–B0: comb = Cyc(I1)−Cyc(B0) ∈ [−1, 2]
		{2, 4}: {-1, 0, 1, 2},  // I2–B0
		{4, 5}: {-2, -1, 0, 1}, // B0–I4: comb = Cyc(B0)−Cyc(I4) ∈ [−2, 1]
		{4, 6}: {-2, -1},       // B0–B1: ctrl forces B1 later; comb 0 banned (1 branch FU anyway)
	}
	for p, want := range wantEdges {
		e, ok := edgeOf(g, p.U, p.V)
		if !ok {
			t.Errorf("missing edge (%d,%d)", p.U, p.V)
			continue
		}
		if !reflect.DeepEqual(e.Combs, want) {
			t.Errorf("edge (%d,%d) combs = %v, want %v", p.U, p.V, e.Combs, want)
		}
	}
	// Pairs the paper singles out as absent.
	for _, p := range []Pair{{1, 5}, {2, 5}, {0, 1}, {0, 6}, {3, 6}, {5, 6}, {2, 6}} {
		if e, ok := edgeOf(g, p.U, p.V); ok {
			t.Errorf("unexpected edge (%d,%d) with combs %v", p.U, p.V, e.Combs)
		}
	}
}

func TestSameClassCombZeroBanned(t *testing.T) {
	// Two independent same-class instructions on a machine with a single
	// unit of that class in total cannot share a cycle: combination 0 is
	// filtered out of the SG ("the machine allows a single branch per
	// cycle" generalized). With two units (2 clusters), it is kept.
	b := ir.NewBuilder("twoint")
	u := b.Instr("u", ir.Int, 2)
	v := b.Instr("v", ir.Int, 2)
	x := b.Exit("x", 1, 1.0)
	b.Data(u, x).Data(v, x)
	sb := b.MustFinish()

	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Branch] = 1, 1
	one := &machine.Config{Name: "1clust 1I", Clusters: 1, FU: fu}
	e, ok := edgeOf(Build(sb, one), u, v)
	if !ok {
		t.Fatal("no edge between independent instructions")
	}
	if !reflect.DeepEqual(e.Combs, []int{-1, 1}) {
		t.Errorf("combs on single-int machine = %v, want [-1 1]", e.Combs)
	}

	e2, ok := edgeOf(Build(sb, machine.PaperExampleSection5()), u, v)
	if !ok {
		t.Fatal("no edge on two-cluster machine")
	}
	if !reflect.DeepEqual(e2.Combs, []int{-1, 0, 1}) {
		t.Errorf("combs on 2-cluster machine = %v, want [-1 0 1]", e2.Combs)
	}
}

func TestCombRange(t *testing.T) {
	cases := []struct {
		latU, latV, lo, hi int
	}{
		{1, 1, 0, 0},
		{2, 2, -1, 1},
		{3, 2, -2, 1}, // the Figure 3 example: B (3 cycles) vs I (2 cycles)
		{2, 3, -1, 2},
		{1, 4, 0, 3},
	}
	for _, c := range cases {
		lo, hi := CombRange(c.latU, c.latV)
		if lo != c.lo || hi != c.hi {
			t.Errorf("CombRange(%d,%d) = [%d,%d], want [%d,%d]", c.latU, c.latV, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCombFeasibleAt(t *testing.T) {
	// comb = Cyc(u) − Cyc(v) = 1 with windows u∈[2,3], v∈[1,1]: u = 2.
	if !CombFeasibleAt(1, 2, 3, 1, 1) {
		t.Error("feasible comb rejected")
	}
	// comb = 5 with windows u∈[0,2], v∈[0,2]: impossible.
	if CombFeasibleAt(5, 0, 2, 0, 2) {
		t.Error("infeasible comb accepted")
	}
	// Degenerate exact windows.
	if !CombFeasibleAt(0, 4, 4, 4, 4) {
		t.Error("exact equal cycles rejected")
	}
	if CombFeasibleAt(1, 4, 4, 4, 4) {
		t.Error("offset between pinned cycles accepted")
	}
}

func TestMustOverlap(t *testing.T) {
	// Two latency-2 instructions both pinned to cycle windows [3,3]:
	// they must overlap.
	if !MustOverlap(3, 3, 2, 3, 3, 2) {
		t.Error("pinned same-cycle pair not forced to overlap")
	}
	// Wide windows: can always be separated.
	if MustOverlap(0, 10, 2, 0, 10, 2) {
		t.Error("separable pair forced to overlap")
	}
	// u in [0,0] lat 3, v in [1,2] lat 1: v always inside u's interval.
	if !MustOverlap(0, 0, 3, 1, 2, 1) {
		t.Error("nested pair not forced to overlap")
	}
	// u in [0,0] lat 2, v in [1,2] lat 1: v can start at 2 = after u.
	if MustOverlap(0, 0, 2, 1, 2, 1) {
		t.Error("escapable pair forced to overlap")
	}
}

// TestCombsMatchBruteForce compares the SG edge set against brute-force
// enumeration of placements on random small DAGs: a combination c is
// feasible iff there exist cycles for u and v (within a generous window)
// respecting all pairwise longest-path constraints with Cyc(u)−Cyc(v)=c
// and overlapping intervals.
func TestCombsMatchBruteForce(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sb := randomBlock(rng)
		m := machine.TwoCluster1Lat()
		g := Build(sb, m)
		dist := sb.LongestDist()
		n := sb.N()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				lo, hi := CombRange(sb.Instrs[u].Latency, sb.Instrs[v].Latency)
				for c := lo - 1; c <= hi+1; c++ {
					inRange := c >= lo && c <= hi
					dep := true
					if dist[u][v] != ir.NegInf && c > -dist[u][v] {
						dep = false
					}
					if dist[v][u] != ir.NegInf && c < dist[v][u] {
						dep = false
					}
					res := !(c == 0 && sb.Instrs[u].Class == sb.Instrs[v].Class && m.TotalFU(sb.Instrs[u].Class) < 2)
					want := inRange && dep && res
					got := false
					if e, ok := edgeOf(g, u, v); ok {
						for _, ec := range e.Combs {
							if ec == c {
								got = true
							}
						}
					}
					if got != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomBlock(rng *rand.Rand) *ir.Superblock {
	b := ir.NewBuilder("rand")
	n := 3 + rng.Intn(6)
	classes := []ir.Class{ir.Int, ir.Mem, ir.FP}
	ids := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, b.Instr("", classes[rng.Intn(len(classes))], 1+rng.Intn(3)))
	}
	x := b.Exit("x", 1+rng.Intn(3), 1.0)
	for i := 1; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Data(ids[rng.Intn(i)], ids[i])
		}
	}
	for _, u := range ids {
		if rng.Intn(3) == 0 {
			b.Data(u, x)
		}
	}
	return b.MustFinish()
}
