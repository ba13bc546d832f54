package deduce

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
)

// mk builds a state for an arbitrary block/machine with the given exit
// deadlines.
func mk(t *testing.T, sb *ir.Superblock, m *machine.Config, deadlines []int, pins sched.Pins) *State {
	t.Helper()
	st, err := NewState(sb, m, sg.Build(sb, m), deadlines, Options{Pins: pins, PinExits: true})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	return st
}

// TestWindowPackingContradiction: three 1-cycle int instructions
// squeezed into a 1-cycle window on a 2-int machine contradict via the
// Hall bound.
func TestWindowPackingContradiction(t *testing.T) {
	b := ir.NewBuilder("pack")
	b.Instr("a", ir.Int, 1)
	b.Instr("b", ir.Int, 1)
	b.Instr("c", ir.Int, 1)
	b.Exit("x", 1, 1.0)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat() // 2 int units machine-wide
	// Deadline 1 for the exit ⇒ every int must issue at cycle 0 (they
	// must complete by end = 2, each latency 1, exit at 1... window
	// [0,1] minus completion-by-end leaves [0,1]): 3 ints in 2 cycles is
	// fine; deadline 0 forces end = 1 ⇒ all at cycle 0: 3 > 2.
	_, err := NewState(sb, m, sg.Build(sb, m), []int{0}, Options{PinExits: true})
	if err == nil {
		t.Fatal("overpacked window accepted")
	}
	if !IsContradiction(err) {
		t.Fatalf("want contradiction, got %v", err)
	}
}

// TestWindowPackingTightens: at exact saturation, an instruction merely
// overlapping the saturated window is pushed out of it.
func TestWindowPackingTightens(t *testing.T) {
	b := ir.NewBuilder("tighten")
	a := b.Instr("a", ir.Int, 1)
	c := b.Instr("b", ir.Int, 1)
	d := b.Instr("c", ir.Int, 1)
	e := b.Instr("d", ir.Int, 1)
	f := b.Instr("e", ir.Int, 1) // the outsider
	x := b.Exit("x", 1, 1.0)
	// a,b,c,d confined to cycles {0,1} via the exit-dependence chain; e free.
	for _, u := range []int{a, c, d, e} {
		b.Dep(ir.Data, u, x, 2) // completes-by + dep: u ≤ deadline − 2
	}
	b.Data(f, x)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	st := mk(t, sb, m, []int{3}, sched.Pins{})
	// a..d all in [0,1]: 4 instructions saturate 2 units × 2 cycles, so
	// the fifth int must start at 2.
	if got := st.Est(f); got != 2 {
		t.Errorf("outsider est = %d, want 2 (windows: a=[%d,%d] f=[%d,%d])",
			got, st.Est(a), st.Lst(a), st.Est(f), st.Lst(f))
	}
}

// TestCPLCMaterializesComm: two consumers of one value forced into the
// same cycle (hence incompatible clusters) make the value's broadcast
// mandatory even though neither consumer is individually cross-cluster.
func TestCPLCMaterializesComm(t *testing.T) {
	b := ir.NewBuilder("cplc")
	p := b.Instr("p", ir.Int, 1)
	f1 := b.Instr("f1", ir.Mem, 1)
	f2 := b.Instr("f2", ir.Mem, 1)
	c1 := b.Instr("c1", ir.Int, 1)
	c2 := b.Instr("c2", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(p, c1).Data(p, c2)
	// Long edges pin c1/c2 to cycle 2 without extra int pressure.
	b.Dep(ir.Data, f1, c1, 2)
	b.Dep(ir.Data, f2, c2, 2)
	b.Dep(ir.Data, c1, x, 2)
	b.Dep(ir.Data, c2, x, 2)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	// Deadline 4: c1, c2 pinned to cycle 2 — same cycle, one int unit
	// per cluster ⇒ incompatible ⇒ one of them reads p over the bus,
	// so p's broadcast (ready at 1, arriving at 2) is mandatory.
	st := mk(t, sb, m, []int{4}, sched.Pins{})
	if !st.VC().Incompatible(c1, c2) {
		t.Fatalf("same-cycle consumers not incompatible (c1=[%d,%d])", st.Est(c1), st.Lst(c1))
	}
	if len(st.Comms()) != 1 || st.Comms()[0][1] != p {
		t.Fatalf("comms = %v, want exactly the broadcast of p", st.Comms())
	}
}

// TestD4FusesNoRoom: a producer/consumer pair with no room for a bus
// copy must fuse.
func TestD4FusesNoRoom(t *testing.T) {
	b := ir.NewBuilder("fuse")
	p := b.Instr("p", ir.Int, 2)
	c := b.Instr("c", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(p, c).Data(c, x)
	sb := b.MustFinish()
	st := mk(t, sb, machine.TwoCluster1Lat(), []int{3}, sched.Pins{})
	// c ∈ [2,2]: a copy of p (ready at 2) would arrive at 3 > 2 ⇒ fuse.
	if !st.VC().SameVC(p, c) {
		t.Errorf("no-room flow not fused (c=[%d,%d])", st.Est(c), st.Lst(c))
	}
}

// TestShaveBudgetPropagates: exhausting the budget inside a shave probe
// must surface ErrBudget, not a contradiction.
func TestShaveBudgetPropagates(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	budget := NewBudget(12) // survives NewState, dies inside Shave
	st, err := NewState(sb, m, g, []int{5, 7}, Options{Budget: budget, PinExits: true})
	if err != nil {
		if err == ErrBudget {
			t.Skip("budget too small even for init on this build")
		}
		t.Fatal(err)
	}
	if err := st.Shave(8); err != ErrBudget {
		t.Fatalf("Shave err = %v, want ErrBudget", err)
	}
}

// TestPendingPLCCoverage: a PLC is no longer pending once a comm on one
// of its alternatives materializes.
func TestPendingPLCCoverage(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	st := mk(t, sb, m, []int{5, 7}, sched.Pins{})
	if err := st.Shave(2); err != nil {
		t.Fatal(err)
	}
	// Force I1 and I2 incompatible: I4 consumes both → a P-PLC appears.
	if err := st.SplitVC(1, 2); err != nil {
		t.Fatal(err)
	}
	if st.PendingPLCs() == 0 {
		t.Fatal("no pending PLC after splitting I4's producers")
	}
	// Making I2 definitively cross from I4 materializes comm(I2), which
	// covers the PLC.
	if err := st.SplitVC(2, 5); err != nil {
		t.Fatal(err)
	}
	if st.PendingPLCs() != 0 {
		t.Errorf("PLC still pending after a covering comm: %d", st.PendingPLCs())
	}
}

// TestBoundsMonotoneUnderDecisions: random decision sequences never
// widen any window and never produce est > lst without a contradiction.
func TestBoundsMonotoneUnderDecisions(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, err := NewState(sb, m, g, []int{5 + rng.Intn(2), 7 + rng.Intn(2)}, Options{PinExits: true})
		if err != nil {
			return true // harsher deadline may contradict; fine
		}
		prevEst := make([]int, st.NumNodes())
		prevLst := make([]int, st.NumNodes())
		snap := func() {
			prevEst = prevEst[:0]
			prevLst = prevLst[:0]
			for n := 0; n < st.NumNodes(); n++ {
				prevEst = append(prevEst, st.Est(n))
				prevLst = append(prevLst, st.Lst(n))
			}
		}
		snap()
		for step := 0; step < 12; step++ {
			var err error
			switch rng.Intn(4) {
			case 0:
				n := rng.Intn(st.NOrig())
				if !st.Pinned(n) {
					err = st.FixCycle(n, st.Est(n)+rng.Intn(st.Slack(n)+1))
				}
			case 1:
				a, b := rng.Intn(st.NOrig()), rng.Intn(st.NOrig())
				if a != b {
					err = st.FuseVC(a, b)
				}
			case 2:
				a, b := rng.Intn(st.NOrig()), rng.Intn(st.NOrig())
				if a != b {
					err = st.SplitVC(a, b)
				}
			case 3:
				pairs := st.Pairs()
				if len(pairs) > 0 {
					p := pairs[rng.Intn(len(pairs))]
					if p.Status == Open && len(p.Combs) > 0 {
						err = st.ChooseComb(p.U, p.V, p.Combs[rng.Intn(len(p.Combs))])
					}
				}
			}
			if err != nil {
				return IsContradiction(err) // only contradictions allowed
			}
			// Windows must only shrink (monotone deduction), and only
			// over the nodes that already existed.
			for n := 0; n < len(prevEst); n++ {
				if st.Est(n) < prevEst[n] || st.Lst(n) > prevLst[n] {
					return false
				}
				if st.Est(n) > st.Lst(n) {
					return false
				}
			}
			snap()
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardCombOrientation(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	st := mk(t, sb, m, []int{6, 8}, sched.Pins{})
	// Discard via the reversed orientation: DiscardComb(3,1,c) removes
	// Cyc(I3)−Cyc(I1) = c, i.e. comb −c of pair (1,3).
	if err := st.DiscardComb(3, 1, 1); err != nil {
		t.Fatal(err)
	}
	p, _ := st.Pair(1, 3)
	if containsInt(p.Combs, -1) {
		t.Errorf("comb −1 still present: %v", p.Combs)
	}
	if err := st.DiscardComb(99, 1, 0); !IsContradiction(err) {
		t.Errorf("discard on missing pair: %v", err)
	}
	if err := st.ChooseComb(99, 1, 0); !IsContradiction(err) {
		t.Errorf("choose on missing pair: %v", err)
	}
}

// TestExtractRequiresCompletion: extracting from an incomplete state
// errors clearly.
func TestExtractRequiresCompletion(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	st := mk(t, sb, m, []int{5, 7}, sched.Pins{})
	_, err := st.ExtractSchedule()
	if err == nil || !strings.Contains(err.Error(), "unpinned") {
		t.Fatalf("extract on incomplete state: %v", err)
	}
}

// TestNoBusMachine: on a multi-cluster machine without buses the only
// legal flows are intra-cluster; incompatible flows contradict.
func TestNoBusFusesEverything(t *testing.T) {
	b := ir.NewBuilder("nobus")
	p := b.Instr("p", ir.Int, 1)
	c := b.Instr("c", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(p, c).Data(c, x)
	sb := b.MustFinish()
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Branch] = 1, 1
	m := &machine.Config{Name: "2c-nobus", Clusters: 2, FU: fu, Buses: 0, BusLatency: 1}
	st, err := NewState(sb, m, sg.Build(sb, m), []int{4}, Options{PinExits: true})
	if err != nil {
		t.Fatalf("NewState: %v", err)
	}
	if !st.VC().SameVC(p, c) {
		t.Error("bus-less flow not fused")
	}
}

// TestVCUnitCapOnFatCluster: a virtual cluster lands on one cluster, so
// it cannot issue more same-class instructions in one cycle than the
// fattest cluster has units, even when the machine as a whole can.
func TestVCUnitCapOnFatCluster(t *testing.T) {
	b := ir.NewBuilder("fat")
	a := b.Instr("a", ir.Int, 1)
	c := b.Instr("b", ir.Int, 1)
	d := b.Instr("c", ir.Int, 1)
	b.Exit("x", 1, 1.0)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	fu := m.FU
	fu[ir.Int] = 2
	m.SetClusterFU(0, fu) // 3 int units in all, at most 2 on a cluster
	// The exit at cycle 0 ends the region at 1: all three issue at 0.
	st := mk(t, sb, m, []int{0}, sched.Pins{})
	if err := st.FuseVC(a, c); err != nil {
		t.Fatalf("two co-issued ints on one VC refused: %v", err)
	}
	err := st.FuseVC(c, d)
	if err == nil || !IsContradiction(err) {
		t.Fatalf("three co-issued ints on one VC with at most 2 int units per cluster: err %v, want a contradiction", err)
	}
}

// TestMergeInPruneStampsJoinedPairs: a D1 choice inside rulePrunePairs
// merges two components mid-sweep, and the next pass's coherence
// resolves the pair the merge put inside one component. Nothing else
// touches that pair: its windows leave all three of its combinations
// feasible, so only the merge's stamp brings coherence to it.
func TestMergeInPruneStampsJoinedPairs(t *testing.T) {
	b := ir.NewBuilder("merge")
	a := b.Instr("a", ir.Int, 1)
	u := b.Instr("u", ir.FP, 3)
	v := b.Instr("v", ir.Mem, 3)
	x := b.Exit("x", 1, 1.0)
	b.Dep(ir.Data, a, x, 1)
	b.Dep(ir.Data, u, x, 3)
	b.Dep(ir.Data, v, x, 3)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	// Exit at 4: a in [0,3], u and v in [0,1], so u and v must overlap.
	st := mk(t, sb, m, []int{4}, sched.Pins{})
	// Cyc(a) = Cyc(u) + 1 joins a and u and puts a in [1,2].
	if err := st.ChooseComb(a, u, 1); err != nil {
		t.Fatal(err)
	}
	av := st.pairIndex(a, v)
	uv := st.pairIndex(u, v)
	if p := st.PairAt(av); p.Status != Open || len(p.Combs) != 3 {
		t.Fatalf("pair (a,v) = %+v, want Open with three combinations", p)
	}
	// Leave (u,v) one combination its windows allow, 0; it must
	// overlap, so D1 chooses it inside rulePrunePairs and the merge
	// joins a to v at offset 1.
	if err := st.DiscardComb(u, v, -1); err != nil {
		t.Fatal(err)
	}
	if err := st.DiscardComb(u, v, 1); err != nil {
		t.Fatal(err)
	}
	if p := st.PairAt(uv); p.Status != Chosen || p.Comb != 0 {
		t.Fatalf("pair (u,v) = %+v, want Chosen 0 by D1", p)
	}
	if d, same := st.cc.Delta(a, v); !same || d != 1 {
		t.Fatalf("a and v: delta %d, same component %v; want 1, true", d, same)
	}
	if p := st.PairAt(av); p.Status != Chosen || p.Comb != 1 {
		t.Fatalf("pair (a,v) = %+v after the merge, want Chosen 1 by coherence", p)
	}
}
