package deduce

import (
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/sg"
)

// newFig1State builds a state for the Figure 1 superblock on the
// Section 5 machine with the given exit deadlines (B0=id 4, B1=id 6).
func newFig1State(t *testing.T, dB0, dB1 int) (*State, error) {
	t.Helper()
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	return NewState(sb, m, g, []int{dB0, dB1}, Options{PinExits: true})
}

// TestSection5RejectsB1At6 reproduces the minAWCT enhancement: with B1
// pinned at cycle 6, I1, I2 and I3 are all forced into cycle 2, which a
// 2-cluster machine with one int unit per cluster cannot issue.
func TestSection5RejectsB1At6(t *testing.T) {
	_, err := newFig1State(t, 4, 6)
	if err == nil {
		t.Fatal("deadlines B0=4, B1=6 accepted; the paper proves them impossible")
	}
	if !IsContradiction(err) {
		t.Fatalf("want contradiction, got %v", err)
	}
}

// TestSection5RejectsAWCT91 reproduces the AWCT 9.1 rejection: initial
// propagation alone accepts B0=4, B1=7, but shaving derives that I1 and
// I2 must move to cycle 3, become incompatible, and then I4 cannot
// receive both values in time (the paper's P-PLC contradiction).
func TestSection5RejectsAWCT91(t *testing.T) {
	st, err := newFig1State(t, 4, 7)
	if err != nil {
		t.Fatalf("initial propagation rejected AWCT 9.1 prematurely: %v", err)
	}
	// Initial deductions from the paper: I0, I3 and B0 share a VC
	// because no communication fits between them.
	if !st.VC().SameVC(0, 3) || !st.VC().SameVC(3, 4) {
		t.Error("I0, I3, B0 not fused into one VC")
	}
	err = st.Shave(4)
	if err == nil {
		t.Fatal("shaving accepted AWCT 9.1; the paper rejects it")
	}
	if !IsContradiction(err) {
		t.Fatalf("want contradiction, got %v", err)
	}
}

// TestSection5AcceptsAWCT94 checks the AWCT 9.4 state: propagation and
// shaving succeed, I0 is pinned to cycle 0, and the windows match the
// paper's narrative.
func TestSection5AcceptsAWCT94(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatalf("initial propagation rejected AWCT 9.4: %v", err)
	}
	if err := st.Shave(4); err != nil {
		t.Fatalf("shaving rejected AWCT 9.4: %v", err)
	}
	if !st.Pinned(0) || st.Est(0) != 0 {
		t.Errorf("I0 window [%d,%d], want pinned at 0", st.Est(0), st.Lst(0))
	}
	// I1/I2 keep their freedom between cycles 2 and 3.
	for _, i := range []int{1, 2} {
		if st.Est(i) != 2 || st.Lst(i) != 3 {
			t.Errorf("I%d window [%d,%d], want [2,3]", i, st.Est(i), st.Lst(i))
		}
	}
	// Shaving proves I4 cannot run at cycle 4 (it would force I1 and I2
	// both into cycle 2 beside I0) — the deduction the paper derives in
	// stage 1 by discarding combination 1 between I4 and B0.
	if !st.Pinned(5) || st.Est(5) != 5 {
		t.Errorf("I4 window [%d,%d], want pinned at 5", st.Est(5), st.Lst(5))
	}
	if !st.Pinned(4) || st.Est(4) != 5 || !st.Pinned(6) || st.Est(6) != 7 {
		t.Error("exits not pinned to their deadlines")
	}
}

// TestSection5FullManualSchedule drives the 9.4 state to the concrete
// schedule derived in the paper's spirit: I1@2 with I0, I2 on the other
// cluster, and extracts a valid schedule with AWCT 9.4.
func TestSection5FullManualSchedule(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Shave(4); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"I1@2", func() error { return st.FixCycle(1, 2) }},
		{"I2@3", func() error { return st.FixCycle(2, 3) }},
		{"I3@3", func() error { return st.FixCycle(3, 3) }},
		{"I4@5", func() error { return st.FixCycle(5, 5) }},
		{"fuse I3 with I0", func() error { return st.FuseVC(3, 0) }},
		{"split I2 from I0", func() error { return st.SplitVC(2, 0) }},
		{"split I4 from I0", func() error { return st.SplitVC(5, 0) }},
		{"fuse I4 with I2", func() error { return st.FuseVC(5, 2) }},
		{"fuse B1 with I4", func() error { return st.FuseVC(6, 5) }},
	}
	for _, s := range steps {
		if err := s.f(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	// Communications for I0's and I1's values must have materialized.
	if len(st.Comms()) != 2 {
		t.Fatalf("comms = %v, want 2 (I0 and I1 values)", st.Comms())
	}
	// Map remaining VCs to physical clusters via anchors.
	if err := st.FuseVC(0, st.VC().MustAnchor(0)); err != nil {
		t.Fatalf("map cluster 0: %v", err)
	}
	if err := st.FuseVC(2, st.VC().MustAnchor(1)); err != nil {
		t.Fatalf("map cluster 1: %v", err)
	}
	// Pin any copies that still have slack.
	for _, node := range st.UnpinnedCopies(st.NumNodes()) {
		if err := st.FixCycle(node, st.Est(node)); err != nil {
			t.Fatalf("pin copy %d: %v", node, err)
		}
	}
	if !st.AllPinned() || !st.AllMapped() {
		t.Fatal("state not complete after manual decisions")
	}
	s, err := st.ExtractSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("extracted schedule invalid: %v\n%s", err, s.Format())
	}
	if awct := s.AWCT(); awct != 9.4 {
		t.Errorf("AWCT = %g, want 9.4", awct)
	}
}

// TestChooseCombMergesCC checks that choosing a combination creates a
// connected component and that transitive combinations are auto-chosen.
func TestChooseCombMergesCC(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Choose comb 0 between I1 and I3 (same cycle)...
	if err := st.ChooseComb(1, 3, 0); err != nil {
		t.Fatal(err)
	}
	p, ok := st.Pair(1, 3)
	if !ok || p.Status != Chosen || p.Comb != 0 {
		t.Fatalf("pair (1,3) = %+v", p)
	}
	// ...then comb −1 between I2 and I3 (I3 one cycle before I2... comb =
	// Cyc(I2)−Cyc(I3) = −1 means I2 earlier): the pair (I1,I2) offset is
	// implied: Cyc(I1)−Cyc(I2) = Cyc(I3)−Cyc(I2) = +1... auto-chosen.
	if err := st.ChooseComb(2, 3, -1); err != nil {
		t.Fatal(err)
	}
	p12, ok := st.Pair(1, 2)
	if !ok || p12.Status != Chosen {
		t.Fatalf("pair (1,2) not auto-resolved: %+v", p12)
	}
	if p12.Comb != 1 {
		t.Errorf("implied comb = %d, want 1", p12.Comb)
	}
	// Same-cycle same-class pair on single-int clusters: I1 and I3 are
	// now forced into different clusters.
	if !st.VC().Incompatible(1, 3) {
		t.Error("same-cycle int pair not spread across clusters")
	}
}

func TestDiscardAndDrop(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DiscardComb(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	p, _ := st.Pair(1, 2)
	if containsInt(p.Combs, 0) {
		t.Error("comb 0 still present after discard")
	}
	// At deadlines (5,7) the windows of I1 and I2 force an overlap, so
	// dropping the pair must contradict.
	if err := st.DropPair(1, 2); !IsContradiction(err) {
		t.Errorf("drop of overlap-forced pair: %v", err)
	}

	// With looser deadlines (6,8) the pair is separable and the drop
	// succeeds.
	st2, err := newFig1State(t, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.DropPair(1, 2); err != nil {
		t.Fatal(err)
	}
	p, _ = st2.Pair(1, 2)
	if p.Status != Dropped {
		t.Error("pair not dropped")
	}
	// Choosing on a dropped pair contradicts.
	if err := st2.ChooseComb(1, 2, 1); !IsContradiction(err) {
		t.Errorf("choose on dropped pair: %v", err)
	}
}

func TestChooseCombOrientation(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	// ChooseComb(b, a, c) must mean Cyc(b)−Cyc(a) = c, i.e. the pair
	// (a,b) with comb −c.
	if err := st.ChooseComb(3, 1, 1); err != nil { // Cyc(I3)−Cyc(I1) = 1
		t.Fatal(err)
	}
	p, _ := st.Pair(1, 3)
	if p.Status != Chosen || p.Comb != -1 {
		t.Fatalf("pair (1,3) = %+v, want chosen comb −1", p)
	}
	d, same := st.cc.Delta(3, 1)
	if !same || d != 1 {
		t.Errorf("cc delta(3,1) = %d,%v", d, same)
	}
}

func TestFixCycleOutsideWindow(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FixCycle(1, 9); !IsContradiction(err) {
		t.Errorf("fix outside window: %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	b := NewBudget(1)
	_, err := NewState(sb, m, g, []int{5, 7}, Options{Budget: b})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if !b.Exhausted() {
		t.Error("budget not exhausted")
	}
}

func TestCloneIndependence(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	if err := cp.FixCycle(1, 2); err != nil {
		t.Fatal(err)
	}
	if st.Pinned(1) {
		t.Error("clone shares bounds")
	}
	if err := cp.SplitVC(1, 2); err != nil {
		t.Fatal(err)
	}
	if st.VC().Incompatible(1, 2) {
		t.Error("clone shares VCG")
	}
	if err := cp.ChooseComb(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	if p, _ := st.Pair(2, 3); p.Status != Open {
		t.Error("clone shares pair table")
	}
}

func TestMetricsBetter(t *testing.T) {
	a := Metrics{Comms: 1, SumSlack: 10, OutEdges: 3, VCs: 2}
	b := Metrics{Comms: 2, SumSlack: 0, OutEdges: 0, VCs: 5}
	if !a.Better(b) {
		t.Error("fewer comms must win")
	}
	c := Metrics{Comms: 1, SumSlack: 5, OutEdges: 3, VCs: 2}
	if !c.Better(a) {
		t.Error("lower slack must win at equal comms")
	}
	d := Metrics{Comms: 1, SumSlack: 5, OutEdges: 1, VCs: 2}
	if !d.Better(c) || c.Better(d) {
		t.Error("lower outedge ratio must win at equal comms and slack")
	}
}

// TestLiveInPinning: a consumer with no room for a communication from
// its live-in's home cluster must fuse with that cluster's anchor.
func TestLiveInPinning(t *testing.T) {
	b := ir.NewBuilder("livein")
	c := b.Instr("c", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(c, x)
	b.LiveIn("v", c)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	g := sg.Build(sb, m)
	// Deadline 1 for the exit ⇒ c pinned at 0 ⇒ no room for a live-in
	// copy (arrival ≥ 1) ⇒ c fuses with the live-in's anchor.
	st, err := NewState(sb, m, g, []int{1}, Options{
		Pins: sched.Pins{LiveIn: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pc, ok := st.VC().PinnedPC(c); !ok || pc != 1 {
		t.Errorf("consumer pinned to %d,%v, want cluster 1", pc, ok)
	}
}

// TestLiveOutComm: a live-out produced away from its home cluster yields
// a mandatory communication.
func TestLiveOutComm(t *testing.T) {
	b := ir.NewBuilder("liveout")
	p := b.Instr("p", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(p, x)
	b.LiveOut(p)
	sb := b.MustFinish()
	m := machine.TwoCluster1Lat()
	g := sg.Build(sb, m)
	st, err := NewState(sb, m, g, []int{3}, Options{
		Pins: sched.Pins{LiveOut: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Force the producer away from its live-out cluster.
	if err := st.SplitVC(p, st.VC().MustAnchor(1)); err != nil {
		t.Fatal(err)
	}
	if len(st.Comms()) != 1 {
		t.Fatalf("comms = %v, want the live-out copy", st.Comms())
	}
	// The copy must complete by the region end (cycle 4): lst ≤ 3.
	node := st.Comms()[0][0]
	if st.Lst(node) > 3 {
		t.Errorf("live-out copy lst = %d, want ≤ 3", st.Lst(node))
	}
}

func TestOutEdgesAndMetrics(t *testing.T) {
	st, err := newFig1State(t, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := st.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Comms != 0 {
		t.Errorf("initial comms = %d", m.Comms)
	}
	// At deadlines (5,7) the slack is just wide enough that no fusion is
	// forced during initialization: every instruction keeps its own VC.
	if m.VCs != 7 {
		t.Errorf("VCs = %d, want 7", m.VCs)
	}
	// All seven data edges cross distinct compatible VCs.
	edges, err := st.OutEdges()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range edges {
		total += n
	}
	if total != 7 {
		t.Errorf("outedges = %d (%v), want 7", total, edges)
	}
}
