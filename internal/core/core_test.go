package core

import (
	"math"
	"testing"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
)

// TestPaperSection5 runs the full algorithm on the Figure 1 superblock
// and the Section 5 machine. The paper derives: minAWCT 9.1 (after the
// enhancement raises B1's earliest start to 7), AWCT 9.1 rejected, and a
// valid schedule found at AWCT 9.4.
func TestPaperSection5(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	s, stats, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatalf("Schedule: %v (stats %+v)", err, stats)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v\n%s", err, s.Format())
	}
	if math.Abs(stats.MinAWCT-9.1) > 1e-9 {
		t.Errorf("minAWCT = %g, want 9.1 (the enhanced bound)", stats.MinAWCT)
	}
	if math.Abs(s.AWCT()-9.4) > 1e-9 {
		t.Errorf("AWCT = %g, want 9.4\n%s", s.AWCT(), s.Format())
	}
	if stats.AWCTTried != 2 {
		t.Errorf("AWCT values tried = %d, want 2 (9.1 then 9.4)", stats.AWCTTried)
	}
}

// TestPortfolioPaperExample: Options.Parallelism no longer selects a
// portfolio driver, so setting it must leave the Section 5 result and
// its per-attempt accounting exactly as the serial search has them.
func TestPortfolioPaperExample(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	serial, _, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		s, stats, err := Schedule(sb, m, Options{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parallelism %d: invalid schedule: %v", par, err)
		}
		if s.AWCT() != 9.4 {
			t.Errorf("parallelism %d: AWCT = %g, want 9.4", par, s.AWCT())
		}
		if stats.AWCTTried != 2 {
			t.Errorf("parallelism %d: AWCTTried = %d, want 2", par, stats.AWCTTried)
		}
		if s.Format() != serial.Format() {
			t.Errorf("parallelism %d: schedule differs from the serial one:\n%s\nvs\n%s",
				par, s.Format(), serial.Format())
		}
		checkAttemptRecords(t, stats, AttemptSucceeded)
	}
}

// TestScheduleSimpleBlocks checks validity and dependence-bound
// optimality on blocks with known answers.
func TestScheduleSimpleBlocks(t *testing.T) {
	cases := []struct {
		name string
		sb   *ir.Superblock
		m    *machine.Config
		want float64 // expected AWCT (0 = just check critical bound)
	}{
		{"straight 2clust", ir.Straight(6), machine.TwoCluster1Lat(), 8}, // chain of 6 + exit: exit at 6, +1 latency ⇒ 7? estart exit = 6, AWCT = 6+1... see below
		{"diamond 2clust", ir.Diamond(), machine.TwoCluster1Lat(), 0},
		{"wide6 4clust", ir.Wide(6), machine.FourCluster1Lat(), 0},
		{"fig1 4clust", ir.PaperFigure1(), machine.FourCluster1Lat(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, _, err := Schedule(tc.sb, tc.m, Options{})
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid: %v\n%s", err, s.Format())
			}
			if s.AWCT() < tc.sb.CriticalAWCT()-1e-9 {
				t.Errorf("AWCT %g below critical bound %g", s.AWCT(), tc.sb.CriticalAWCT())
			}
		})
	}
}

// TestStraightChainOptimal: a pure chain has no freedom; the scheduler
// must hit the critical path exactly.
func TestStraightChainOptimal(t *testing.T) {
	sb := ir.Straight(6)
	s, _, err := Schedule(sb, machine.TwoCluster1Lat(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.AWCT() != sb.CriticalAWCT() {
		t.Errorf("AWCT = %g, want critical %g", s.AWCT(), sb.CriticalAWCT())
	}
	if s.NumComms() != 0 {
		t.Errorf("chain needed %d comms", s.NumComms())
	}
}

// TestWideSpreads: 6 independent 1-cycle int instructions on 4 clusters
// (4 int units): the exit waits for the last producer. Critical AWCT is
// 1+1 = 2 but resources force 2 issue cycles ⇒ exit at 2, AWCT 3.
func TestWideSpreads(t *testing.T) {
	sb := ir.Wide(6)
	s, _, err := Schedule(sb, machine.FourCluster1Lat(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, s.Format())
	}
	// 6 ints over 4 units: 2 cycles of issue; all feed the exit, and any
	// value produced off the exit's cluster needs a bus slot — with one
	// bus the best schedules land between AWCT 3 and 5.
	if s.AWCT() < 3 || s.AWCT() > 6 {
		t.Errorf("AWCT = %g, want within [3,6]\n%s", s.AWCT(), s.Format())
	}
}

// TestLiveInsRespected: live-ins pinned to different clusters pull their
// consumers apart or force communications; the result must validate.
func TestLiveInsRespected(t *testing.T) {
	b := ir.NewBuilder("livein-pull")
	c0 := b.Instr("c0", ir.Int, 1)
	c1 := b.Instr("c1", ir.Int, 1)
	j := b.Instr("j", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(c0, j).Data(c1, j).Data(j, x)
	b.LiveIn("u", c0)
	b.LiveIn("v", c1)
	b.LiveOut(j)
	sb := b.MustFinish()
	pins := sched.Pins{LiveIn: []int{0, 1}, LiveOut: []int{0}}
	s, _, err := Schedule(sb, machine.TwoCluster1Lat(), Options{Pins: pins})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, s.Format())
	}
}

// TestTimeout: an absurdly small timeout must abort with ErrTimeout.
func TestTimeout(t *testing.T) {
	sb := ir.PaperFigure1()
	_, _, err := Schedule(sb, machine.PaperExampleSection5(), Options{Timeout: time.Nanosecond})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

// TestBudgetFallback: a tiny step budget must abort with ErrExhausted,
// and the stats count the steps the bound probes spent before it ran
// out.
func TestBudgetFallback(t *testing.T) {
	sb := ir.PaperFigure1()
	_, st, err := Schedule(sb, machine.PaperExampleSection5(), Options{MaxSteps: 3})
	if err == nil || err == ErrTimeout {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if st.StepsSpent < 3 {
		t.Errorf("StepsSpent = %d after exhausting a 3-step budget", st.StepsSpent)
	}
}

// TestMissingUnitRefusedBeforeSearch: a block using a class the machine
// has no unit of (a mem instruction on the section-5 machine) is
// refused with the machine's error before any SG is built, as CARS
// refuses it, instead of refuting every exit vector.
func TestMissingUnitRefusedBeforeSearch(t *testing.T) {
	b := ir.NewBuilder("mem-on-sec5")
	ld := b.Instr("ld", ir.Mem, 2)
	add := b.Instr("add", ir.Int, 1)
	x := b.Exit("br", 1, 1.0)
	b.Data(ld, add).Ctrl(add, x)
	sb := b.MustFinish()
	m := machine.PaperExampleSection5()

	_, st, err := Schedule(sb, m, Options{MaxSteps: 20000})
	want := m.CheckUnits(sb)
	if want == nil || err == nil || err.Error() != "core: "+want.Error() {
		t.Fatalf("err = %v, want core: %v", err, want)
	}
	if st.StepsSpent != 0 || st.AWCTTried != 0 {
		t.Fatalf("stats %+v, want no steps and no vector tried", st)
	}
}

// TestSingleCluster: on a 1-cluster machine there are no communications
// and no mapping choices; scheduling must still work.
func TestSingleCluster(t *testing.T) {
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Mem], fu[ir.FP], fu[ir.Branch] = 2, 1, 1, 1
	m := &machine.Config{Name: "uni", Clusters: 1, FU: fu}
	s, _, err := Schedule(ir.Diamond(), m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.NumComms() != 0 {
		t.Error("single cluster produced communications")
	}
}

// TestHeterogeneousMachine: scheduling on a machine with per-cluster FU
// overrides (the paper's §2.1 extension) stays valid; instructions of a
// class only one cluster provides must land there.
func TestHeterogeneousMachine(t *testing.T) {
	m := machine.TwoCluster1Lat()
	var thin [ir.NumClasses]int
	thin[ir.Int], thin[ir.Branch] = 1, 1 // cluster 1 has no mem/fp units
	m.SetClusterFU(1, thin)

	b := ir.NewBuilder("hetero")
	l1 := b.Instr("l1", ir.Mem, 2)
	l2 := b.Instr("l2", ir.Mem, 2)
	a1 := b.Instr("a1", ir.Int, 1)
	a2 := b.Instr("a2", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(l1, a1).Data(l2, a2).Data(a1, x).Data(a2, x)
	sb := b.MustFinish()

	s, _, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid: %v\n%s", err, s.Format())
	}
	if s.Place[l1].Cluster != 0 || s.Place[l2].Cluster != 0 {
		t.Errorf("mem ops escaped the only mem-capable cluster:\n%s", s.Format())
	}
}

func TestSpreadCycles(t *testing.T) {
	if got := spreadCycles(nil, 3, 3, 6); len(got) != 1 || got[0] != 3 {
		t.Errorf("pinned window: %v", got)
	}
	if got := spreadCycles(nil, 0, 4, 6); len(got) != 5 {
		t.Errorf("small window: %v", got)
	}
	got := spreadCycles(nil, 0, 100, 6)
	if len(got) != 6 || got[0] != 0 || got[len(got)-1] != 100 {
		t.Errorf("large window: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("not increasing: %v", got)
		}
	}
}

// TestDeterminism: scheduling the same block twice yields the same AWCT
// and communication count.
func TestDeterminism(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	s1, _, err1 := Schedule(sb, m, Options{})
	s2, _, err2 := Schedule(sb, m, Options{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.AWCT() != s2.AWCT() || s1.NumComms() != s2.NumComms() {
		t.Errorf("nondeterministic: %g/%d vs %g/%d", s1.AWCT(), s1.NumComms(), s2.AWCT(), s2.NumComms())
	}
	for i := range s1.Place {
		if s1.Place[i] != s2.Place[i] {
			t.Errorf("instruction %d placed differently: %+v vs %+v", i, s1.Place[i], s2.Place[i])
		}
	}
}

// TestNoOverlapVariantRescuesBlock: on this block the first two
// decision orders commit in stage 1 to combinations that the DP
// refutes only in stage 2, at every exit cycle, so only the third
// variant, which prefers no-overlap decisions, schedules it (at AWCT
// 8, the optimum). It is one of the random tiny blocks that
// internal/oracle's TestSchedulersNeverBeatOracle draws.
func TestNoOverlapVariantRescuesBlock(t *testing.T) {
	b := ir.NewBuilder("tiny")
	m0 := b.Instr("mem0", ir.Mem, 2)
	m1 := b.Instr("mem1", ir.Mem, 2)
	i2 := b.Instr("int2", ir.Int, 1)
	i3 := b.Instr("int3", ir.Int, 1)
	i4 := b.Instr("int4", ir.Int, 1)
	x := b.Exit("x", 1, 1.0)
	b.Data(m0, m1).Data(m1, i2).Data(i2, i3).Data(i2, i4).Data(m0, x).Data(i3, x).Data(i4, x)
	sb := b.MustFinish()
	s, st, err := Schedule(sb, machine.TwoCluster1Lat(), Options{})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if s.AWCT() != 8 {
		t.Errorf("AWCT = %g, want 8", s.AWCT())
	}
	if won := st.Attempts[len(st.Attempts)-1]; won.Variant != retries-1 {
		t.Errorf("won by %+v, want the no-overlap variant %d", won, retries-1)
	}
}
