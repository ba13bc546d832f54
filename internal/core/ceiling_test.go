package core

import (
	"bytes"
	"slices"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

func renderSchedule(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// probeSteps is the share of a serial run's steps spent on the bound
// probes, before the first attempt.
func probeSteps(st Stats) int {
	n := st.StepsSpent
	for _, a := range st.Attempts {
		n -= a.Steps
	}
	return n
}

// At a ceiling the dependence bound already reaches, the search builds
// nothing: no SG, no bound probe, no step.
func TestCeilingAtDependenceBoundBuildsNothing(t *testing.T) {
	m := machine.TwoCluster1Lat()
	for _, sb := range []*ir.Superblock{ir.PaperFigure1(), ir.Diamond(), ir.Straight(12), largestWorkloadBlock(t)} {
		crit := sb.CriticalAWCT()
		opts := Options{Pins: workload.PinsFor(sb, m.Clusters, 1), Ceiling: crit}
		s, st, err := Schedule(sb, m, opts)
		if err != ErrNoBetter || s != nil {
			t.Fatalf("%s: ceiling at the dependence bound %.3f: err %v, want ErrNoBetter and no schedule", sb.Name, crit, err)
		}
		if st.StepsSpent != 0 || st.MinAWCT != 0 || st.AWCTTried != 0 || st.AttemptsLaunched != 0 {
			t.Errorf("%s: the search did work below its own bound: %+v", sb.Name, st)
		}
		// Building the SG allocates; an exit before it allocates no
		// more than computing the bound itself.
		bound := testing.AllocsPerRun(5, func() { sb.CriticalAWCT() })
		exit := testing.AllocsPerRun(5, func() { Schedule(sb, m, opts) })
		if exit > bound {
			t.Errorf("%s: the exit at the dependence bound allocates %.0f times, the bound alone %.0f", sb.Name, exit, bound)
		}
	}
}

// At a ceiling the enhanced bound reaches, the search tries no exit
// vector, and the bound probes stop as soon as the part of the bound
// they have proven reaches the ceiling: the same bound, for fewer steps
// than the probes of the search without a ceiling spend. Figure 1 on
// the Section 5 machine has a dependence bound of 8.4 and an enhanced
// bound of 9.1.
func TestCeilingAtEnhancedBoundTriesNoVector(t *testing.T) {
	const wantSteps = 33
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	_, free, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if crit := sb.CriticalAWCT(); free.MinAWCT <= crit {
		t.Fatalf("enhanced bound %.3f does not exceed the dependence bound %.3f", free.MinAWCT, crit)
	}
	s, st, err := Schedule(sb, m, Options{Ceiling: free.MinAWCT})
	if err != ErrNoBetter || s != nil {
		t.Fatalf("err %v, want ErrNoBetter and no schedule", err)
	}
	if st.MinAWCT != free.MinAWCT {
		t.Errorf("MinAWCT %.3f, want %.3f", st.MinAWCT, free.MinAWCT)
	}
	if st.AWCTTried != 0 || st.AttemptsLaunched != 0 || len(st.Attempts) != 0 {
		t.Errorf("vectors tried at the enhanced bound: %+v", st)
	}
	if free := probeSteps(free); st.StepsSpent != wantSteps || st.StepsSpent >= free {
		t.Errorf("%d steps, want %d, fewer than the %d of the bound probes without a ceiling", st.StepsSpent, wantSteps, free)
	}
}

// ceilingBlocks is a spread of workload blocks, each with its machine,
// on which the search succeeds after climbing past its first exit
// vector.
func ceilingBlocks(t *testing.T) (blocks []*ir.Superblock, ms []*machine.Config) {
	t.Helper()
	machines := machine.EvaluationConfigs()
	profiles := workload.Benchmarks()
	want := 8
	if raceEnabled {
		want = 3
	}
	for i := 0; len(blocks) < want && i < 200; i++ {
		p := profiles[i%len(profiles)]
		sb := p.GenerateBlock(i/len(profiles), 0)
		if sb.N() > 24 {
			continue
		}
		m := machines[i%len(machines)]
		_, st, err := Schedule(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 20000})
		if err == nil && st.AWCTTried >= 2 {
			blocks, ms = append(blocks, sb), append(ms, m)
		}
	}
	if len(blocks) < want {
		t.Fatalf("found %d blocks that climb, want %d", len(blocks), want)
	}
	return blocks, ms
}

// Mid-climb, the search stops at the first exit vector at or above the
// ceiling, having done exactly the work of the search without one up to
// that vector; any schedule it returns below the ceiling is the one the
// search without a ceiling returns, byte for byte.
func TestCeilingStopsMidClimb(t *testing.T) {
	blocks, ms := ceilingBlocks(t)
	for i, sb := range blocks {
		m := ms[i]
		opts := Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 20000}
		free, fst, err := Schedule(sb, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		name := sb.Name + "@" + m.Key()

		// A ceiling just above the result changes nothing.
		opts.Ceiling = free.AWCT() + 1e-6
		s, st, err := Schedule(sb, m, opts)
		if err != nil {
			t.Fatalf("%s: ceiling above the result: %v", name, err)
		}
		if !bytes.Equal(renderSchedule(t, free), renderSchedule(t, s)) {
			t.Errorf("%s: schedule below the ceiling differs from the unbounded one", name)
		}
		if st.AWCTTried != fst.AWCTTried || st.StepsSpent != fst.StepsSpent || !slices.Equal(st.Attempts, fst.Attempts) {
			t.Errorf("%s: work differs under a ceiling above the result: %+v vs %+v", name, st, fst)
		}

		// A ceiling at the result stops at its vector: the attempts
		// before it are the unbounded search's, and nothing else runs.
		opts.Ceiling = free.AWCT()
		s, st, err = Schedule(sb, m, opts)
		if err != ErrNoBetter || s != nil {
			t.Fatalf("%s: ceiling at the result %.3f: err %v, want ErrNoBetter", name, free.AWCT(), err)
		}
		if st.AWCTTried >= fst.AWCTTried {
			t.Errorf("%s: tried %d vectors, the unbounded search %d", name, st.AWCTTried, fst.AWCTTried)
		}
		var prefix []Attempt
		for _, a := range fst.Attempts {
			if a.AWCTIndex < st.AWCTTried {
				prefix = append(prefix, a)
			}
		}
		if !slices.Equal(st.Attempts, prefix) {
			t.Errorf("%s: attempts %+v, want the unbounded prefix %+v", name, st.Attempts, prefix)
		}
		if want := probeSteps(fst) + attemptSteps(prefix); st.StepsSpent != want {
			t.Errorf("%s: %d steps, want %d", name, st.StepsSpent, want)
		}
	}
}

func attemptSteps(as []Attempt) int {
	n := 0
	for _, a := range as {
		n += a.Steps
	}
	return n
}
