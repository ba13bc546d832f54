package core

import (
	"slices"
	"testing"

	"vcsched/internal/cars"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// refProbe is one probe of the reference loop: its deadlines, and
// whether it succeeded.
type refProbe struct {
	deadlines []int
	ok        bool
}

// reprobeExitEsts is enhancedExitEsts without its skips: every round
// probes every exit, proven or not, with no incumbent, and the probes
// run to the end whatever the ceiling. path lists the vector it starts
// from and the vector after every bump, probes every probe it ran.
func reprobeExitEsts(s *scheduler) (ests []int, path [][]int, probes []refProbe, err error) {
	exits := s.exits()
	base := s.sb.EStarts()
	ests = make([]int, len(exits))
	for i, x := range exits {
		ests[i] = base[x]
	}
	last := len(exits) - 1
	lastLat := s.sb.Instrs[exits[last]].Latency
	for n := 0; n < s.sb.N(); n++ {
		if v := base[n] + s.sb.Instrs[n].Latency - lastLat; v > ests[last] {
			ests[last] = v
		}
	}
	path = append(path, slices.Clone(ests))
	h := s.horizon()
	for bumps := 0; bumps < 24; bumps++ {
		moved := false
		for i, x := range exits {
			deadlines := make([]int, len(exits))
			for j := range exits {
				deadlines[j] = ests[j] + h
				if i == j {
					deadlines[j] = ests[j]
				}
			}
			err := s.probe(deadlines)
			probes = append(probes, refProbe{deadlines, err == nil})
			if err == nil {
				continue
			}
			if !deduce.IsContradiction(err) {
				return nil, nil, nil, err
			}
			ests[i]++
			for j, z := range exits {
				if d := s.dist[x][z]; d != ir.NegInf && ests[j] < ests[i]+d {
					ests[j] = ests[i] + d
				}
			}
			path = append(path, slices.Clone(ests))
			moved = true
		}
		if !moved {
			break
		}
	}
	return ests, path, probes, nil
}

// skipBlocks is a spread of workload blocks of at most 24 instructions,
// each with its machine, plus the paper's Figure 1 on the Section 5
// machine.
func skipBlocks(t *testing.T, want int) (blocks []*ir.Superblock, ms []*machine.Config) {
	t.Helper()
	blocks, ms = append(blocks, ir.PaperFigure1()), append(ms, machine.PaperExampleSection5())
	machines := machine.EvaluationConfigs()
	profiles := workload.Benchmarks()
	for i := 0; len(blocks) < want; i++ {
		sb := profiles[i%len(profiles)].GenerateBlock(i/len(profiles), 0)
		if sb.N() <= 24 {
			blocks, ms = append(blocks, sb), append(ms, machines[i%len(machines)])
		}
	}
	return blocks, ms
}

// The bound probes' skips are exact on a spread of blocks: without a
// ceiling, skipping exits whose probe succeeded gives the vector of the
// loop that probes every exit every round, for no more steps, and so
// does also skipping the exits whose probe deadlines CARS's exit cycles
// meet, every such probe of the reference loop having succeeded; with
// a ceiling the full bound reaches, the probes stop at a vector that
// reaches it and is no later than the full one in any component, the
// first such vector on the reference loop's path; with one it does not
// reach, they give the full vector.
func TestEnhancedBoundMatchesReprobeLoop(t *testing.T) {
	blocks, ms := skipBlocks(t, 60)
	var stopped, covered int
	for i, sb := range blocks {
		m := ms[i]
		name := sb.Name + "@" + m.Key()
		opts := Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 1 << 30}
		ref := newScheduler(sb, m, opts)
		full, path, probes, err := reprobeExitEsts(ref)
		if err != nil {
			t.Fatalf("%s: reference loop: %v", name, err)
		}
		s := newScheduler(sb, m, opts)
		got, err := s.enhancedExitEsts()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(got, full) {
			t.Fatalf("%s: bound vector %v, the reference loop's %v", name, got, full)
		}
		if s.stepsSpent() > ref.stepsSpent() {
			t.Errorf("%s: %d steps, the reference loop %d", name, s.stepsSpent(), ref.stepsSpent())
		}

		incumbent, err := cars.Schedule(sb, m, opts.Pins)
		if err != nil {
			t.Fatalf("%s: CARS: %v", name, err)
		}
		iopts := opts
		iopts.Incumbent = incumbent.ExitVector()
		for _, p := range probes {
			if meets(iopts.Incumbent, p.deadlines) {
				covered++
				if !p.ok {
					t.Errorf("%s: the reference probe %v contradicted, yet CARS's exit cycles %v meet it", name, p.deadlines, iopts.Incumbent)
				}
			}
		}
		is := newScheduler(sb, m, iopts)
		got, err = is.enhancedExitEsts()
		if err != nil {
			t.Fatalf("%s with an incumbent: %v", name, err)
		}
		if !slices.Equal(got, full) {
			t.Fatalf("%s: with CARS's exit cycles %v as the incumbent, bound vector %v, the reference loop's %v", name, iopts.Incumbent, got, full)
		}
		if is.stepsSpent() > s.stepsSpent() {
			t.Errorf("%s: %d steps with an incumbent, %d without", name, is.stepsSpent(), s.stepsSpent())
		}

		bound, crit := s.sb.AWCT(full), sb.CriticalAWCT()
		for _, ceiling := range []float64{bound, (bound + crit) / 2, bound + 1} {
			if ceiling <= crit+awctEps {
				continue // Schedule stops before the bound probes
			}
			opts.Ceiling = ceiling
			c := newScheduler(sb, m, opts)
			got, err := c.enhancedExitEsts()
			if err != nil {
				t.Fatalf("%s, ceiling %.3f: %v", name, ceiling, err)
			}
			if !c.reached(bound) {
				if !slices.Equal(got, full) {
					t.Errorf("%s, ceiling %.3f above the bound: vector %v, want %v", name, ceiling, got, full)
				}
				continue
			}
			if !c.reached(c.sb.AWCT(got)) {
				t.Errorf("%s, ceiling %.3f: vector %v (AWCT %.3f) does not reach it", name, ceiling, got, c.sb.AWCT(got))
			}
			for j := range got {
				if got[j] > full[j] {
					t.Errorf("%s, ceiling %.3f: vector %v later than the bound %v", name, ceiling, got, full)
					break
				}
			}
			first := slices.IndexFunc(path, func(v []int) bool { return c.reached(c.sb.AWCT(v)) })
			if !slices.Equal(got, path[first]) {
				t.Errorf("%s, ceiling %.3f: vector %v, want %v, the first on the path %v to reach it", name, ceiling, got, path[first], path)
			}
			if !slices.Equal(got, full) {
				stopped++
			}
		}
	}
	if stopped == 0 {
		t.Errorf("no ceiling stopped the probes early on %d blocks", len(blocks))
	}
	if covered == 0 {
		t.Errorf("CARS's exit cycles met no reference probe on %d blocks", len(blocks))
	}
	t.Logf("CARS's exit cycles met %d reference probes on %d blocks", covered, len(blocks))
}

// Each retry variant that starts from its exit vector's shared setup
// ends as it does from a fresh NewState and Shave: the same schedule
// text or the same error. 099.go.sb0009 on 4c2l refutes every variant
// of its first vectors; 134.perl.sb0001 on 2c1l is scheduled by the
// second variant of its first vector.
func TestRetryVariantsFromSharedSetup(t *testing.T) {
	vectors := 4
	if raceEnabled {
		vectors = 2
	}
	var compared int
	for _, c := range []struct {
		app string
		idx int
		key string
	}{{"099.go", 9, "4c2l"}, {"134.perl", 1, "2c1l"}} {
		p, err := workload.BenchmarkByName(c.app)
		if err != nil {
			t.Fatal(err)
		}
		sb := p.GenerateBlock(c.idx, 0)
		m, err := machine.ByKey(c.key)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 1 << 30}
		s := newScheduler(sb, m, opts)
		ests, err := s.enhancedExitEsts()
		if err != nil {
			t.Fatal(err)
		}
		queue := newVectorQueue(s)
		queue.push(ests)
	vectors:
		for k := 0; k < vectors; k++ {
			vector, _, ok := queue.pop()
			if !ok {
				break
			}
			for v := 0; v < retries; v++ {
				s.variant = v
				got, gotErr := s.attempt(vector)
				if v == 0 && s.base == nil {
					break // the setup failed: no variant runs
				}
				if v > 0 {
					fresh := newScheduler(sb, m, opts)
					fresh.variant = v
					st, err := fresh.setup(vector)
					if err != nil {
						t.Fatalf("%s@%s vector %v: fresh setup: %v", sb.Name, c.key, vector, err)
					}
					want, wantErr := fresh.runStages(st)
					if a, b := outcomeText(t, got, gotErr), outcomeText(t, want, wantErr); a != b {
						t.Fatalf("%s@%s vector %v variant %d: from the shared setup\n%s\nfrom a fresh one\n%s", sb.Name, c.key, vector, v, a, b)
					}
					compared++
				}
				if gotErr == nil {
					break vectors
				}
			}
			for _, succ := range s.bumpSuccessors(vector) {
				queue.push(succ)
			}
		}
	}
	if compared == 0 {
		t.Fatal("no variant ran from a shared setup")
	}
}

// outcomeText is a schedule's text, or the error's.
func outcomeText(t *testing.T, s *sched.Schedule, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	return string(renderSchedule(t, s))
}
