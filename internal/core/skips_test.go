package core

import (
	"slices"
	"testing"

	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// reprobeExitEsts is enhancedExitEsts without its skips: every round
// probes every exit, proven or not, and the probes run to the end
// whatever the ceiling. path lists the vector it starts from and the
// vector after every bump.
func reprobeExitEsts(s *scheduler) (ests []int, path [][]int, err error) {
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
			deadlines := make(map[int]int, len(exits))
			for j, z := range exits {
				deadlines[z] = ests[j] + h
				if i == j {
					deadlines[z] = ests[j]
				}
			}
			err := s.probe(deadlines)
			if err == nil {
				continue
			}
			if !deduce.IsContradiction(err) {
				return nil, nil, err
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
	return ests, path, nil
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
// loop that probes every exit every round, for no more steps; with a
// ceiling the full bound reaches, the probes stop at a vector that
// reaches it and is no later than the full one in any component, the
// first such vector on the reference loop's path; with one it does not
// reach, they give the full vector.
func TestEnhancedBoundMatchesReprobeLoop(t *testing.T) {
	blocks, ms := skipBlocks(t, 60)
	var stopped int
	for i, sb := range blocks {
		m := ms[i]
		name := sb.Name + "@" + m.Key()
		opts := Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 1 << 30}
		ref := newScheduler(sb, m, opts)
		full, path, err := reprobeExitEsts(ref)
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

		bound, crit := s.awctOf(full), sb.CriticalAWCT()
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
			if !c.reached(c.awctOf(got)) {
				t.Errorf("%s, ceiling %.3f: vector %v (AWCT %.3f) does not reach it", name, ceiling, got, c.awctOf(got))
			}
			for j := range got {
				if got[j] > full[j] {
					t.Errorf("%s, ceiling %.3f: vector %v later than the bound %v", name, ceiling, got, full)
					break
				}
			}
			first := slices.IndexFunc(path, func(v []int) bool { return c.reached(c.awctOf(v)) })
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
