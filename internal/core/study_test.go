package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// probeEverything is study without deferred fallbacks: every candidate,
// regular or fallback, is probed in order, each contradicting one
// records what it refuted, and the best regular survivor is applied,
// else the best fallback.
func probeEverything(st *deduce.State, cands []candidate) error {
	best, bestFB := -1, -1
	var bestM, bestFBM deduce.Metrics
	for i, c := range cands {
		var m deduce.Metrics
		var mErr error
		err := st.Probe(func(x *deduce.State) error {
			if err := c.apply(x); err != nil {
				return err
			}
			m, mErr = x.Metrics()
			return nil
		})
		if err != nil {
			if !deduce.IsContradiction(err) {
				return err
			}
			if err := c.refuted(st); err != nil {
				return err
			}
			continue
		}
		if mErr != nil {
			return mErr
		}
		if c.fallback {
			if bestFB < 0 || m.Better(bestFBM) {
				bestFB, bestFBM = i, m
			}
		} else if best < 0 || m.Better(bestM) {
			best, bestM = i, m
		}
	}
	if best < 0 {
		best = bestFB
	}
	if best < 0 {
		return errNoCandidates
	}
	return cands[best].apply(st)
}

// liveText is a state's DumpText without its budget line.
func liveText(st *deduce.State) string {
	text := st.DumpText()
	return text[:strings.LastIndex(text, "budget used")]
}

// errText is an error's text, or "nil".
func errText(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// studyBlocks is skipBlocks plus the compile set's blocks 0 to n-1 of
// every paper profile with at most 32 instructions, on the three
// evaluation machines, as .sb text.
func studyBlocks(t *testing.T, generated, n int) (blocks []*ir.Superblock, ms []*machine.Config) {
	t.Helper()
	blocks, ms = skipBlocks(t, generated)
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < n; idx++ {
			text := p.GenerateBlock(idx, 0).String()
			for _, m := range machine.EvaluationConfigs() {
				sb, err := ir.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				if sb.N() <= 32 {
					blocks, ms = append(blocks, sb), append(ms, m)
				}
			}
		}
	}
	return blocks, ms
}

// Deferring the fallbacks changes no decision of the first two
// variants. Their fallbacks are drops, which change nothing when
// refuted, and when every combination contradicts, each studied pair
// has been dropped by its discards, so every drop leaves the same
// state. On generated blocks and the compile set's, every stage-1 study
// of variants 0 and 1 over the first exit vectors leaves the live state
// (DumpText without the budget line) and the error that the
// probe-everything loop leaves on a clone. A study in which a regular
// candidate survives spends exactly the steps of the same study with
// its fallbacks left out.
func TestStudyMatchesProbeEverything(t *testing.T) {
	generated, compile, vectors := 60, 10, 3
	if raceEnabled {
		generated, compile, vectors = 10, 1, 2
	}
	blocks, ms := studyBlocks(t, generated, compile)
	var studies, fellBack, skipped int
	for i, sb := range blocks {
		m := ms[i]
		s := newScheduler(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1), MaxSteps: 1 << 30})
		ests, err := s.enhancedExitEsts()
		if err != nil {
			t.Fatalf("%s@%s: %v", sb.Name, m.Key(), err)
		}
		queue := newVectorQueue(s)
		queue.push(ests)
		for k := 0; k < vectors; k++ {
			vector, _, ok := queue.pop()
			if !ok {
				break
			}
			for v := 0; v < 2; v++ {
				s.variant = v
				st, err := s.setup(vector)
				if err != nil {
					break // the setup contradicts: no variant studies
				}
				for n := 0; ; n++ {
					cands := s.pairCandidates(st)
					if len(cands) == 0 {
						break
					}
					where := fmt.Sprintf("%s@%s vector %v variant %d study %d", sb.Name, m.Key(), vector, v, n)
					ref := st.Clone()
					wantErr := probeEverything(ref, cands)

					regular := slices.DeleteFunc(slices.Clone(cands), func(c candidate) bool { return c.fallback })
					st.Save()
					st.Restore()
					before := s.stepsSpent()
					regErr := study(st, regular)
					regSteps := s.stepsSpent() - before
					st.Restore()
					before = s.stepsSpent()
					err := study(st, cands)
					steps := s.stepsSpent() - before

					if errText(err) != errText(wantErr) {
						t.Fatalf("%s: error %q, the probe-everything loop %q", where, errText(err), errText(wantErr))
					}
					if got, want := liveText(st), liveText(ref); got != want {
						t.Fatalf("%s: live state differs from the probe-everything loop's\n%s\nwant\n%s", where, got, want)
					}
					studies++
					if regErr != nil {
						fellBack++
					} else if len(regular) < len(cands) {
						if steps != regSteps {
							t.Fatalf("%s: %d steps, %d without the fallbacks", where, steps, regSteps)
						}
						skipped++
					}
					if err != nil {
						break
					}
				}
			}
			for _, succ := range s.bumpSuccessors(vector) {
				queue.push(succ)
			}
		}
	}
	if fellBack == 0 || skipped == 0 {
		t.Fatalf("%d studies: %d fell back, %d skipped their fallbacks; want both", studies, fellBack, skipped)
	}
	t.Logf("%d studies on %d blocks: %d fell back, %d skipped their fallbacks", studies, len(blocks), fellBack, skipped)
}
