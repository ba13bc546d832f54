package core

import (
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

func TestRotateAndReverse(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	rotate(xs, 1)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate 1: %v", xs)
	}
	rotate(xs, 0)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate 0 changed: %v", xs)
	}
	rotate(xs, 4)
	if !reflect.DeepEqual(xs, []int{2, 3, 4, 1}) {
		t.Errorf("rotate len changed: %v", xs)
	}
	rotate(xs, 6) // 6 % 4 = 2
	if !reflect.DeepEqual(xs, []int{4, 1, 2, 3}) {
		t.Errorf("rotate 6: %v", xs)
	}
	reverse(xs)
	if !reflect.DeepEqual(xs, []int{3, 2, 1, 4}) {
		t.Errorf("reverse: %v", xs)
	}
	one := []int{9}
	rotate(one, 3)
	reverse(one)
	if one[0] != 9 {
		t.Error("singleton mangled")
	}
}

// fullPairOrder is stage 1's reference order: every Open pair,
// stable-sorted by combination slack, as the query sorted them before
// it returned a prefix.
func fullPairOrder(st *deduce.State) []int {
	slack := func(i int) int {
		p := st.PairAt(i)
		return st.Slack(p.U) + st.Slack(p.V) + len(p.Combs)
	}
	var idx []int
	for i := 0; i < st.NumPairs(); i++ {
		if st.PairAt(i).Status == deduce.Open {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return slack(idx[a]) < slack(idx[b]) })
	return idx
}

// TestCandidatePairsFollowFullOrder checks stage 1's candidates against
// the full order: for variants 0–2 they are rotate(order, variant)
// [:min(3, n)] for n open pairs, on states a decision script walks down
// to its last open pairs, so states with n < variant+3, where the
// rotation wraps, are among them.
func TestCandidatePairsFollowFullOrder(t *testing.T) {
	wraps := 0
	for _, p := range workload.Benchmarks()[:6] {
		sb := p.GenerateBlock(0, 0)
		if sb.N() > 24 {
			continue
		}
		m := machine.TwoCluster1Lat()
		est := sb.EStarts()
		deadlines := make(map[int]int, len(sb.Exits()))
		for _, x := range sb.Exits() {
			deadlines[x] = est[x] + 4
		}
		st, err := deduce.NewState(sb, m, sg.Build(sb, m), deadlines,
			deduce.Options{Pins: workload.PinsFor(sb, m.Clusters, 1), PinExits: true})
		if err != nil {
			continue
		}
		for {
			full := fullPairOrder(st)
			n := len(full)
			for v := 0; v < retries; v++ {
				want := append([]int(nil), full...)
				rotate(want, v)
				want = want[:min(candidateLimit, n)]
				got := (&scheduler{variant: v}).candidatePairs(st)
				if !reflect.DeepEqual(append([]int{}, got...), append([]int{}, want...)) {
					t.Fatalf("%s, %d open, variant %d: candidates %v, want %v (order %v)", sb.Name, n, v, got, want, full)
				}
				if n > 0 && n < v+candidateLimit {
					wraps++
				}
			}
			if n == 0 {
				break
			}
			// Resolve the most constraining pair: its first combination,
			// else drop it; stop when both contradict.
			pr := st.PairAt(full[0])
			if st.Probe(func(x *deduce.State) error { return x.ChooseComb(pr.U, pr.V, pr.Combs[0]) }) == nil {
				err = st.ChooseComb(pr.U, pr.V, pr.Combs[0])
			} else {
				err = st.DropPair(pr.U, pr.V)
			}
			if err != nil {
				break
			}
		}
	}
	if wraps == 0 {
		t.Fatal("no state had fewer open pairs than variant+3")
	}
}

// TestBumpRule checks Section 4.2's rule as the enumeration applies it:
// every exit that can move one cycle without pushing another exit
// yields one successor vector.
func TestBumpRule(t *testing.T) {
	// Figure 1: exits B0 (prob 0.3) and B1 (prob 0.7), dist(B0,B1) = 1.
	sb := ir.PaperFigure1()
	s := newScheduler(sb, machine.PaperExampleSection5(), Options{})
	for _, tc := range []struct {
		from []int
		want [][]int
	}{
		// B0 can move (5+1 ≤ 7); the final exit always can.
		{[]int{4, 7}, [][]int{{5, 7}, {4, 8}}},
		// B0 cannot move without pushing B1, so only B1 moves.
		{[]int{6, 7}, [][]int{{6, 8}}},
		// Moving B0 to 5 would push B1 to 6, so only B1 moves.
		{[]int{4, 5}, [][]int{{4, 6}}},
	} {
		if got := s.bumpSuccessors(tc.from); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("bumpSuccessors(%v) = %v, want %v", tc.from, got, tc.want)
		}
	}
}

func TestEnhancedExitEstsMatchPaper(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	s := newScheduler(sb, m, Options{})
	ests, err := s.enhancedExitEsts()
	if err != nil {
		t.Fatal(err)
	}
	// Dependence-only: B0 at 4, B1 at 6; the enhancement proves B1
	// cannot run before 7 (Section 5).
	if !reflect.DeepEqual(ests, []int{4, 7}) {
		t.Errorf("enhanced ests = %v, want [4 7]", ests)
	}
	if awct := s.awctOf(ests); awct != 9.1 {
		t.Errorf("minAWCT = %g, want 9.1", awct)
	}
}

// TestStatsAccounting: the scheduler reports plausible search stats.
func TestStatsAccounting(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	_, stats, err := Schedule(sb, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsSpent <= 0 {
		t.Errorf("StepsSpent = %d", stats.StepsSpent)
	}
	if stats.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if stats.Comms < 1 {
		t.Errorf("Comms = %d, want >= 1 on the 2-cluster example", stats.Comms)
	}
	if stats.FinalAWCT < stats.MinAWCT {
		t.Errorf("final AWCT %g below the lower bound %g", stats.FinalAWCT, stats.MinAWCT)
	}
	checkAttemptRecords(t, stats, AttemptSucceeded)
}

// checkAttemptRecords fails the test unless the search recorded one
// attempt per launch, in visit order ((AWCTIndex, Variant) ascending),
// every attempt but the last was refuted, and the last, on the last
// vector tried, ended in last.
func checkAttemptRecords(t *testing.T, st Stats, last AttemptOutcome) {
	t.Helper()
	n := len(st.Attempts)
	if n == 0 || n != st.AttemptsLaunched {
		t.Fatalf("%d attempt records for %d launches", n, st.AttemptsLaunched)
	}
	for i, a := range st.Attempts {
		want := AttemptContradicted
		if i == n-1 {
			want = last
		}
		if a.Outcome != want {
			t.Errorf("attempt %d of %d: %+v, want %v", i, n, a, want)
		}
		if i > 0 {
			prev := st.Attempts[i-1]
			if prev.AWCTIndex > a.AWCTIndex || (prev.AWCTIndex == a.AWCTIndex && prev.Variant >= a.Variant) {
				t.Errorf("attempts out of visit order at %d: %+v then %+v", i, prev, a)
			}
		}
	}
	if a := st.Attempts[n-1]; a.AWCTIndex != st.AWCTTried-1 {
		t.Errorf("last attempt %+v is not on the last of %d vectors tried", a, st.AWCTTried)
	}
}

// TestGeneratedCorpusValid: the full algorithm (with the CARS-free
// fallback disabled) must produce validator-clean schedules across a
// sample of every benchmark profile and machine.
func TestGeneratedCorpusValid(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	// A rotating sample keeps this fast while still touching several
	// profile shapes; the full sweep lives in cmd/experiments.
	profiles := workload.Benchmarks()
	sample := []workload.AppProfile{profiles[0], profiles[5], profiles[8], profiles[12]}
	machines := machine.EvaluationConfigs()
	for pi, p := range sample {
		app := p.Generate(0.04, 0)
		for _, m := range machines[pi%len(machines) : pi%len(machines)+1] {
			for _, sb := range app.Blocks {
				pins := workload.PinsFor(sb, m.Clusters, 99)
				s, stats, err := Schedule(sb, m, Options{Pins: pins, Timeout: 3 * time.Second})
				if err != nil {
					// Timeouts and budget exhaustion are legitimate (the
					// harness falls back to CARS on them).
					if err == ErrTimeout || errors.Is(err, ErrExhausted) {
						continue
					}
					t.Errorf("%s on %s: %v", sb.Name, m.Name, err)
					continue
				}
				if verr := s.Validate(); verr != nil {
					t.Fatalf("%s on %s: invalid: %v", sb.Name, m.Name, verr)
				}
				if s.AWCT() < stats.MinAWCT-1e-9 {
					t.Errorf("%s on %s: AWCT %g below lower bound %g", sb.Name, m.Name, s.AWCT(), stats.MinAWCT)
				}
			}
		}
	}
}
