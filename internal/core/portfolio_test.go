package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// samePlacement fails the test if the two schedules differ anywhere a
// schedule can differ: AWCT, placements, or communications.
func samePlacement(t *testing.T, name string, serial, parallel *scheduleStatsErr) {
	t.Helper()
	if serial.err != nil {
		// Outcome identity covers failures too: the portfolio replays
		// the shared-budget accounting, so a serial exhaustion must
		// reproduce in parallel at the same enumeration depth.
		if parallel.err == nil {
			t.Fatalf("%s: serial err=%v, parallel succeeded", name, serial.err)
		}
		if errors.Is(serial.err, ErrExhausted) != errors.Is(parallel.err, ErrExhausted) ||
			errors.Is(serial.err, ErrNoBetter) != errors.Is(parallel.err, ErrNoBetter) {
			t.Fatalf("%s: serial err=%v, parallel err=%v", name, serial.err, parallel.err)
		}
		if serial.stats.AWCTTried != parallel.stats.AWCTTried {
			t.Errorf("%s: failing AWCTTried %d serial vs %d parallel",
				name, serial.stats.AWCTTried, parallel.stats.AWCTTried)
		}
		return
	}
	if parallel.err != nil {
		t.Fatalf("%s: serial succeeded, parallel err=%v", name, parallel.err)
	}
	s, p := serial.s, parallel.s
	if s.AWCT() != p.AWCT() || s.NumComms() != p.NumComms() {
		t.Fatalf("%s: serial AWCT=%g/%d comms, parallel AWCT=%g/%d comms",
			name, s.AWCT(), s.NumComms(), p.AWCT(), p.NumComms())
	}
	for i := range s.Place {
		if s.Place[i] != p.Place[i] {
			t.Fatalf("%s: instruction %d placed %+v serially, %+v in parallel", name, i, s.Place[i], p.Place[i])
		}
	}
	for i := range s.Comms {
		if s.Comms[i] != p.Comms[i] {
			t.Fatalf("%s: comm %d is %+v serially, %+v in parallel", name, i, s.Comms[i], p.Comms[i])
		}
	}
	if serial.stats.AWCTTried != parallel.stats.AWCTTried {
		t.Errorf("%s: AWCTTried %d serial vs %d parallel", name, serial.stats.AWCTTried, parallel.stats.AWCTTried)
	}
}

type scheduleStatsErr struct {
	s     *sched.Schedule
	stats Stats
	err   error
}

// TestPortfolioMatchesSerial is the acceptance check: with
// Parallelism > 1 the committed schedule must be bit-identical to the
// serial driver's across the workload suite.
func TestPortfolioMatchesSerial(t *testing.T) {
	scale := 0.04
	maxBlocksPerApp := 4
	if testing.Short() {
		scale = 0.03
		maxBlocksPerApp = 2
	}
	if raceEnabled {
		// The race detector slows scheduling ~10–20×; keep the sweep
		// representative (every app, at least one block) but small.
		scale = 0.02
		maxBlocksPerApp = 2
	}
	m := machine.TwoCluster1Lat()
	for _, p := range workload.Benchmarks() {
		app := p.Generate(scale, 0)
		blocks := app.Blocks
		if len(blocks) > maxBlocksPerApp {
			blocks = blocks[:maxBlocksPerApp]
		}
		for _, sb := range blocks {
			// No wall-clock timeout: the outcome must be a pure function
			// of the input, or the comparison would be timing-dependent.
			// A reduced step budget bounds the search instead — it also
			// exercises the budget-death replay on hard blocks, which
			// must exhaust identically in both modes.
			pins := workload.PinsFor(sb, m.Clusters, 1)
			base := Options{Pins: pins, MaxSteps: 25000}

			optsSerial := base
			s1, st1, err1 := Schedule(sb, m, optsSerial)

			optsPar := base
			optsPar.Parallelism = 4
			s2, st2, err2 := Schedule(sb, m, optsPar)

			samePlacement(t, p.Name+"/"+sb.Name,
				&scheduleStatsErr{s1, st1, err1},
				&scheduleStatsErr{s2, st2, err2})
		}
	}
}

// TestPortfolioPaperExample cross-checks the known Section 5 result in
// parallel mode, including the per-attempt accounting.
func TestPortfolioPaperExample(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
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
		if stats.AttemptsLaunched == 0 {
			t.Errorf("parallelism %d: no attempts recorded", par)
		}
		if len(stats.Attempts) != stats.AttemptsLaunched {
			t.Errorf("parallelism %d: %d attempt records for %d launches",
				par, len(stats.Attempts), stats.AttemptsLaunched)
		}
		// Attempt records are sorted and every record before the winner
		// must be a refutation or a cancellation.
		won := false
		for i, a := range stats.Attempts {
			if i > 0 {
				prev := stats.Attempts[i-1]
				if !pfBefore(prev.AWCTIndex, prev.Variant, a.AWCTIndex, a.Variant) {
					t.Errorf("parallelism %d: attempts unsorted at %d: %+v then %+v", par, i, prev, a)
				}
			}
			if a.Outcome == AttemptSucceeded {
				won = true
			}
		}
		if !won {
			t.Errorf("parallelism %d: no successful attempt recorded", par)
		}
	}
}

// largestWorkloadBlock picks a big superblock so a tiny timeout cannot
// possibly complete it.
func largestWorkloadBlock(t *testing.T) *ir.Superblock {
	t.Helper()
	p, err := workload.BenchmarkByName("099.go")
	if err != nil {
		t.Fatal(err)
	}
	app := p.Generate(1.0, 0)
	var best *ir.Superblock
	for _, sb := range app.Blocks {
		if best == nil || sb.N() > best.N() {
			best = sb
		}
	}
	if best.N() < 30 {
		t.Fatalf("largest generated block has only %d instructions", best.N())
	}
	return best
}

// TestTimeoutPrompt is the ErrTimeout satellite: a tiny timeout on a
// large superblock must return ErrTimeout within a bounded wall-clock
// interval and without a partial schedule — in serial and parallel mode.
func TestTimeoutPrompt(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.FourCluster2Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	for _, par := range []int{1, 4} {
		start := time.Now()
		s, _, err := Schedule(sb, m, Options{Pins: pins, Timeout: 200 * time.Microsecond, Parallelism: par})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("parallelism %d: err = %v, want ErrTimeout", par, err)
		}
		if s != nil {
			t.Fatalf("parallelism %d: got a partial schedule alongside ErrTimeout", par)
		}
		// Generous bound: deadline checks run every few deduction steps,
		// so even loaded CI machines should abort far below this.
		if elapsed > 5*time.Second {
			t.Fatalf("parallelism %d: ErrTimeout took %v, want prompt abort", par, elapsed)
		}
	}
}

// TestNegativeOptionsClamped: negative Parallelism and Timeout values
// must clamp to the serial driver and no deadline.
func TestNegativeOptionsClamped(t *testing.T) {
	o := Options{
		Parallelism: -5,
		Timeout:     -time.Second,
	}.withDefaults()
	if o.Parallelism != 1 {
		t.Errorf("Parallelism = %d, want 1", o.Parallelism)
	}
	if o.Timeout != 0 {
		t.Errorf("Timeout = %v, want 0", o.Timeout)
	}
	// And the scheduler must still work under the clamped extremes.
	s, _, err := Schedule(ir.Diamond(), machine.TwoCluster1Lat(), Options{
		Parallelism: -1, Timeout: -time.Second,
	})
	if err != nil {
		t.Fatalf("clamped options: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("clamped options: invalid schedule: %v", err)
	}
}

// TestPortfolioTraceConcurrency exercises the concurrent Trace path
// under the race detector.
func TestPortfolioTraceConcurrency(t *testing.T) {
	var mu sync.Mutex
	lines := 0
	trace := func(format string, args ...any) {
		mu.Lock()
		lines++
		mu.Unlock()
	}
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	if _, _, err := Schedule(sb, m, Options{Parallelism: 4, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("trace never called")
	}
}
