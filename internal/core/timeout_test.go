package core

import (
	"errors"
	"testing"
	"time"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

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

// A tiny timeout on a large superblock must return ErrTimeout within a
// bounded wall-clock interval and without a partial schedule.
func TestTimeoutPrompt(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.FourCluster2Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	start := time.Now()
	s, _, err := Schedule(sb, m, Options{Pins: pins, Timeout: 200 * time.Microsecond})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if s != nil {
		t.Fatal("got a partial schedule alongside ErrTimeout")
	}
	// Generous bound: deadline checks run every few deduction steps,
	// so even loaded CI machines should abort far below this.
	if elapsed > 5*time.Second {
		t.Fatalf("ErrTimeout took %v, want prompt abort", elapsed)
	}
}

// A negative Timeout clamps to no deadline, and the scheduler still
// works under it.
func TestNegativeOptionsClamped(t *testing.T) {
	if o := (Options{Timeout: -time.Second}).withDefaults(); o.Timeout != 0 {
		t.Errorf("Timeout = %v, want 0", o.Timeout)
	}
	s, _, err := Schedule(ir.Diamond(), machine.TwoCluster1Lat(), Options{Timeout: -time.Second})
	if err != nil {
		t.Fatalf("clamped options: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("clamped options: invalid schedule: %v", err)
	}
}

// The enumeration verdict must re-check the wall clock: a deadline that
// expired between checkTime polls (e.g. inside a stage whose
// contradictions mask the budget's deadline signal) is a timeout, not
// an exhausted search or a stop at the ceiling.
func TestExhaustVerdictHonorsExpiredDeadline(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()

	s := newScheduler(sb, m, Options{})
	if err := s.stopErr(false); !errors.Is(err, ErrExhausted) {
		t.Fatalf("no deadline: err = %v, want ErrExhausted", err)
	}
	if err := s.stopErr(true); err != ErrNoBetter {
		t.Fatalf("no deadline, at the ceiling: err = %v, want ErrNoBetter", err)
	}

	s = newScheduler(sb, m, Options{})
	s.deadline = time.Now().Add(-time.Second)
	for _, atCeiling := range []bool{false, true} {
		err := s.stopErr(atCeiling)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("expired deadline (at ceiling %v): err = %v, want ErrTimeout", atCeiling, err)
		}
		if errors.Is(err, ErrExhausted) || errors.Is(err, ErrNoBetter) {
			t.Fatalf("expired deadline (at ceiling %v) still reported as %v", atCeiling, err)
		}
	}
}

// Race a 1ms deadline against a large block. With an unlimited step
// budget the only legal outcomes are success or ErrTimeout;
// ErrExhausted would mean the expired deadline was misclassified.
func TestDeadlineRaceNeverExhausts(t *testing.T) {
	sb := largestWorkloadBlock(t)
	m := machine.FourCluster2Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	reps := 8
	if testing.Short() || raceEnabled {
		reps = 3
	}
	for i := 0; i < reps; i++ {
		_, _, err := Schedule(sb, m, Options{Pins: pins, Timeout: time.Millisecond, MaxSteps: -1})
		if errors.Is(err, ErrExhausted) {
			t.Fatalf("rep %d: expired deadline classified as exhaustion: %v", i, err)
		}
		if err != nil && !errors.Is(err, ErrTimeout) {
			t.Fatalf("rep %d: unexpected error class: %v", i, err)
		}
	}
}

// An injected budget starvation caps the one budget the bound probes
// and the attempts share. At a cap the probes do not use up, attempts
// run, and the search dies inside one: the steps spent are the cap
// plus the step that overran it, and the attempt records end in the
// errored one.
func TestInjectedStarvationEndsInErroredAttempt(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()

	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()
	const stepCap = 20000
	faultpoint.Arm("core.budget", faultpoint.Fault{Kind: faultpoint.KindStarve, N: stepCap})
	s, st, err := Schedule(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1)})
	if err == nil {
		t.Fatalf("starved run succeeded (schedule AWCT %.3f); lower the test's cap", s.AWCT())
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted from the injected starvation", err)
	}
	if st.StepsSpent != stepCap+1 {
		t.Errorf("StepsSpent = %d, want the cap plus the overrunning step, %d", st.StepsSpent, stepCap+1)
	}
	if len(st.Attempts) == 0 {
		t.Fatal("no attempt ran under the cap; raise the test's cap")
	}
	checkAttemptRecords(t, st, AttemptErrored)
}
