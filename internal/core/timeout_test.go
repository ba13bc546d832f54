package core

import (
	"errors"
	"testing"
	"time"

	"vcsched/internal/faultpoint"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

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
		for _, par := range []int{1, 4} {
			_, _, err := Schedule(sb, m, Options{
				Pins:        pins,
				Timeout:     time.Millisecond,
				MaxSteps:    -1,
				Parallelism: par,
			})
			if errors.Is(err, ErrExhausted) {
				t.Fatalf("rep %d parallelism %d: expired deadline classified as exhaustion: %v", i, par, err)
			}
			if err != nil && !errors.Is(err, ErrTimeout) {
				t.Fatalf("rep %d parallelism %d: unexpected error class: %v", i, par, err)
			}
		}
	}
}

// Satellite: an injected budget starvation must produce byte-identical
// errors and attempt accounting in serial and parallel mode — the
// portfolio's serial-replay contract covers failures, not just
// successes.
func TestInjectedStarvationIdenticalSerialParallel(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()

	sb := largestWorkloadBlock(t)
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)

	run := func(par int) (string, Stats) {
		// Re-arm per run: the starvation point is consumed once at each
		// Schedule entry, so both drivers must see the identical cap.
		faultpoint.Arm("core.budget", faultpoint.Fault{Kind: faultpoint.KindStarve, N: 5000})
		s, stats, err := Schedule(sb, m, Options{Pins: pins, Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: starved run succeeded (schedule AWCT %.3f); raise the test's pressure", par, s.AWCT())
		}
		if !errors.Is(err, ErrExhausted) {
			t.Fatalf("parallelism %d: err = %v, want ErrExhausted from the injected starvation", par, err)
		}
		return err.Error(), stats
	}

	serialErr, serialStats := run(1)
	parErr, parStats := run(4)

	if serialErr != parErr {
		t.Errorf("error strings differ:\nserial:   %s\nparallel: %s", serialErr, parErr)
	}
	if serialStats.AWCTTried != parStats.AWCTTried {
		t.Errorf("AWCTTried: %d serial vs %d parallel", serialStats.AWCTTried, parStats.AWCTTried)
	}
	if len(serialStats.Attempts) != len(parStats.Attempts) {
		t.Fatalf("attempt counts differ: %d serial vs %d parallel\nserial: %+v\nparallel: %+v",
			len(serialStats.Attempts), len(parStats.Attempts), serialStats.Attempts, parStats.Attempts)
	}
	for i := range serialStats.Attempts {
		a, b := serialStats.Attempts[i], parStats.Attempts[i]
		if a.AWCTIndex != b.AWCTIndex || a.Variant != b.Variant || a.Outcome != b.Outcome {
			t.Errorf("attempt %d differs: serial %+v vs parallel %+v", i, a, b)
		}
	}
}
