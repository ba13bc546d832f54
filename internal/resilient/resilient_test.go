package resilient

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// beatsCARS is 124.m88ksim.sb0001, a block on which the search beats
// CARS on 2c1l with pin seed 1: CARS reaches AWCT 4.486, the search
// 3.743, which is its enhanced bound.
func beatsCARS(t *testing.T) *ir.Superblock {
	t.Helper()
	p, err := workload.BenchmarkByName("124.m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	return p.GenerateBlock(1, 0)
}

func writeText(t *testing.T, s *sched.Schedule) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// With no faults armed the ladder delivers the better of CARS and the
// search, byte for byte: the search's schedule, identical to
// core.Schedule without a ceiling, exactly when it beats CARS, and
// CARS's schedule otherwise. The paper's Figure 1 ties CARS at 9.400
// after the search refutes 9.1, so it gets CARS at the ceiling.
func TestTier1BitIdenticalToCore(t *testing.T) {
	faultpoint.Reset()
	m := machine.TwoCluster1Lat()
	for _, c := range []struct {
		sb     *ir.Superblock
		tier   Tier
		reason Reason
	}{
		{beatsCARS(t), TierSG, ReasonNone},
		{ir.PaperFigure1(), TierCARS, ReasonAtCeiling},
		{ir.Diamond(), TierCARS, ReasonAtBound},
		{ir.Straight(12), TierCARS, ReasonAtBound},
	} {
		sb := c.sb
		pins := workload.PinsFor(sb, m.Clusters, 1)
		opts := core.Options{Pins: pins}

		vc, _, err := core.Schedule(sb, m, opts)
		if err != nil {
			t.Fatalf("core on %s: %v", sb.Name, err)
		}
		cs, err := cars.Schedule(sb, m, pins)
		if err != nil {
			t.Fatalf("cars on %s: %v", sb.Name, err)
		}
		got, out, err := Schedule(sb, m, Options{Core: opts})
		if err != nil {
			t.Fatalf("resilient on %s: %v", sb.Name, err)
		}
		if out.Tier != c.tier || out.Reason != c.reason {
			t.Fatalf("%s: tier %s reason %s, want %s %s\n%s", sb.Name, out.Tier, out.Reason, c.tier, c.reason, out)
		}
		want := cs
		if c.tier == TierSG {
			want = vc
		}
		if (vc.AWCT() < cs.AWCT()) != (c.tier == TierSG) {
			t.Errorf("%s: core AWCT %.3f, CARS %.3f, but the ladder delivered %s", sb.Name, vc.AWCT(), cs.AWCT(), out.Tier)
		}
		if out.AWCT != got.AWCT() {
			t.Errorf("%s: outcome AWCT %.3f != schedule AWCT %.3f", sb.Name, out.AWCT, got.AWCT())
		}
		if wb, gb := writeText(t, want), writeText(t, got); !bytes.Equal(wb, gb) {
			t.Errorf("%s: ladder schedule differs from %s's:\n--- %s\n%s--- resilient\n%s",
				sb.Name, c.tier, c.tier, wb, gb)
		}
		if got, want := attemptTiers(out), []Tier{TierCARS, TierSG}; !slices.Equal(got, want) {
			t.Errorf("%s: attempts %v, want %v", sb.Name, got, want)
		}
		if c.tier == TierSG {
			for _, a := range out.Attempts {
				if a.Err != "" {
					t.Errorf("%s: attempt %+v failed on a block the search wins", sb.Name, a)
				}
			}
		}
	}
}

// A panic injected into the stage loop must surface as a recovered
// PanicError on the SG tier and leave the block to CARS — never kill
// the process.
func TestPanicFaultDegradesToCARS(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindPanic})

	sb := beatsCARS(t)
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS || out.Reason != ReasonSGError {
		t.Fatalf("tier %s reason %s, want cars sg-error\n%s", out.Tier, out.Reason, out)
	}
	if got, want := attemptTiers(out), []Tier{TierCARS, TierSG}; !slices.Equal(got, want) {
		t.Fatalf("attempts %v, want %v\n%s", got, want, out)
	}
	if !out.Attempts[1].Panic {
		t.Errorf("SG attempt not marked as panicked: %+v", out.Attempts[1])
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
}

// attemptTiers is the ladder's attempt log, one tier per rung tried.
func attemptTiers(out *Outcome) []Tier {
	tiers := make([]Tier, len(out.Attempts))
	for i, a := range out.Attempts {
		tiers[i] = a.Tier
	}
	return tiers
}

// Spurious contradictions on every propagation are faults, not
// refutations: the first bound probe returns its injected contradiction
// as the search's error instead of raising the bound past CARS's AWCT,
// so the ladder keeps CARS as an sg-error, with one SG attempt, and
// never claims CARS reached a lower bound.
func TestContradictionFaultDegradesToCARS(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("deduce.propagate", faultpoint.Fault{Kind: faultpoint.KindContra})

	sb := beatsCARS(t)
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS || out.Reason != ReasonSGError {
		t.Fatalf("tier %s reason %s, want cars sg-error\n%s", out.Tier, out.Reason, out)
	}
	if got, want := attemptTiers(out), []Tier{TierCARS, TierSG}; !slices.Equal(got, want) {
		t.Errorf("attempts %v, want %v\n%s", got, want, out)
	}
	if got, want := out.Attempts[1].Err, "deduce: contradiction: injected contradiction (faultpoint deduce.propagate)"; got != want {
		t.Errorf("sg attempt error %q, want %q", got, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
}

// The caller's Timeout bounds the only SG search: once it has passed,
// the search stops and the ladder keeps CARS instead of searching on.
func TestTimeoutFallsStraightToCARS(t *testing.T) {
	faultpoint.Reset()
	sb := beatsCARS(t)
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins, Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS || out.Reason != ReasonTimeout {
		t.Fatalf("tier %s reason %s, want cars timeout\n%s", out.Tier, out.Reason, out)
	}
	if got, want := attemptTiers(out), []Tier{TierCARS, TierSG}; !slices.Equal(got, want) {
		t.Fatalf("attempts %v, want %v\n%s", got, want, out)
	}
	if got := out.Attempts[1].Err; got != core.ErrTimeout.Error() {
		t.Errorf("sg attempt error %q, want %q", got, core.ErrTimeout)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
}

// With both the SG scheduler and CARS sabotaged, the naive tier must
// still deliver a Validate-clean schedule.
func TestNaiveTierIsLastResort(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindPanic})
	faultpoint.Arm("cars.schedule", faultpoint.Fault{Kind: faultpoint.KindPanic})

	sb := ir.PaperFigure1()
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierNaive {
		t.Fatalf("tier = %s, want naive\n%s", out.Tier, out)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
	// The CARS attempt died of a recovered panic, structurally recorded.
	var sawCARSPanic bool
	for _, a := range out.Attempts {
		if a.Tier == TierCARS && a.Panic {
			sawCARSPanic = true
		}
	}
	if !sawCARSPanic {
		t.Errorf("no panicked CARS attempt recorded: %+v", out.Attempts)
	}
}

// An input no tier can schedule (a class with units nowhere) is the
// only hard failure: Tier stays none and the error chain names every
// rung.
func TestHardFailureNamesEveryTier(t *testing.T) {
	faultpoint.Reset()
	m := machine.TwoCluster1Lat()
	fu := m.FU
	fu[ir.FP] = 0
	m.SetClusterFU(0, fu)
	m.SetClusterFU(1, fu)

	b := ir.NewBuilder("fp-impossible")
	f := b.Instr("fmul", ir.FP, 3)
	x := b.Exit("br", 1, 1.0)
	b.Ctrl(f, x)
	sb := b.MustFinish()

	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: workload.PinsFor(sb, m.Clusters, 1)}})
	if err == nil || s != nil {
		t.Fatalf("scheduled an impossible block (tier %s)", out.Tier)
	}
	if out.Tier != TierNone {
		t.Errorf("tier = %s, want none", out.Tier)
	}
	seen := map[Tier]bool{}
	for _, a := range out.Attempts {
		seen[a.Tier] = true
		if a.Err == "" {
			t.Errorf("attempt %+v recorded as success on an impossible block", a)
		}
	}
	for _, want := range []Tier{TierSG, TierCARS, TierNaive} {
		if !seen[want] {
			t.Errorf("no attempt recorded for tier %s: %+v", want, out.Attempts)
		}
	}
}

// TestResilientBatchUnderFaults is the robustness acceptance check: a
// 50+-block benchmark batch with panics, spurious contradictions and
// budget starvation all armed must finish with zero hard failures —
// every block gets a Validate-clean schedule and an Outcome naming the
// tier that produced it.
func TestResilientBatchUnderFaults(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindPanic, Every: 7})
	faultpoint.Arm("deduce.shave", faultpoint.Fault{Kind: faultpoint.KindContra, Every: 3})
	faultpoint.Arm("core.budget", faultpoint.Fault{Kind: faultpoint.KindStarve, Every: 5, N: 2000})

	m := machine.TwoCluster1Lat()
	blocks := 0
	tiers := map[Tier]int{}
	for _, p := range []workload.AppProfile{workload.Benchmarks()[0], workload.Benchmarks()[7]} {
		for _, sb := range p.Generate(0.25, 0).Blocks {
			blocks++
			opts := core.Options{Pins: workload.PinsFor(sb, m.Clusters, 1), Timeout: 2 * time.Second}
			s, out, err := Schedule(sb, m, Options{Core: opts})
			if err != nil {
				t.Errorf("%s/%s: hard failure: %v", p.Name, sb.Name, err)
				continue
			}
			if verr := s.Validate(); verr != nil {
				t.Errorf("%s/%s: invalid schedule under faults: %v", p.Name, sb.Name, verr)
			}
			if out.Tier == TierNone {
				t.Errorf("%s/%s: outcome names no tier", p.Name, sb.Name)
			}
			tiers[out.Tier]++
		}
	}
	if blocks < 50 {
		t.Fatalf("batch covered only %d blocks, want at least 50", blocks)
	}
	// The faults must actually have bitten: a batch this size at these
	// firing rates cannot come back all-tier-sg.
	if blocks == tiers[TierSG] {
		t.Errorf("all %d blocks came back on tier sg; fault injection did not engage (tiers: %v)", blocks, tiers)
	}
	t.Logf("tier mix over %d blocks: %v", blocks, tiers)
}
