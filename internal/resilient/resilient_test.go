package resilient

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// With no faults armed, tier 1 is core.Schedule verbatim: the pipeline
// must return a bit-identical schedule.
func TestTier1BitIdenticalToCore(t *testing.T) {
	faultpoint.Reset()
	m := machine.TwoCluster1Lat()
	for _, sb := range []*ir.Superblock{ir.PaperFigure1(), ir.Diamond(), ir.Straight(12)} {
		pins := workload.PinsFor(sb, m.Clusters, 1)
		opts := core.Options{Pins: pins}

		want, _, err := core.Schedule(sb, m, opts)
		if err != nil {
			t.Fatalf("core on %s: %v", sb.Name, err)
		}
		got, out, err := Schedule(sb, m, Options{Core: opts})
		if err != nil {
			t.Fatalf("resilient on %s: %v", sb.Name, err)
		}
		if out.Tier != TierSG {
			t.Fatalf("%s: tier = %s, want sg", sb.Name, out.Tier)
		}
		if out.AWCT != got.AWCT() {
			t.Errorf("%s: outcome AWCT %.3f != schedule AWCT %.3f", sb.Name, out.AWCT, got.AWCT())
		}
		var wb, gb bytes.Buffer
		if err := want.WriteText(&wb); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteText(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Errorf("%s: resilient tier-1 schedule differs from core.Schedule:\n--- core\n%s--- resilient\n%s",
				sb.Name, wb.String(), gb.String())
		}
		if len(out.Attempts) != 1 || out.Attempts[0].Err != "" {
			t.Errorf("%s: attempts = %+v, want one clean tier-1 record", sb.Name, out.Attempts)
		}
	}
}

// A panic injected into the stage loop must surface as a recovered
// PanicError on the SG tier and demote the block to CARS — never kill
// the process.
func TestPanicFaultDegradesToCARS(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindPanic})

	sb := ir.PaperFigure1()
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS {
		t.Fatalf("tier = %s, want cars\n%s", out.Tier, out)
	}
	if !out.Attempts[0].Panic {
		t.Errorf("tier-1 attempt not marked as panicked: %+v", out.Attempts[0])
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

// Spurious contradictions on every propagation make the SG search
// exhaust; the ladder must go straight to CARS, with one SG attempt.
func TestContradictionFaultDegradesToCARS(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("deduce.propagate", faultpoint.Fault{Kind: faultpoint.KindContra})

	sb := ir.Diamond()
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS {
		t.Fatalf("tier = %s, want cars\n%s", out.Tier, out)
	}
	if got, want := attemptTiers(out), []Tier{TierSG, TierCARS}; !slices.Equal(got, want) {
		t.Errorf("attempts %v, want %v\n%s", got, want, out)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("accepted schedule invalid: %v", err)
	}
}

// The caller's Timeout bounds the only SG search: once it has passed,
// the ladder falls straight to CARS instead of searching on.
func TestTimeoutFallsStraightToCARS(t *testing.T) {
	faultpoint.Reset()
	sb := ir.Diamond()
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	s, out, err := Schedule(sb, m, Options{Core: core.Options{Pins: pins, Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatalf("pipeline failed outright: %v", err)
	}
	if out.Tier != TierCARS {
		t.Fatalf("tier = %s, want cars\n%s", out.Tier, out)
	}
	if got, want := attemptTiers(out), []Tier{TierSG, TierCARS}; !slices.Equal(got, want) {
		t.Fatalf("attempts %v, want %v\n%s", got, want, out)
	}
	if got := out.Attempts[0].Err; got != core.ErrTimeout.Error() {
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
