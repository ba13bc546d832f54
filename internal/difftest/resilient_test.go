package difftest

import (
	"path/filepath"
	"testing"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
)

// TestResilientCrossCheckClean: with no faults armed, the differential
// check, ladder cross-checks included, must stay silent across the fixture
// blocks — including one forced to exhaust its budget, where the
// resilient result comes from a fallback tier.
func TestResilientCrossCheckClean(t *testing.T) {
	faultpoint.Reset()
	for _, sb := range []*ir.Superblock{ir.PaperFigure1(), ir.Diamond(), ir.Straight(12)} {
		rep := Check(sb, Options{})
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", sb.Name, v)
		}
	}
	// A starvation-level step budget exhausts the SG tier; the ladder
	// must hand back a fallback schedule that still clears every oracle.
	rep := Check(ir.Wide(16), Options{MaxSteps: 50})
	if rep.VCErr == nil {
		t.Fatal("expected the 50-step budget to exhaust the core scheduler")
	}
	for _, v := range rep.Violations {
		t.Errorf("starved wide block: %s", v)
	}
}

// TestPanicReprosDegradeNotDie replays the checked-in reproducers for
// the two historical process-killing panics, re-creating each crash via
// its faultpoint. The SG tier must die softly (recovered PanicError in
// VCErr at most) and the ladder must keep the whole differential check
// violation-free.
func TestPanicReprosDegradeNotDie(t *testing.T) {
	cases := []struct {
		file  string
		point string
	}{
		{"panic_stage_2c1l.sb", "core.stage"},
		{"panic_coloring_2c1l.sb", "coloring.maxclique"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()

			r, err := ReadReproFile(filepath.Join("testdata", "repros", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(tc.point, faultpoint.Fault{Kind: faultpoint.KindPanic})
			rep, err := r.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if rep.VCErr == nil {
				t.Errorf("%s: injected panic did not reach the core scheduler", tc.file)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s: %s", tc.file, v)
			}
		})
	}
}
