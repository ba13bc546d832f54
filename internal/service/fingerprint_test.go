package service

import (
	"testing"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

func TestFingerprintContentAddressing(t *testing.T) {
	base := testRequest(ir.PaperFigure1(), 1)
	fp := Fingerprint(base)
	if fp == "" || len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a hex sha256", fp)
	}

	// Same content, different representation: reparsing the printed
	// form and shuffling edge declaration order must not change the
	// address.
	reparsed, err := ir.Parse(base.SB.String())
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(testRequest(reparsed, 1)); got != fp {
		t.Fatalf("reparsed block fingerprints differently: %s vs %s", got, fp)
	}
	shuffled := base.SB.Clone()
	for i, j := 0, len(shuffled.Edges)-1; i < j; i, j = i+1, j-1 {
		shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
	}
	if got := Fingerprint(testRequest(shuffled, 1)); got != fp {
		t.Fatal("edge declaration order changed the fingerprint")
	}

	// Unset knobs normalize to their documented defaults.
	dflt := testRequest(ir.PaperFigure1(), 1)
	dflt.Core = core.Options{MaxSteps: 20000, ShaveRounds: 2, CandidateLimit: 3, CycleCandLimit: 6, MaxAWCTIters: 64, Retries: 3}
	if got := Fingerprint(dflt); got != fp {
		t.Fatal("spelled-out defaults fingerprint differently from unset knobs")
	}

	// Wall-clock budget and portfolio width never change a correct
	// result, so they must not split cache entries.
	hurried := testRequest(ir.PaperFigure1(), 1)
	hurried.Deadline = 7 * time.Millisecond
	hurried.Core.Timeout = time.Second
	hurried.Core.Parallelism = 8
	if got := Fingerprint(hurried); got != fp {
		t.Fatal("deadline/parallelism changed the fingerprint")
	}
}

func TestFingerprintSplitsOnMeaningfulDifferences(t *testing.T) {
	base := testRequest(ir.PaperFigure1(), 1)
	fp := Fingerprint(base)

	seed := testRequest(ir.PaperFigure1(), 2)
	if Fingerprint(seed) == fp {
		t.Fatal("pin seed not fingerprinted")
	}

	mach := testRequest(ir.PaperFigure1(), 1)
	mach.Machine = machine.FourCluster1Lat()
	if Fingerprint(mach) == fp {
		t.Fatal("machine not fingerprinted")
	}

	steps := testRequest(ir.PaperFigure1(), 1)
	steps.Core.MaxSteps = 12345
	if Fingerprint(steps) == fp {
		t.Fatal("step budget not fingerprinted")
	}

	block := testRequest(ir.Diamond(), 1)
	if Fingerprint(block) == fp {
		t.Fatal("superblock not fingerprinted")
	}

	ablation := testRequest(ir.PaperFigure1(), 1)
	ablation.Core.NoStage3Matching = true
	if Fingerprint(ablation) == fp {
		t.Fatal("stage-3 ablation knob not fingerprinted")
	}
}

func TestFingerprintCoversHeterogeneousMachines(t *testing.T) {
	homo := machine.TwoCluster1Lat()
	hetero := machine.TwoCluster1Lat()
	var fu [ir.NumClasses]int
	fu[ir.Int] = 3
	hetero.SetClusterFU(1, fu)
	a := testRequest(ir.PaperFigure1(), 1)
	a.Machine = homo
	b := testRequest(ir.PaperFigure1(), 1)
	b.Machine = hetero
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("per-cluster FU override not fingerprinted")
	}
}

// TestFingerprintGolden pins the v1 request address to its bytes: the
// wire fingerprint field, the router's ring placement and the hollow
// workers' costs in the SLO suite all derive from it, so any change to
// what Fingerprint hashes must be deliberate (a new format version).
func TestFingerprintGolden(t *testing.T) {
	const want = "6710d5570ca6c7eb38181b7f730c5dfdf29629502b7494da406cff26a6f64047"
	if got := Fingerprint(testRequest(ir.PaperFigure1(), 1)); got != want {
		t.Fatalf("Fingerprint(Figure 1, seed 1) = %s, want %s", got, want)
	}
}
