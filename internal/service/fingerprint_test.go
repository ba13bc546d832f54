package service

import (
	"testing"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
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

	// An unset step budget hashes as the default it runs with.
	unset := testRequest(ir.PaperFigure1(), 1)
	unset.MaxSteps = 0
	dflt := testRequest(ir.PaperFigure1(), 1)
	dflt.MaxSteps = core.DefaultMaxSteps
	if Fingerprint(unset) != Fingerprint(dflt) {
		t.Fatal("MaxSteps 0 and the spelled-out default fingerprint differently")
	}

	// The wall-clock budget never changes a correct result, so it must
	// not split cache entries.
	hurried := testRequest(ir.PaperFigure1(), 1)
	hurried.Deadline = 7 * time.Millisecond
	if got := Fingerprint(hurried); got != fp {
		t.Fatal("deadline changed the fingerprint")
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
	steps.MaxSteps = 12345
	if Fingerprint(steps) == fp {
		t.Fatal("step budget not fingerprinted")
	}

	block := testRequest(ir.Diamond(), 1)
	if Fingerprint(block) == fp {
		t.Fatal("superblock not fingerprinted")
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

// TestFingerprintTextIsTheHashedBlock: the bytes FingerprintText hands
// the router are the canonical text, they re-parse to a block with the
// same address, and edge declaration order does not change them.
func TestFingerprintTextIsTheHashedBlock(t *testing.T) {
	req := testRequest(ir.PaperFigure1(), 1)
	fp, text := FingerprintText(req)
	if fp != Fingerprint(req) {
		t.Fatal("FingerprintText and Fingerprint disagree")
	}
	if string(text) != string(req.SB.AppendCanonical(nil)) {
		t.Fatalf("FingerprintText returned %q, not the canonical text", text)
	}
	sb, err := ir.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := Fingerprint(testRequest(sb, 1)); got != fp {
		t.Fatalf("re-parsed canonical text fingerprints %s, want %s", got, fp)
	}
	shuffled := req.SB.Clone()
	for i, j := 0, len(shuffled.Edges)-1; i < j; i, j = i+1, j-1 {
		shuffled.Edges[i], shuffled.Edges[j] = shuffled.Edges[j], shuffled.Edges[i]
	}
	if shuffled.String() == req.SB.String() {
		t.Fatal("shuffle did not reorder the printed edges")
	}
	if _, got := FingerprintText(testRequest(shuffled, 1)); string(got) != string(text) {
		t.Fatalf("edge order changed the canonical text:\n%s\nvs\n%s", got, text)
	}
}

// TestFingerprintAllocs bounds the allocations of one fingerprint of a
// paper-profile block (099.go.sb0003 on 4c2l): the request document is
// built in one buffer and hashed once, and the block is neither copied
// nor printed through fmt, either of which costs an allocation per
// line.
func TestFingerprintAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	p, err := workload.BenchmarkByName("099.go")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.ByKey("4c2l")
	if err != nil {
		t.Fatal(err)
	}
	req := &Request{SB: p.GenerateBlock(3, 0), Machine: m, PinSeed: 1}
	const ceiling = 8
	if n := testing.AllocsPerRun(100, func() { Fingerprint(req) }); n > ceiling {
		t.Fatalf("Fingerprint allocates %.0f times per call, want at most %d", n, ceiling)
	}
}
