package difftest

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/workload"
)

// TestCheckCleanOnKnownBlocks: the harness must report nothing on the
// paper's worked example and a spread of generated corpus blocks across
// all three evaluation machines, and on every one of those blocks on
// two heterogeneous machines (the paper's §2.1 extension) — any
// violation here is a bug in either the schedulers or the harness
// itself.
func TestCheckCleanOnKnownBlocks(t *testing.T) {
	machines := machine.EvaluationConfigs()
	g := NewGen(11, 0)
	blocks := []*ir.Superblock{ir.PaperFigure1()}
	for i := 0; i < 9; i++ {
		blocks = append(blocks, g.Next())
	}
	check := func(sb *ir.Superblock, m *machine.Config) {
		t.Helper()
		rep := Check(sb, Options{Machine: m})
		for _, v := range rep.Violations {
			t.Errorf("%s on %s: %s", sb.Name, m.Name, v)
		}
	}
	for i, sb := range blocks {
		check(sb, machines[i%len(machines)])
	}

	fat := fatInt0()
	// Cluster 1 has no mem or fp units.
	thin := machine.TwoCluster1Lat()
	thin.Name = "2clust 1b 1lat nomemfp1"
	var intOnly [ir.NumClasses]int
	intOnly[ir.Int], intOnly[ir.Branch] = 1, 1
	thin.SetClusterFU(1, intOnly)
	for _, m := range []*machine.Config{fat, thin} {
		for _, sb := range blocks {
			check(sb, m)
		}
	}
}

// fatInt0 is 2c1l with a fat cluster 0, two int units beside a thin
// cluster 1.
func fatInt0() *machine.Config {
	fat := machine.TwoCluster1Lat()
	fat.Name = "2clust 1b 1lat int0x2"
	fu := fat.FU
	fu[ir.Int] = 2
	fat.SetClusterFU(0, fu)
	return fat
}

// TestFatClusterMatchesPlainMachine: every 2c1l schedule is valid on
// the fat machine, and on 130.li.sb0140 (pin seed 0, 20,000 steps) the
// search finds one as good, AWCT 8.544, in 236 steps. It depends on the
// rule that a virtual cluster holds no more co-issued ints than the
// fattest cluster has units; without it the search settled for 10.022.
func TestFatClusterMatchesPlainMachine(t *testing.T) {
	g := NewGen(11, 0)
	var sb *ir.Superblock
	for i := 0; i < 9 && (sb == nil || sb.Name != "130.li.sb0140"); i++ {
		sb = g.Next()
	}
	if sb.Name != "130.li.sb0140" {
		t.Fatalf("generator seed 11 no longer draws 130.li.sb0140 among its first 9 blocks")
	}
	opts := core.Options{Pins: workload.PinsFor(sb, 2, 0), MaxSteps: 20000}
	plain, _, err := core.Schedule(sb, machine.TwoCluster1Lat(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, st, err := core.Schedule(sb, fatInt0(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.AWCT()-8.544) > eps || math.Abs(plain.AWCT()-8.544) > eps || st.StepsSpent != 236 {
		t.Errorf("fat machine: AWCT %.3f in %d steps, plain 2c1l %.3f; want 8.544 in 236 steps on both",
			s.AWCT(), st.StepsSpent, plain.AWCT())
	}
}

// TestCheckPaperExampleSection5 pins the harness to the worked example
// on its own machine, where the schedule is known optimal-ish and every
// cross-check path (multi-exit, comms, live values) is exercised.
func TestCheckPaperExampleSection5(t *testing.T) {
	rep := Check(ir.PaperFigure1(), Options{Machine: machine.PaperExampleSection5()})
	if rep.VCErr != nil {
		t.Fatalf("scheduler failed: %v", rep.VCErr)
	}
	for _, v := range rep.Violations {
		t.Errorf("unexpected violation: %s", v)
	}
}

// TestSmallBlockAlwaysValid: the small-block generator must stay inside
// the superblock contract, including the exit total order.
func TestSmallBlockAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		sb := SmallBlock(rng)
		if err := sb.Validate(); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if !sb.ExitOrderOK() {
			t.Fatalf("block %d (%s): exits not totally ordered", i, sb.Name)
		}
	}
}

// TestMutatorsPreserveContract: every non-nil mutation result is a valid
// superblock with ordered exits, across all mutators and positions.
func TestMutatorsPreserveContract(t *testing.T) {
	g := NewGen(17, 0)
	check := func(sb *ir.Superblock, what string) {
		t.Helper()
		if sb == nil {
			return
		}
		if err := sb.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !sb.ExitOrderOK() {
			t.Fatalf("%s: exits not totally ordered", what)
		}
	}
	for i := 0; i < 20; i++ {
		sb := g.Next()
		for u := 0; u < sb.N(); u++ {
			check(DropInstr(sb, u), "DropInstr")
			check(SetLatency(sb, u, 1), "SetLatency")
		}
		for ei := range sb.Edges {
			check(DropEdge(sb, ei), "DropEdge")
		}
		for li := range sb.LiveIns {
			check(DropLiveIn(sb, li), "DropLiveIn")
			for ci := range sb.LiveIns[li].Consumers {
				check(DropLiveInConsumer(sb, li, ci), "DropLiveInConsumer")
			}
		}
		for oi := range sb.LiveOuts {
			check(DropLiveOut(sb, oi), "DropLiveOut")
		}
	}
}

// TestShrinkMinimizes: shrinking against a simple structural predicate
// must reach the predicate's floor, not stop at a local plateau far
// above it.
func TestShrinkMinimizes(t *testing.T) {
	g := NewGen(23, 0)
	var sb *ir.Superblock
	for sb == nil || sb.N() < 12 {
		sb = g.Next()
	}
	pred := func(cand *ir.Superblock) bool { return cand.N() >= 3 }
	min := Shrink(sb, pred)
	if !pred(min) {
		t.Fatal("shrink result violates the predicate")
	}
	if min.N() != 3 {
		t.Errorf("shrunk to %d instructions, want the predicate floor 3", min.N())
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("shrunk block invalid: %v", err)
	}
}

// TestInjectedBugCaughtAndShrunk is the end-to-end acceptance property:
// a fault injected into the scheduler's output (dropping its last
// inter-cluster communication) must be caught by the cross-checks and
// shrunk to a reproducer of at most 6 instructions that round-trips
// through the repro file format and replays.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	dir := t.TempDir()
	dropComm := func(s *sched.Schedule) {
		if len(s.Comms) > 0 {
			s.Comms = s.Comms[:len(s.Comms)-1]
		}
	}
	out, err := Fuzz(Config{
		Seed:          41,
		Budget:        120,
		Machines:      []*machine.Config{machine.TwoCluster1Lat()},
		ReproDir:      dir,
		MaxViolations: 1,
		CorruptVC:     dropComm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violating) == 0 {
		t.Fatalf("injected bug never caught in %d blocks", out.Checked)
	}
	rep := out.Violating[0]
	if !rep.Has(KindValidate) && !rep.Has(KindSim) {
		t.Errorf("expected a validate or sim violation, got %v", rep.Violations)
	}
	if rep.SB.N() > 6 {
		t.Errorf("shrunk reproducer has %d instructions, want <= 6", rep.SB.N())
	}
	if len(out.ReproFiles) != 1 {
		t.Fatalf("repro files: %v", out.ReproFiles)
	}

	// The repro file must load and, without the injected fault, replay
	// clean — the bug lives in the hook, not the scheduler.
	r, err := ReadReproFile(out.ReproFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) == 0 {
		t.Error("repro file records no violation")
	}
	replayed, err := r.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed.Violations) != 0 {
		t.Errorf("clean replay still violates: %v", replayed.Violations)
	}
}

// TestReproRoundTrip: Write then ReadRepro recovers every field and the
// identical superblock text.
func TestReproRoundTrip(t *testing.T) {
	r := &Repro{
		SB:          ir.PaperFigure1(),
		MachineKey:  "4c2l",
		PinSeed:     9,
		MaxSteps:    12345,
		OracleLimit: 7,
		Violations:  []string{"oracle: VC AWCT 9 beats exhaustive optimum 8"},
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineKey != r.MachineKey || got.PinSeed != r.PinSeed ||
		got.MaxSteps != r.MaxSteps || got.OracleLimit != r.OracleLimit {
		t.Errorf("header mismatch: %+v vs %+v", got, r)
	}
	if len(got.Violations) != 1 || got.Violations[0] != r.Violations[0] {
		t.Errorf("violations = %v", got.Violations)
	}
	if got.SB.String() != r.SB.String() {
		t.Errorf("superblock round trip changed:\n%s\nvs\n%s", got.SB, r.SB)
	}
	// And the body alone still parses as a plain .sb stream.
	if _, err := ir.Parse(buf.String()); err != nil {
		t.Errorf("repro not loadable as a plain superblock: %v", err)
	}
	// Files from older writers keep loading: their "# nogood 1" header
	// armed a cross-check of the removed conflict-learning layer, their
	// "# parallelism N" header set the width of the removed
	// serial-vs-parallel check, and their "# resilient 1" header armed
	// the ladder cross-checks that now always run. All must parse and be
	// ignored.
	legacy := strings.Replace(buf.String(), "# vcfuzz-repro v1\n", "# vcfuzz-repro v1\n# nogood 1\n# parallelism 4\n# resilient 1\n", 1)
	if legacy == buf.String() {
		t.Fatal("repro lacks the magic header line")
	}
	old, err := ReadRepro(strings.NewReader(legacy))
	if err != nil {
		t.Fatalf("repro with legacy nogood, parallelism and resilient headers: %v", err)
	}
	if !reflect.DeepEqual(old, got) {
		t.Errorf("legacy headers changed the repro: %+v vs %+v", old, got)
	}
}

// TestReproCorpusReplaysClean: every checked-in reproducer under
// testdata/repros (minimized fuzzing finds whose bugs are fixed) must
// replay without violations. A regression resurfaces here first.
func TestReproCorpusReplaysClean(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "repros", "*.sb"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in repros; the corpus directory is part of the harness")
	}
	for _, path := range paths {
		r, err := ReadReproFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Replay()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", filepath.Base(path), v)
		}
	}
}

// TestRescaleProbs: the metamorphic transform preserves validity and
// moves probability mass exactly where documented.
func TestRescaleProbs(t *testing.T) {
	sb := ir.PaperFigure1()
	cp := RescaleProbs(sb, 0.5)
	if cp == nil {
		t.Fatal("multi-exit block rescaled to nil")
	}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	exits := sb.Exits()
	for _, x := range exits[:len(exits)-1] {
		if got, want := cp.Instrs[x].Prob, sb.Instrs[x].Prob*0.5; got != want {
			t.Errorf("exit %d prob = %g, want %g", x, got, want)
		}
	}
	// Single exit: identity, signalled by nil.
	single := ir.NewBuilder("one")
	single.Exit("b", 1, 0)
	one := single.MustFinishWithProbs([]float64{1})
	if RescaleProbs(one, 0.5) != nil {
		t.Error("single-exit rescale should be nil")
	}
}

// TestFuzzSmokeClean: a short unhooked campaign over all machines finds
// nothing and writes nothing.
func TestFuzzSmokeClean(t *testing.T) {
	dir := t.TempDir()
	out, err := Fuzz(Config{Seed: 5, Budget: 12, ReproDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Violating) != 0 {
		for _, rep := range out.Violating {
			for _, v := range rep.Violations {
				t.Errorf("%s: %s", rep.SB.Name, v)
			}
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Errorf("clean run left files: %v", entries)
	}
	if out.Scheduled == 0 {
		t.Error("no block scheduled at all; budget too small or scheduler broken")
	}
}

// TestReadReproRejectsGarbage: missing magic or malformed headers fail
// loudly instead of replaying a half-parsed repro.
func TestReadReproRejectsGarbage(t *testing.T) {
	if _, err := ReadRepro(strings.NewReader("superblock x 1\ninst 0 I 1 0\n")); err == nil {
		t.Error("accepted a repro without the magic header")
	}
	if _, err := ReadRepro(strings.NewReader("# vcfuzz-repro v1\n# maxsteps nope\nsuperblock x 1\n")); err == nil {
		t.Error("accepted a malformed maxsteps header")
	}
	if _, err := ReadRepro(strings.NewReader("# vcfuzz-repro v2\nsuperblock x 1\n")); err == nil {
		t.Error("accepted an unknown repro version")
	}
}
