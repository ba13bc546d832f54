package bench

import (
	"strings"
	"testing"
	"time"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// smallConfig keeps harness tests fast: two apps, tiny scale, one
// machine.
func smallConfig() Config {
	apps := []workload.AppProfile{}
	for _, name := range []string{"130.li", "g721dec"} {
		p, _ := workload.BenchmarkByName(name)
		apps = append(apps, p)
	}
	return Config{
		Scale:      0.08,
		Seed:       1,
		Thresholds: []time.Duration{50 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second},
		Machines:   []*machine.Config{machine.TwoCluster1Lat()},
		Apps:       apps,
	}
}

func TestRunAllAndPolicies(t *testing.T) {
	cfg := smallConfig()
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0]) != 2 {
		t.Fatalf("results shape: %d machines × %d apps", len(results), len(results[0]))
	}
	for _, a := range results[0] {
		if len(a.Blocks) == 0 {
			t.Fatalf("%s: no blocks", a.App)
		}
		sp := a.Speedup(cfg.Thresholds[2])
		if sp < 0.9 || sp > 1.5 {
			t.Errorf("%s: speedup %g out of plausible range", a.App, sp)
		}
		// The fallback policy can never be worse than pure CARS by more
		// than the VC losses; at threshold 0 it IS pure CARS.
		if got := a.Speedup(0); got != 1.0 {
			t.Errorf("%s: zero-threshold speedup = %g, want exactly 1 (pure CARS)", a.App, got)
		}
		for _, b := range a.Blocks {
			if b.CARSAWCT <= 0 {
				t.Errorf("%s/%s: CARS AWCT %g", a.App, b.Block, b.CARSAWCT)
			}
			if b.VCOK && b.VCAWCT <= 0 {
				t.Errorf("%s/%s: VC AWCT %g", a.App, b.Block, b.VCAWCT)
			}
			if b.UseVC(0) {
				t.Errorf("%s/%s: UseVC(0) true", a.App, b.Block)
			}
		}
	}
	// CompiledWithin is monotone in the threshold and CARS-side ≈ 1 for
	// a generous threshold.
	prev := -1.0
	for _, th := range cfg.Thresholds {
		f := CompiledWithin(results[0], th, true)
		if f < prev {
			t.Errorf("VC compiled-within not monotone: %g after %g", f, prev)
		}
		prev = f
	}
	if f := CompiledWithin(results[0], time.Minute, false); f != 1.0 {
		t.Errorf("CARS compiled-within(1m) = %g, want 1", f)
	}
}

// TestBadBlockSkippedNotFatal: a superblock the baseline scheduler
// cannot handle (an FP instruction on a machine with no FP units) is
// recorded as skipped instead of panicking, and every aggregate
// excludes it.
func TestBadBlockSkippedNotFatal(t *testing.T) {
	var fu [ir.NumClasses]int
	fu[ir.Int], fu[ir.Mem], fu[ir.Branch] = 2, 1, 1 // no FP units
	m := &machine.Config{Name: "nofp", Clusters: 2, Buses: 1, BusLatency: 1, FU: fu}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	b := ir.NewBuilder("needs-fp")
	f := b.Instr("f", ir.FP, 2)
	x := b.Exit("x", 1, 1.0)
	b.Data(f, x)
	bad := b.MustFinish()

	r := runBlock(bad, m, Config{Seed: 1}, time.Second)
	if !r.Skipped() {
		t.Fatalf("block with unschedulable FP instr not skipped: %+v", r)
	}
	if !strings.Contains(r.Err, "CARS failed") {
		t.Errorf("Err = %q, want a CARS failure", r.Err)
	}
	if r.UseVC(time.Minute) {
		t.Error("skipped block reports UseVC")
	}

	// A good block alongside the bad one: the aggregates must equal the
	// good block alone.
	gb := ir.NewBuilder("fine")
	i1 := gb.Instr("i1", ir.Int, 1)
	x2 := gb.Exit("x2", 1, 1.0)
	gb.Data(i1, x2)
	good := runBlock(gb.MustFinish(), m, Config{Seed: 1}, time.Second)
	if good.Skipped() {
		t.Fatalf("integer-only block skipped: %q", good.Err)
	}

	app := AppResult{App: "mixed", Blocks: []BlockResult{good, r}}
	only := AppResult{App: "good-only", Blocks: []BlockResult{good}}
	if app.TC(time.Minute) != only.TC(time.Minute) || app.TCBaseline() != only.TCBaseline() {
		t.Errorf("aggregates include skipped block: TC %g vs %g, TCBaseline %g vs %g",
			app.TC(time.Minute), only.TC(time.Minute), app.TCBaseline(), only.TCBaseline())
	}
	if sk := app.SkippedBlocks(); len(sk) != 1 || sk[0].Block != "needs-fp" {
		t.Errorf("SkippedBlocks = %+v, want the one bad block", sk)
	}
	if f := CompiledWithin([]AppResult{app}, time.Minute, false); f != 1.0 {
		t.Errorf("CompiledWithin over skipped blocks = %g, want 1 (skipped excluded)", f)
	}
}

// TestVCFailureKeepsBaseline: when only the VC scheduler fails (here by
// timeout) the block keeps its CARS baseline and records the VC error.
func TestVCFailureKeepsBaseline(t *testing.T) {
	p, _ := workload.BenchmarkByName("099.go")
	app := p.Generate(0.5, 0)
	var big *ir.Superblock
	for _, sb := range app.Blocks {
		if big == nil || sb.N() > big.N() {
			big = sb
		}
	}
	m := machine.TwoCluster1Lat()
	r := runBlock(big, m, Config{Seed: 1}, time.Nanosecond)
	if r.Skipped() {
		t.Fatalf("CARS side unexpectedly failed: %q", r.Err)
	}
	if r.VCOK || r.VCErr == "" {
		t.Fatalf("VC side should have timed out: VCOK=%v VCErr=%q", r.VCOK, r.VCErr)
	}
	if r.CARSAWCT <= 0 {
		t.Errorf("baseline lost: CARSAWCT = %g", r.CARSAWCT)
	}
	if r.UseVC(time.Minute) {
		t.Error("UseVC true despite VC failure")
	}
}

func TestFigureRendering(t *testing.T) {
	cfg := smallConfig()
	results, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb10, sb11 strings.Builder
	Figure10(&sb10, cfg, results)
	if !strings.Contains(sb10.String(), "Figure 10") || !strings.Contains(sb10.String(), "CARS") {
		t.Errorf("figure 10 output malformed:\n%s", sb10.String())
	}
	Figure11(&sb11, cfg, results)
	out := sb11.String()
	for _, want := range []string{"Figure 11", "130.li", "g721dec", "Spec Mean", "Media Mean", "Mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 11 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure12CrossInput(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-input sweep is slow")
	}
	p, _ := workload.BenchmarkByName("130.li")
	cfg := smallConfig()
	app0 := p.Generate(cfg.Scale, 0)
	app1 := p.Generate(cfg.Scale, 1)
	res := RunApp(app0, machine.TwoCluster1Lat(), cfg)
	tcVC, tcCARS := EvalCrossInput(res, app1, cfg.Thresholds[1])
	if tcVC <= 0 || tcCARS <= 0 {
		t.Fatalf("cross-input TCs: VC=%g CARS=%g", tcVC, tcCARS)
	}
	ratio := tcCARS / tcVC
	if ratio < 0.85 || ratio > 1.5 {
		t.Errorf("cross-input speedup %g implausible", ratio)
	}
}
