// Command vcfuzz runs the differential fuzzing harness of
// internal/difftest: it generates random superblocks, schedules each
// with the virtual-cluster scheduler and with the degradation ladder,
// and cross-checks the results against the static validator, the
// lockstep simulator, the exhaustive oracle, CARS and the parallel
// portfolio driver, plus metamorphic invariants.
// Violations are shrunk to minimal reproducers and written as
// self-contained .sb files.
//
//	go run ./cmd/vcfuzz -budget 2000 -seed 1 -out results/repros
//
// Replaying a reproducer re-runs the exact recorded check:
//
//	go run ./cmd/vcfuzz -replay results/repros/repro_0012_validate.sb
//
// The exit status is 0 for a clean run (or a replay with no violations)
// and 1 when violations were found, so the command composes with CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vcsched/internal/difftest"
	"vcsched/internal/machine"
	"vcsched/internal/version"
)

func main() {
	budget := flag.Int("budget", 500, "number of random superblocks to check")
	seed := flag.Int64("seed", 1, "generator seed (same seed, same corpus)")
	machines := flag.String("machines", "2c1l,4c1l,4c2l", "comma-separated machine keys to cycle through")
	maxInstrs := flag.Int("maxinstrs", 0, "largest generated block (0 = default 40)")
	steps := flag.Int("steps", 0, "deduction step budget per scheduling attempt (0 = default 20000)")
	parallel := flag.Int("parallel", 0, "portfolio width for the serial-vs-parallel check (0 = default 4, <0 disables)")
	oracleLim := flag.Int("oracle", 0, "largest block cross-checked against the exhaustive oracle (0 = default 8, <0 disables)")
	pinSeed := flag.Int64("pinseed", 0, "live-in/live-out pin seed")
	out := flag.String("out", "results/repros", "directory for shrunken reproducer .sb files (empty = don't write)")
	maxViol := flag.Int("maxviolations", 0, "stop after this many violating blocks (0 = run the full budget)")
	replay := flag.String("replay", "", "replay one reproducer file instead of fuzzing")
	verbose := flag.Bool("v", false, "log every violation and progress line")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vcfuzz", version.String())
		return
	}

	if *replay != "" {
		os.Exit(replayFile(*replay))
	}

	var ms []*machine.Config
	for _, key := range strings.Split(*machines, ",") {
		m, err := machine.ByKey(strings.TrimSpace(key))
		if err != nil {
			fatal(err)
		}
		ms = append(ms, m)
	}

	logf := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	}
	if !*verbose {
		logf = nil
	}
	start := time.Now()
	outcome, err := difftest.Fuzz(difftest.Config{
		Seed:          *seed,
		Budget:        *budget,
		Machines:      ms,
		MaxInstrs:     *maxInstrs,
		PinSeed:       *pinSeed,
		MaxSteps:      *steps,
		Parallelism:   *parallel,
		Resilient:     true,
		OracleLimit:   *oracleLim,
		ReproDir:      *out,
		MaxViolations: *maxViol,
		Log:           logf,
	})
	if err != nil {
		fatal(err)
	}
	el := time.Since(start).Round(time.Millisecond)
	fmt.Printf("vcfuzz: %d blocks checked in %v (%d scheduled, %d exhausted): %d violations\n",
		outcome.Checked, el, outcome.Scheduled, outcome.Exhausted, len(outcome.Violating))
	for i, rep := range outcome.Violating {
		fmt.Printf("  violation %d: %s (%d instructions after shrinking)\n",
			i+1, rep.SB.Name, rep.SB.N())
		for _, v := range rep.Violations {
			fmt.Printf("    %s\n", firstLine(v.String()))
		}
		if i < len(outcome.ReproFiles) {
			fmt.Printf("    repro: %s\n", outcome.ReproFiles[i])
		}
	}
	if len(outcome.Violating) > 0 {
		os.Exit(1)
	}
}

func replayFile(path string) int {
	r, err := difftest.ReadReproFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %s: %s on %s (pinseed %d, steps %d, parallel %d, oracle %d)\n",
		path, r.SB.Name, r.MachineKey, r.PinSeed, r.MaxSteps, r.Parallelism, r.OracleLimit)
	for _, v := range r.Violations {
		fmt.Printf("  recorded: %s\n", v)
	}
	rep, err := r.Replay()
	if err != nil {
		fatal(err)
	}
	if len(rep.Violations) == 0 {
		fmt.Println("replay clean: no violations")
		return 0
	}
	for _, v := range rep.Violations {
		fmt.Printf("  reproduced: %s\n", firstLine(v.String()))
	}
	return 1
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcfuzz:", err)
	os.Exit(1)
}
