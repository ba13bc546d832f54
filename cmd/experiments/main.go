// Command experiments regenerates the paper's evaluation figures on the
// synthetic benchmark corpus:
//
//	go run ./cmd/experiments -fig all -scale 0.5
//
// Figures 10 and 11 share one full scheduling sweep; Figure 12 reruns
// three benchmarks with a second profiling input. Output goes to stdout
// (or -out).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vcsched/internal/bench"
	"vcsched/internal/version"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11, 12 or all")
	scale := flag.Float64("scale", 0.5, "corpus scale factor (1.0 = paper-sized run)")
	seed := flag.Int64("seed", 1, "live-in/live-out pin seed")
	workers := flag.Int("workers", 0, "parallel scheduling workers (0 = NumCPU)")
	out := flag.String("out", "", "write output to this file instead of stdout")
	t1 := flag.Duration("t1", 100*time.Millisecond, "scaled '1 second' threshold")
	t2 := flag.Duration("t2", 1*time.Second, "scaled '1 minute' threshold")
	t3 := flag.Duration("t3", 3*time.Second, "scaled '4 minute' threshold")
	verbose := flag.Bool("v", false, "progress output")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("experiments", version.String())
		return
	}
	switch *fig {
	case "10", "11", "12", "all":
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown -fig %q (want 10, 11, 12 or all)\n", *fig)
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	cfg := bench.Config{
		Scale:      *scale,
		Seed:       *seed,
		Workers:    *workers,
		Verbose:    *verbose,
		Thresholds: []time.Duration{*t1, *t2, *t3},
	}

	start := time.Now()
	needSweep := *fig == "all" || *fig == "10" || *fig == "11"
	if needSweep {
		results, err := bench.RunAll(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *fig == "all" || *fig == "10" {
			bench.Figure10(w, cfg, results)
		}
		if *fig == "all" || *fig == "11" {
			bench.Figure11(w, cfg, results)
		}
	}
	if *fig == "all" || *fig == "12" {
		if err := bench.Figure12(w, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(w, "total harness time: %v (scale %.2f)\n", time.Since(start).Round(time.Second), *scale)
}
