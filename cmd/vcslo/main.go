// Command vcslo replays the checked-in declarative scenario suite
// (scenarios/*.json) through the in-process load harness
// (internal/loadsim) and records the measured service-level objectives
// — latency percentiles, cache hit rate, shed rate, taxonomy histogram
// and hard-failure count — in one JSON document.
//
//	go run ./cmd/vcslo -suite scenarios -out results/slo/BENCH_service.json
//
// The suite runs on a virtual clock and repeats exactly, so
// cmd/benchgate -service (make slo-short) requires the document to
// equal the checked-in golden BENCH_service.json in every field but
// `version`; a change that moves an SLO re-records the golden file with
// -out BENCH_service.json. vcslo itself exits non-zero when any
// scenario hard-fails or cannot run — a hollow-worker scenario has no
// excuse for either.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"vcsched/internal/loadsim"
	"vcsched/internal/stats"
	"vcsched/internal/version"
)

func main() {
	suiteDir := flag.String("suite", "scenarios", "directory of scenario *.json files")
	scenario := flag.String("scenario", "", "run a single scenario file instead of the suite")
	out := flag.String("out", "BENCH_service.json", "where to write the SLO document (\"-\" = stdout)")
	runs := flag.Int("runs", 1, "repetitions per scenario; counters sum, latencies pool")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("vcslo", version.String())
		return
	}
	if *runs < 1 {
		fatal(fmt.Errorf("-runs must be at least 1"))
	}

	suite, err := loadSuite(*suiteDir, *scenario)
	if err != nil {
		fatal(err)
	}
	doc, hardFailures, err := runSuite(suite, *runs)
	if err != nil {
		fatal(err)
	}
	for i := range doc.Scenarios {
		doc.Scenarios[i].WriteSummary(os.Stdout)
	}
	fmt.Printf("vcslo %s: %d scenarios, %d runs each, pooled p99 %.3fms\n",
		version.String(), len(doc.Scenarios), *runs, pooledP99(doc))

	if err := writeDoc(*out, doc); err != nil {
		fatal(err)
	}
	if hardFailures > 0 {
		fmt.Fprintf(os.Stderr, "vcslo: %d hard failures across the suite\n", hardFailures)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vcslo:", err)
	os.Exit(1)
}

func loadSuite(dir, single string) ([]*loadsim.Scenario, error) {
	if single != "" {
		sc, err := loadsim.LoadScenario(single)
		if err != nil {
			return nil, err
		}
		return []*loadsim.Scenario{sc}, nil
	}
	return loadsim.LoadSuite(dir)
}

// runSuite executes every scenario runs times and merges the
// repetitions into one report per scenario, in suite order.
func runSuite(suite []*loadsim.Scenario, runs int) (*loadsim.Document, int, error) {
	doc := &loadsim.Document{Version: version.String()}
	hardFailures := 0
	for _, sc := range suite {
		reps := make([]*loadsim.Report, 0, runs)
		for r := 0; r < runs; r++ {
			rep, err := loadsim.Run(sc)
			if err != nil {
				return nil, 0, err
			}
			reps = append(reps, rep)
		}
		merged, err := loadsim.Merge(reps)
		if err != nil {
			return nil, 0, err
		}
		hardFailures += merged.HardFailures
		doc.Scenarios = append(doc.Scenarios, *merged)
	}
	return doc, hardFailures, nil
}

// pooledP99 computes the suite-wide p99 over every scenario's raw
// latency sample — one headline number for the whole run.
func pooledP99(doc *loadsim.Document) float64 {
	var all []time.Duration
	for i := range doc.Scenarios {
		all = append(all, doc.Scenarios[i].Latencies...)
	}
	return stats.Millis(stats.Percentile(stats.Sort(all), 0.99))
}

func writeDoc(path string, doc *loadsim.Document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
