// Command benchgate compares a freshly recorded benchmark document
// (benchjson output, e.g. results/bench/BENCH_deduce.json) against a
// checked-in baseline (BENCH_baseline.json) and exits non-zero when
// any benchmark regressed beyond its tolerance band.
//
// The two metrics have very different noise profiles, so they get
// separate bands:
//
//   - allocs/op is deterministic for this codebase (the allocation
//     count of a fixed workload does not depend on machine load), so
//     the default band is tight. A regression here means code started
//     allocating on the hot path again — exactly what the arena/bitset
//     state exists to prevent.
//   - ns/op on shared CI runners is noisy, so its default band is wide;
//     it only catches order-of-magnitude cliffs, not percent-level
//     drift. Tighten it locally via -ns-tol for real measurements.
//
// A benchmark present in the baseline but missing from the current
// document fails the gate (lost coverage); one present only in the
// current document passes with a note (update the baseline to start
// gating it).
//
//	benchgate -current results/bench/BENCH_deduce.json
//
// With -service the gate checks service-level objectives instead: it
// compares a document recorded by cmd/vcslo against the checked-in
// golden BENCH_service.json. The scenario suite runs on a virtual clock
// and repeats exactly, so there are no tolerance bands:
//
//   - every field of every golden scenario must equal the current
//     run's, and both documents must name the same scenarios; only the
//     document's version stamp may differ. A change that moves an SLO
//     number re-records the golden file and says why;
//
//   - the hard-failure count must be zero, golden or not. Chaos
//     scenarios report deliberately injected failures separately
//     (injected/poisoned), so this stays an escaped-failure gate;
//
//   - watchdog leaks and warm/cold identity violations must likewise
//     be zero — a watchdog-killed execution still running at drain or
//     a warm result that differs from its cold bytes is broken
//     whatever the golden file says.
//
//     benchgate -service -current results/slo/BENCH_service.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"vcsched/internal/loadsim"
	"vcsched/internal/version"
)

// benchDoc mirrors benchjson's output document.
type benchDoc struct {
	Version    string  `json:"version"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	N        int64   `json:"n"`
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

func main() {
	service := flag.Bool("service", false, "gate service-level SLOs (vcslo documents) instead of microbenchmarks")
	baselinePath := flag.String("baseline", "", "checked-in baseline document (default BENCH_baseline.json; the golden BENCH_service.json with -service)")
	currentPath := flag.String("current", "", "freshly recorded document (required)")
	allocsTol := flag.Float64("allocs-tol", 0.10, "allowed fractional allocs/op increase over baseline")
	nsTol := flag.Float64("ns-tol", 1.50, "allowed fractional ns/op increase over baseline")
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("benchgate", version.String())
		return
	}
	if *baselinePath == "" {
		if *service {
			*baselinePath = "BENCH_service.json"
		} else {
			*baselinePath = "BENCH_baseline.json"
		}
	}
	if *currentPath == "" {
		fatal(errors.New("-current is required: the baseline is the checked-in document, not a fresh run"))
	}

	var violations, notes []string
	var gated int
	if *service {
		golden, err := readServiceDoc(*baselinePath)
		if err != nil {
			fatal(err)
		}
		current, err := readServiceDoc(*currentPath)
		if err != nil {
			fatal(err)
		}
		violations = gateService(golden, current)
		gated = len(golden.Scenarios)
	} else {
		baseline, err := readDoc(*baselinePath)
		if err != nil {
			fatal(err)
		}
		current, err := readDoc(*currentPath)
		if err != nil {
			fatal(err)
		}
		violations, notes = gate(baseline, current, *allocsTol, *nsTol)
		gated = len(baseline.Benchmarks)
	}
	for _, n := range notes {
		fmt.Println("benchgate:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", v)
		}
		os.Exit(1)
	}
	if *service {
		fmt.Printf("benchgate: %d scenarios equal the golden document (version aside); hard failures, watchdog leaks and identity violations 0\n", gated)
	} else {
		fmt.Printf("benchgate: %d benchmarks within tolerance (allocs +%.0f%%, ns +%.0f%%)\n",
			gated, 100**allocsTol, 100**nsTol)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

func readDoc(path string) (*benchDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc benchDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// gate compares every baseline benchmark against the current document
// and returns the tolerance violations plus informational notes.
func gate(baseline, current *benchDoc, allocsTol, nsTol float64) (violations, notes []string) {
	cur := make(map[string]bench, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		cur[b.Name] = b
	}
	seen := make(map[string]bool, len(baseline.Benchmarks))
	for _, base := range baseline.Benchmarks {
		seen[base.Name] = true
		got, ok := cur[base.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in baseline but not in current run (lost coverage)", base.Name))
			continue
		}
		if base.AllocsOp >= 0 && got.AllocsOp >= 0 {
			if limit := base.AllocsOp * (1 + allocsTol); got.AllocsOp > limit {
				violations = append(violations,
					fmt.Sprintf("%s: allocs/op %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
						base.Name, got.AllocsOp, base.AllocsOp, 100*allocsTol, limit))
			}
		}
		if limit := base.NsOp * (1 + nsTol); got.NsOp > limit {
			violations = append(violations,
				fmt.Sprintf("%s: ns/op %.1f exceeds baseline %.1f by more than %.0f%% (limit %.1f)",
					base.Name, got.NsOp, base.NsOp, 100*nsTol, limit))
		}
	}
	for _, b := range current.Benchmarks {
		if !seen[b.Name] {
			notes = append(notes,
				fmt.Sprintf("%s: not in baseline, not gated (add it to BENCH_baseline.json)", b.Name))
		}
	}
	return violations, notes
}

// readServiceDoc reads a vcslo document. A field the code does not know
// is an error, so a golden file can hold nothing the gate ignores.
func readServiceDoc(path string) (*loadsim.Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var doc loadsim.Document
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Scenarios) == 0 {
		return nil, fmt.Errorf("%s: no scenarios", path)
	}
	return &doc, nil
}

// gateService compares the current document with the golden one,
// scenario by scenario and field by field, and applies the zero gates
// to every current scenario, golden or not.
func gateService(golden, current *loadsim.Document) (violations []string) {
	cur := make(map[string]loadsim.Report, len(current.Scenarios))
	for _, r := range current.Scenarios {
		cur[r.Scenario] = r
		violations = append(violations, unconditionalSLOs(r)...)
	}
	known := make(map[string]bool, len(golden.Scenarios))
	for _, want := range golden.Scenarios {
		known[want.Scenario] = true
		got, ok := cur[want.Scenario]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: present in golden document but not in current run (lost coverage)", want.Scenario))
			continue
		}
		violations = append(violations, fieldDiffs(want, got)...)
	}
	for _, r := range current.Scenarios {
		if !known[r.Scenario] {
			violations = append(violations,
				fmt.Sprintf("%s: not in golden document (re-record BENCH_service.json)", r.Scenario))
		}
	}
	return violations
}

// fieldDiffs names every JSON field in which got differs from want.
// Fields are compared in their encoded form, the form the golden file
// stores; an omitted field is a zero value.
func fieldDiffs(want, got loadsim.Report) []string {
	w, g := jsonFields(want), jsonFields(got)
	keys := make([]string, 0, len(w)+len(g))
	for k := range w {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var diffs []string
	for _, k := range keys {
		if !bytes.Equal(w[k], g[k]) {
			diffs = append(diffs, fmt.Sprintf("%s: %s is %s, golden %s", want.Scenario, k, shown(g[k]), shown(w[k])))
		}
	}
	return diffs
}

func jsonFields(r loadsim.Report) map[string]json.RawMessage {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a Report is plain data
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		panic(err)
	}
	return m
}

func shown(v json.RawMessage) string {
	if v == nil {
		return "omitted"
	}
	return string(v)
}

// unconditionalSLOs are the zero gates, which hold with or without a
// golden entry: a scheduler that breaks requests (hard_failures counts
// only failures the chaos layer did NOT inject), leaks a watchdog-
// killed execution, or serves a warm result that is not byte-identical
// to the cold one is broken whatever the golden file says.
func unconditionalSLOs(r loadsim.Report) []string {
	var v []string
	if r.HardFailures > 0 {
		v = append(v, fmt.Sprintf("%s: %d escaped hard failures (must be zero)", r.Scenario, r.HardFailures))
	}
	if r.WatchdogLeaks > 0 {
		v = append(v, fmt.Sprintf("%s: %d watchdog-killed executions still running at drain (must be zero)", r.Scenario, r.WatchdogLeaks))
	}
	if r.IdentityViolations > 0 {
		v = append(v, fmt.Sprintf("%s: %d warm results not byte-identical to cold (must be zero)", r.Scenario, r.IdentityViolations))
	}
	return v
}
