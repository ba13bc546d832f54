// Command benchjson converts `go test -bench` text output (read from
// stdin) into a small stable JSON document, averaging repeated runs of
// one benchmark (-count=N) so CI can record a single number per
// benchmark. Lines that are not benchmark results pass through
// unparsed; the tool never fails on extra output.
//
//	go test -bench=. -benchmem -count=5 ./internal/deduce | benchjson > results/bench/BENCH_deduce.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"vcsched/internal/version"
)

// result is one aggregated benchmark.
type result struct {
	Name     string  `json:"name"`
	Runs     int     `json:"runs"`
	N        int64   `json:"n"`         // iterations of the last run
	NsOp     float64 `json:"ns_op"`     // mean over runs
	BOp      float64 `json:"b_op"`      // mean over runs; -1 when not reported
	AllocsOp float64 `json:"allocs_op"` // mean over runs; -1 when not reported
}

type acc struct {
	runs            int
	n               int64
	ns, b, allocs   float64
	hasB, hasAllocs bool
}

func main() {
	showVersion := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println("benchjson", version.String())
		return
	}

	accs := map[string]*acc{}
	var order []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, n, ns, b, allocs, hasMem, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		a := accs[name]
		if a == nil {
			a = &acc{}
			accs[name] = a
			order = append(order, name)
		}
		a.runs++
		a.n = n
		a.ns += ns
		if hasMem {
			a.b += b
			a.allocs += allocs
			a.hasB, a.hasAllocs = true, true
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// The version stamp ties a BENCH_*.json document to the build that
	// produced it (the Makefile stamps it via -ldflags).
	out := struct {
		Version    string   `json:"version"`
		Benchmarks []result `json:"benchmarks"`
	}{Version: version.String()}
	sort.Strings(order)
	for _, name := range order {
		a := accs[name]
		r := result{
			Name: name, Runs: a.runs, N: a.n,
			NsOp: a.ns / float64(a.runs), BOp: -1, AllocsOp: -1,
		}
		if a.hasB {
			r.BOp = a.b / float64(a.runs)
		}
		if a.hasAllocs {
			r.AllocsOp = a.allocs / float64(a.runs)
		}
		out.Benchmarks = append(out.Benchmarks, r)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine handles the testing package's benchmark result format:
//
//	BenchmarkShave/099.go-8   2805   381463 ns/op   101532 B/op   2541 allocs/op
//
// Everything after the iteration count is scanned as value/unit pairs;
// pairs of any other unit (a custom b.ReportMetric, say) are skipped.
// The trailing -P GOMAXPROCS suffix is stripped so runs on machines of
// different widths aggregate under one name.
func parseLine(line string) (name string, n int64, ns, b, allocs float64, hasMem, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return
	}
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var err error
	if n, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return
	}
	hasNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			ns, hasNs = v, true
		case "B/op":
			b = v
			hasMem = true
		case "allocs/op":
			allocs = v
		}
	}
	ok = hasNs
	return
}
