package ir_test

import (
	"runtime"
	"strings"
	"testing"

	"vcsched/internal/difftest"
	"vcsched/internal/ir"
	"vcsched/internal/workload"
)

// reverseEdges re-declares sb's dependences in reverse order, so the
// canonical printer has to permute them back.
func reverseEdges(t *testing.T, sb *ir.Superblock) *ir.Superblock {
	t.Helper()
	var deps, rest []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "dep ") {
			deps = append(deps, line)
		} else {
			rest = append(rest, line)
		}
	}
	for i, j := 0, len(deps)-1; i < j; i, j = i+1, j-1 {
		deps[i], deps[j] = deps[j], deps[i]
	}
	out, err := ir.Parse(strings.Join(append(rest, deps...), "\n"))
	if err != nil {
		t.Fatalf("%s with reversed edges: %v", sb.Name, err)
	}
	return out
}

// TestPrinterMatchesReference holds the append printer to the fmt-based
// reference, plain and canonical, on the fixtures, the paper-profile
// blocks the compile benchmark schedules, and generated blocks, each
// also with its edges declared in reverse.
func TestPrinterMatchesReference(t *testing.T) {
	blocks := []*ir.Superblock{ir.PaperFigure1(), ir.Diamond(), ir.Straight(8), ir.Wide(6)}
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < 10; idx++ {
			blocks = append(blocks, p.GenerateBlock(idx, 0))
		}
	}
	g := difftest.NewGen(1, 40)
	for i := 0; i < 300; i++ {
		blocks = append(blocks, g.Next())
	}
	for _, sb := range blocks {
		ir.CheckPrinter(t, sb)
		rev := reverseEdges(t, sb)
		ir.CheckPrinter(t, rev)
		if got, want := string(rev.AppendCanonical(nil)), string(sb.AppendCanonical(nil)); got != want {
			t.Fatalf("%s: edge declaration order changed the canonical text:\n%s\nvs\n%s", sb.Name, got, want)
		}
	}
}

// TestParseBytesPerCall bounds what ir.Parse allocates for one 885-byte
// paper-profile block. The scanner's buffer must start small and grow
// only for long lines: a 64 KiB start buffer alone would exceed the
// bound. AllocsPerRun cannot see that, as the buffer is one allocation.
func TestParseBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	p, err := workload.BenchmarkByName("099.go")
	if err != nil {
		t.Fatal(err)
	}
	text := p.GenerateBlock(3, 0).String()
	const runs = 200
	const maxBytes = 24 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := ir.Parse(text); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytes {
		t.Fatalf("ir.Parse of a %d-byte block allocates %d bytes per call, want at most %d", len(text), per, maxBytes)
	}
}
