package deduce_test

// Microbenchmarks of the speculation hot path: Shave (two probes per
// unpinned node per round), a single probe, and the end-to-end block
// schedule. Run via `make bench`, which records the numbers in
// results/bench/BENCH_deduce.json; EXPERIMENTS.md holds the
// before/after tables.
// TestProbeCommitAllocs pins the single probe at zero allocations, and
// TestRestoreAllocs a decision undone by Restore.

import (
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

func benchBlock(tb testing.TB, app string) *ir.Superblock {
	tb.Helper()
	p, err := workload.BenchmarkByName(app)
	if err != nil {
		tb.Fatalf("no workload %s: %v", app, err)
	}
	return p.Generate(0.05, 0).Blocks[0]
}

func benchDeadlines(sb *ir.Superblock) []int {
	est := sb.EStarts()
	d := make([]int, len(sb.Exits()))
	for i, x := range sb.Exits() {
		d[i] = est[x] + 2
	}
	return d
}

func BenchmarkShave(b *testing.B) {
	for _, app := range []string{"099.go", "130.li"} {
		app := app
		b.Run(app, func(b *testing.B) {
			sb := benchBlock(b, app)
			m := machine.FourCluster1Lat()
			g := sg.Build(sb, m)
			deadlines := benchDeadlines(sb)
			pins := workload.PinsFor(sb, m.Clusters, 1)
			// States are sequential here, exactly like the core driver's
			// probe/attempt sequence, so they share one arena.
			ar := deduce.NewArena()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := deduce.NewState(sb, m, g, deadlines, deduce.Options{Pins: pins, Arena: ar})
				if err != nil {
					b.Fatal(err)
				}
				if err := st.Shave(2); err != nil && !deduce.IsContradiction(err) {
					b.Fatal(err)
				}
			}
		})
	}
}

// probeCommitState builds BenchmarkProbeCommit's subject: a state of
// the app's first block on the 4-cluster machine, and its first
// unpinned node with that node's earliest start, the probe's FixCycle.
func probeCommitState(tb testing.TB, app string) (st *deduce.State, node, cycle int) {
	tb.Helper()
	sb := benchBlock(tb, app)
	m := machine.FourCluster1Lat()
	g := sg.Build(sb, m)
	pins := workload.PinsFor(sb, m.Clusters, 1)
	st, err := deduce.NewState(sb, m, g, benchDeadlines(sb), deduce.Options{Pins: pins})
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < st.NumNodes(); n++ {
		if !st.Pinned(n) {
			return st, n, st.Est(n)
		}
	}
	tb.Skip("no unpinned node")
	return nil, 0, 0
}

func BenchmarkProbeCommit(b *testing.B) {
	for _, app := range []string{"099.go", "130.li"} {
		app := app
		b.Run(app, func(b *testing.B) {
			st, node, cycle := probeCommitState(b, app)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := st.Probe(func(s *deduce.State) error { return s.FixCycle(node, cycle) })
				if err != nil && !deduce.IsContradiction(err) {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleBlock(b *testing.B) {
	for _, app := range []string{"099.go", "130.li"} {
		app := app
		b.Run(app, func(b *testing.B) {
			sb := benchBlock(b, app)
			m := machine.FourCluster1Lat()
			pins := workload.PinsFor(sb, m.Clusters, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := core.Schedule(sb, m, core.Options{Pins: pins})
				if err != nil && err != core.ErrExhausted && err != core.ErrTimeout && !deduce.IsContradiction(err) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestProbeCommitAllocs pins BenchmarkProbeCommit's probe on 099.go at
// zero allocations: the trail, the propagation stamps and every rule's
// scratch live on the arena, and consumer lists come from the shared
// index.
func TestProbeCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, node, cycle := probeCommitState(t, "099.go")
	allocs := testing.AllocsPerRun(200, func() {
		err := st.Probe(func(s *deduce.State) error { return s.FixCycle(node, cycle) })
		if err != nil && !deduce.IsContradiction(err) {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Probe(FixCycle(%d,%d)) on 099.go: %v allocations per probe, want 0", node, cycle, allocs)
	}
}

// TestRestoreAllocs pins a decision plus Restore, on the state of
// BenchmarkProbeCommit, at zero allocations: the saved copy lives on
// the arena, so a retry variant starts from its exit vector's setup
// without allocating.
func TestRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	st, node, cycle := probeCommitState(t, "099.go")
	st.Save()
	allocs := testing.AllocsPerRun(50, func() {
		if err := st.FixCycle(node, cycle); err != nil {
			t.Fatal(err)
		}
		st.Restore()
	})
	if allocs != 0 {
		t.Fatalf("FixCycle(%d,%d) and Restore on 099.go: %v allocations per run, want 0", node, cycle, allocs)
	}
}
