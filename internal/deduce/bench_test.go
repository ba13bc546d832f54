package deduce_test

// Microbenchmarks of the speculation hot path: Shave (two probes per
// unpinned node per round), a single probe, and the end-to-end block
// schedule. Run via `make bench`, which records the numbers in
// BENCH_deduce.json; EXPERIMENTS.md holds the before/after table
// against the pre-trail Clone-per-probe implementation.

import (
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

func benchBlock(b *testing.B, app string) *ir.Superblock {
	b.Helper()
	p, err := workload.BenchmarkByName(app)
	if err != nil {
		b.Fatalf("no workload %s: %v", app, err)
	}
	return p.Generate(0.05, 0).Blocks[0]
}

func benchDeadlines(sb *ir.Superblock) map[int]int {
	est := sb.EStarts()
	d := make(map[int]int, len(sb.Exits()))
	for _, x := range sb.Exits() {
		d[x] = est[x] + 2
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

func BenchmarkProbeCommit(b *testing.B) {
	for _, app := range []string{"099.go", "130.li"} {
		app := app
		b.Run(app, func(b *testing.B) {
			sb := benchBlock(b, app)
			m := machine.FourCluster1Lat()
			g := sg.Build(sb, m)
			pins := workload.PinsFor(sb, m.Clusters, 1)
			st, err := deduce.NewState(sb, m, g, benchDeadlines(sb), deduce.Options{Pins: pins})
			if err != nil {
				b.Fatal(err)
			}
			node := -1
			for n := 0; n < st.NumNodes(); n++ {
				if !st.Pinned(n) {
					node = n
					break
				}
			}
			if node < 0 {
				b.Skip("no unpinned node")
			}
			cycle := st.Est(node)
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
