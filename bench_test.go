// Package-level benchmarks: one per evaluation figure (regenerating its
// data at reduced scale) plus micro-benchmarks of the scheduler
// components. Run them with
//
//	go test -bench=. -benchmem
//
// Full-scale figure regeneration lives in cmd/experiments.
package vcsched_test

import (
	"io"
	"testing"
	"time"

	"vcsched/internal/bench"
	"vcsched/internal/cars"
	"vcsched/internal/core"
	"vcsched/internal/deduce"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/sg"
	"vcsched/internal/workload"
)

// benchCfg is a reduced-scale harness configuration so the figure
// benchmarks finish in seconds.
func benchCfg() bench.Config {
	apps := []workload.AppProfile{}
	for _, name := range []string{"099.go", "130.li", "epicdec", "g721enc"} {
		p, _ := workload.BenchmarkByName(name)
		apps = append(apps, p)
	}
	return bench.Config{
		Scale:      0.08,
		Thresholds: []time.Duration{50 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second},
		Apps:       apps,
	}
}

// BenchmarkFig10CompileTime regenerates the Figure 10 data: both
// schedulers over the corpus, bucketing blocks by compilation time.
func BenchmarkFig10CompileTime(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		results, err := bench.RunAll(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bench.Figure10(io.Discard, cfg, results)
	}
}

// BenchmarkFig11Speedup regenerates the Figure 11 data: per-benchmark
// speed-up of the VC scheduler over CARS under the threshold policy.
func BenchmarkFig11Speedup(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		results, err := bench.RunAll(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bench.Figure11(io.Discard, cfg, results)
	}
}

// BenchmarkFig12CrossInput regenerates the Figure 12 data: schedules
// from one profiling input evaluated under another.
func BenchmarkFig12CrossInput(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if err := bench.Figure12(io.Discard, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCSchedulePaperExample times the full algorithm on the
// paper's Section 5 example.
func BenchmarkVCSchedulePaperExample(b *testing.B) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Schedule(sb, m, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVCScheduleMedium times the scheduler on a mid-size generated
// block across the evaluation machines.
func BenchmarkVCScheduleMedium(b *testing.B) {
	p, _ := workload.BenchmarkByName("132.ijpeg")
	sb := p.Generate(0.05, 0).Blocks[0]
	for _, m := range machine.EvaluationConfigs() {
		b.Run(m.Name, func(b *testing.B) {
			pins := workload.PinsFor(sb, m.Clusters, 1)
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Schedule(sb, m, core.Options{Pins: pins, Timeout: 5 * time.Second}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCARSSchedule times the baseline on the same block.
func BenchmarkCARSSchedule(b *testing.B) {
	p, _ := workload.BenchmarkByName("132.ijpeg")
	sb := p.Generate(0.05, 0).Blocks[0]
	m := machine.FourCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cars.Schedule(sb, m, pins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSGBuild times scheduling-graph construction.
func BenchmarkSGBuild(b *testing.B) {
	p, _ := workload.BenchmarkByName("130.li")
	sb := p.Generate(0.05, 0).Blocks[0]
	m := machine.FourCluster1Lat()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sg.Build(sb, m)
	}
}

// BenchmarkDeduceInit times building + propagating the initial
// scheduling state (the DP's hot path).
func BenchmarkDeduceInit(b *testing.B) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	deadlines := map[int]int{4: 5, 6: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := deduce.NewState(sb, m, g, deadlines, deduce.Options{PinExits: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateClone times the state copy used by every candidate
// study.
func BenchmarkStateClone(b *testing.B) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	g := sg.Build(sb, m)
	st, err := deduce.NewState(sb, m, g, map[int]int{4: 5, 6: 7}, deduce.Options{PinExits: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Clone()
	}
}

// BenchmarkWorkloadGenerate times corpus generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	p, _ := workload.BenchmarkByName("mpeg2dec")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Generate(0.1, 0)
	}
}
