package resilient

import (
	"hash/fnv"
	"strings"
	"testing"

	"vcsched/internal/core"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// BenchmarkCompileSet runs the ladder over the benchmark's compile set
// (perfbench/compile.go): blocks 0–9 of every paper profile with at
// most 32 instructions, on the three evaluation machines, with a
// 20,000-step budget and pin seed 1. One op is one pass over the 402
// blocks, and every op checks the exact counts of a pass (tiers, the
// steps of the delivered searches, the schedule digest), so a speed-up
// that changes one decision fails here. A CPU profile of the pass:
//
//	go test -run '^$' -bench CompileSet -benchtime 1x -cpuprofile cpu.out ./internal/resilient
func BenchmarkCompileSet(b *testing.B) {
	const (
		wantSteps  = 143852
		wantDigest = 0x30b0b3994c8bb1d2
	)
	wantTiers := [TierNaive + 1]int{TierSG: 142, TierCARS: 260}

	type item struct {
		sb *ir.Superblock
		m  *machine.Config
	}
	var items []item
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < 10; idx++ {
			text := p.GenerateBlock(idx, 0).String()
			for _, key := range []string{"2c1l", "4c1l", "4c2l"} {
				m, err := machine.ByKey(key)
				if err != nil {
					b.Fatal(err)
				}
				sb, err := ir.Parse(text)
				if err != nil {
					b.Fatal(err)
				}
				if sb.N() <= 32 {
					items = append(items, item{sb, m})
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steps := 0
		var tiers [TierNaive + 1]int
		var digest uint64
		for _, it := range items {
			s, out, err := Schedule(it.sb, it.m, Options{Core: core.Options{
				MaxSteps: 20000,
				Pins:     workload.PinsFor(it.sb, it.m.Clusters, 1),
			}})
			if err != nil {
				b.Fatalf("%s on %s: %v", it.sb.Name, it.m.Key(), err)
			}
			tiers[out.Tier]++
			if out.SGStats != nil {
				steps += out.SGStats.StepsSpent
			}
			var text strings.Builder
			if err := s.WriteText(&text); err != nil {
				b.Fatal(err)
			}
			h := fnv.New64a()
			h.Write([]byte(text.String()))
			digest += h.Sum64()
		}
		if steps != wantSteps || tiers != wantTiers || digest != wantDigest {
			b.Fatalf("steps %d tiers %v digest %016x, want steps %d tiers %v digest %016x",
				steps, tiers, digest, wantSteps, wantTiers, uint64(wantDigest))
		}
	}
}
