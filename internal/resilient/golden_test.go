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

// TestCompileSliceGolden pins the search's decisions on a fixed slice of
// the benchmark's compile set (perfbench/compile.go): blocks 0–2 of
// every paper profile, at most 16 instructions, on the three evaluation
// machines with pin seed 1, as .sb text through Schedule. The 800-step
// budget makes two blocks exhaust the SG search and fall to CARS, so
// the ladder's fallback is pinned too. Steps count the accepted SG
// searches only. A speed-up that changes one decision, or one
// deduction step, fails here.
func TestCompileSliceGolden(t *testing.T) {
	const (
		wantSteps  = 16145
		wantDigest = 0x1f9f118442b76dd4
	)
	wantTiers := [TierNaive + 1]int{TierSG: 88, TierCARS: 2}

	steps := 0
	var tiers [TierNaive + 1]int
	var digest uint64
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < 3; idx++ {
			text := p.GenerateBlock(idx, 0).String()
			for _, key := range []string{"2c1l", "4c1l", "4c2l"} {
				m, err := machine.ByKey(key)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := ir.Parse(text)
				if err != nil {
					t.Fatal(err)
				}
				if sb.N() > 16 {
					continue
				}
				s, out, err := Schedule(sb, m, Options{Core: core.Options{
					MaxSteps: 800,
					Pins:     workload.PinsFor(sb, m.Clusters, 1),
				}})
				if err != nil {
					t.Fatalf("%s on %s: %v", sb.Name, key, err)
				}
				tiers[out.Tier]++
				if out.SGStats != nil {
					steps += out.SGStats.StepsSpent
				}
				var b strings.Builder
				if err := s.WriteText(&b); err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				h.Write([]byte(b.String()))
				digest += h.Sum64()
			}
		}
	}
	if steps != wantSteps || tiers != wantTiers || digest != wantDigest {
		t.Fatalf("steps %d tiers %v digest %016x, want steps %d tiers %v digest %016x",
			steps, tiers, digest, wantSteps, wantTiers, uint64(wantDigest))
	}
}
