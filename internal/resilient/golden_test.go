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
// machines with pin seed 1, as .sb text through Schedule. The counts
// per tier and per reason for keeping CARS pin the ladder: CARS meets
// a lower bound on 70 blocks, and the 800-step budget makes the search
// exhaust on one. Steps count the accepted SG searches only. A
// speed-up that changes one decision, or one deduction step, fails
// here.
func TestCompileSliceGolden(t *testing.T) {
	const (
		wantSteps  = 4460
		wantDigest = 0xff54ff96c4b234f3
	)
	wantTiers := [TierNaive + 1]int{TierSG: 19, TierCARS: 71}
	wantReasons := [ReasonSGError + 1]int{ReasonNone: 19, ReasonAtBound: 70, ReasonExhausted: 1}

	steps := 0
	var tiers [TierNaive + 1]int
	var reasons [ReasonSGError + 1]int
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
				reasons[out.Reason]++
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
	if steps != wantSteps || tiers != wantTiers || reasons != wantReasons || digest != wantDigest {
		t.Fatalf("steps %d tiers %v reasons %v digest %016x, want steps %d tiers %v reasons %v digest %016x",
			steps, tiers, reasons, digest, wantSteps, wantTiers, wantReasons, uint64(wantDigest))
	}
}
