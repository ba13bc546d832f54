package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"vcsched/internal/cars"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// TestSearchSliceGolden pins the work of every search the ladder runs
// on the slice of the compile set that resilient's
// TestCompileSliceGolden schedules (blocks 0–2 of every paper profile,
// at most 16 instructions, on the three evaluation machines with pin
// seed 1, as .sb text), not only of the searches whose schedule is
// delivered: each block is searched under CARS's AWCT as the ceiling
// and its exit vector as the incumbent, with an 800-step budget, as
// the ladder does. The sums of steps, exit vectors tried and attempts
// launched, and a digest of the error strings, change with any
// deduction step, bound probe or verdict of a search that stops at the
// ceiling.
func TestSearchSliceGolden(t *testing.T) {
	const (
		wantSteps    = 4328
		wantVectors  = 26
		wantAttempts = 35
		wantErrs     = 0x9205700581575562
	)
	var steps, vectors, attempts int
	var errs uint64
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
				pins := workload.PinsFor(sb, m.Clusters, 1)
				incumbent, err := cars.Schedule(sb, m, pins)
				if err != nil {
					t.Fatalf("%s on %s: CARS: %v", sb.Name, key, err)
				}
				_, st, err := Schedule(sb, m, Options{Pins: pins, MaxSteps: 800, Ceiling: incumbent.AWCT(), Incumbent: incumbent.ExitVector()})
				steps += st.StepsSpent
				vectors += st.AWCTTried
				attempts += st.AttemptsLaunched
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				h := fnv.New64a()
				h.Write([]byte(msg))
				errs += h.Sum64()
			}
		}
	}
	if steps != wantSteps || vectors != wantVectors || attempts != wantAttempts || errs != wantErrs {
		t.Fatalf("steps %d vectors %d attempts %d errors %016x, want steps %d vectors %d attempts %d errors %016x",
			steps, vectors, attempts, errs, wantSteps, wantVectors, wantAttempts, uint64(wantErrs))
	}
}

// TestSearchOutcomesGolden pins how every attempt of the free search
// ends on the compile set (blocks 0–9 of every paper profile, at most
// 32 instructions, on the three evaluation machines with pin seed 1,
// as .sb text; blocks 0–2 under the race detector): no ceiling, the
// default budget. The digest covers every attempt's (AWCTIndex,
// Variant, Outcome) and every schedule text or error string, so a
// change that only saves steps keeps it; the steps are pinned apart
// from it.
func TestSearchOutcomesGolden(t *testing.T) {
	blocks, wantSteps, wantDigest := 10, 363432, uint64(0x7d5e6ea6227b8ed3)
	if raceEnabled {
		blocks, wantSteps, wantDigest = 3, 59826, 0x3aa1f01494c139c7
	}
	var steps int
	var digest uint64
	for _, p := range workload.Benchmarks() {
		for idx := 0; idx < blocks; idx++ {
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
				if sb.N() > 32 {
					continue
				}
				s, st, err := Schedule(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1)})
				steps += st.StepsSpent
				h := fnv.New64a()
				for _, a := range st.Attempts {
					fmt.Fprintf(h, "%d.%d.%d,", a.AWCTIndex, a.Variant, a.Outcome)
				}
				h.Write([]byte(outcomeText(t, s, err)))
				digest += h.Sum64()
			}
		}
	}
	if steps != wantSteps || digest != wantDigest {
		t.Fatalf("steps %d digest %016x, want steps %d digest %016x", steps, digest, wantSteps, wantDigest)
	}
}
