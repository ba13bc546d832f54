package core

import (
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
// with an 800-step budget, as the ladder does. The sums of steps, exit
// vectors tried and attempts launched, and a digest of the error
// strings, change with any deduction step, bound probe or verdict of a
// search that stops at the ceiling.
func TestSearchSliceGolden(t *testing.T) {
	const (
		wantSteps    = 9732
		wantVectors  = 25
		wantAttempts = 37
		wantErrs     = 0x7dd0ea4728abadd2
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
				_, st, err := Schedule(sb, m, Options{Pins: pins, MaxSteps: 800, Ceiling: incumbent.AWCT()})
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
