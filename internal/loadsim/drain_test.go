package loadsim

import (
	"sync"
	"testing"
	"time"

	"vcsched/internal/hollow"
	"vcsched/internal/leakcheck"
	"vcsched/internal/machine"
	"vcsched/internal/service"
)

// TestGracefulDrainUnderSustainedLoad closes the service while hollow
// work is queued and in flight: every admitted request must finish
// with its real result, submissions after the drain began must be
// refused with the "draining" taxonomy, and the worker pool must not
// leak goroutines.
func TestGracefulDrainUnderSustainedLoad(t *testing.T) {
	leakcheck.Check(t)

	runner := hollow.NewHollowRunner(hollow.HollowConfig{CostMin: 20 * time.Millisecond, CostMax: 40 * time.Millisecond})
	svc := service.New(service.Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Runner:          runner,
	})

	m, err := machine.ByKey("2c1l")
	if err != nil {
		t.Fatal(err)
	}
	const load = 6
	pool, err := buildPool(&Scenario{Name: "drain", Seed: 2, Gen: load, MaxInstrs: 12, Machine: "2c1l", PinSeed: 1}, m)
	if err != nil {
		t.Fatal(err)
	}

	// Sustained load: six distinct requests, all admitted (two in
	// flight, four queued) before the drain starts.
	results := make([]service.Result, load)
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = svc.Submit(&service.Request{SB: pool[i].sb, Machine: m, PinSeed: 1})
		}(i)
	}
	if err := waitStats(svc, func(st service.Stats) bool { return st.CacheMisses == load }); err != nil {
		t.Fatal(err)
	}

	svc.Close() // blocks until queued and in-flight work completes
	wg.Wait()
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("admitted request %d lost to the drain: %+v", i, r)
		}
	}
	if st := svc.Stats(); st.Scheduled != load || !st.Draining {
		t.Fatalf("stats after drain: %+v", st)
	}

	// New submissions are refused with the draining taxonomy.
	after := svc.Submit(&service.Request{SB: pool[0].sb, Machine: m, PinSeed: 99})
	if !after.Shed || after.Taxonomy != "draining" {
		t.Fatalf("submit during drain = %+v, want draining refusal", after)
	}
	svc.Close() // idempotent
	// leakcheck.Check's cleanup asserts the worker pool's goroutines
	// settled back to the pre-test count.
}
