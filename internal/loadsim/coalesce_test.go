package loadsim

import (
	"sync"
	"testing"
	"time"

	"vcsched/internal/hollow"
	"vcsched/internal/machine"
	"vcsched/internal/service"
)

// TestCoalescingUnderDuplicateHeavyHollowLoad pins the singleflight
// contract under a duplicate-heavy hollow-worker load: with the gate
// held, one leader computes while every concurrent duplicate coalesces
// onto it — the hollow runner executes exactly once, and every
// follower receives bytes identical to the leader's.
func TestCoalescingUnderDuplicateHeavyHollowLoad(t *testing.T) {
	runner := hollow.NewHollowRunner(hollow.HollowConfig{CostMin: time.Millisecond, CostMax: time.Millisecond})
	svc := service.New(service.Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Runner:          runner,
	})
	defer svc.Close()

	m, err := machine.ByKey("2c1l")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buildPool(&Scenario{Name: "coal", Seed: 1, Gen: 1, MaxInstrs: 12, Machine: "2c1l", PinSeed: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	req := func() *service.Request {
		return &service.Request{SB: pool[0].sb, Machine: m, PinSeed: 1}
	}

	const followers = 16
	runner.Hold()

	// Leader first: wait until it is in flight so every follower is
	// guaranteed to coalesce (not cache-hit, not become a leader).
	var leaderRes service.Result
	var leaderWG sync.WaitGroup
	leaderWG.Add(1)
	go func() { defer leaderWG.Done(); leaderRes = svc.Submit(req()) }()
	if err := waitStats(svc, func(st service.Stats) bool { return st.CacheMisses == 1 }); err != nil {
		t.Fatal(err)
	}

	results := make([]service.Result, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); results[i] = svc.Submit(req()) }(i)
	}
	if err := waitStats(svc, func(st service.Stats) bool { return st.Coalesced == followers }); err != nil {
		t.Fatal(err)
	}
	runner.Release()
	leaderWG.Wait()
	wg.Wait()

	if !leaderRes.OK() || leaderRes.Coalesced || leaderRes.CacheHit {
		t.Fatalf("leader result: %+v", leaderRes)
	}
	fp := leaderRes.Fingerprint
	if got := runner.Calls(); got != 1 {
		t.Fatalf("hollow runner executed %d times for %d duplicate submissions, want 1", got, followers+1)
	}
	if got := runner.CallsFor(fp); got != 1 {
		t.Fatalf("hollow runner executed %d times for fingerprint %s, want 1", got, fp)
	}
	for i, r := range results {
		if !r.OK() {
			t.Fatalf("follower %d failed: %+v", i, r)
		}
		if !r.Coalesced {
			t.Fatalf("follower %d did not coalesce: %+v", i, r)
		}
		if r.Schedule != leaderRes.Schedule || r.ExitCycles != leaderRes.ExitCycles ||
			r.AWCT != leaderRes.AWCT || r.Tier != leaderRes.Tier || r.Fingerprint != fp {
			t.Fatalf("follower %d bytes differ from leader:\nfollower %+v\nleader   %+v", i, r, leaderRes)
		}
	}
	if st := svc.Stats(); st.Coalesced != followers || st.CacheMisses != 1 {
		t.Fatalf("stats after coalesced burst: %+v", st)
	}
}
