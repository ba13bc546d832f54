package service

import (
	"math/rand"
	"testing"
	"time"

	"vcsched/internal/difftest"
	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

// propertyBlocks generates the 50-block corpus the cache properties
// are checked over: a deterministic mix of profile-derived and dense
// tiny blocks (the same generator the fuzz harness uses).
func propertyBlocks(t *testing.T) []*ir.Superblock {
	t.Helper()
	gen := difftest.NewGen(7, 24)
	blocks := make([]*ir.Superblock, 0, 50)
	for i := 0; i < 50; i++ {
		blocks = append(blocks, gen.Next())
	}
	return blocks
}

func propertyRequest(sb *ir.Superblock) *Request {
	return &Request{
		SB:       sb,
		Machine:  machine.TwoCluster1Lat(),
		PinSeed:  1,
		MaxSteps: 20000,
	}
}

// TestCachePropertyWarmEqualsCold is the difftest-style cross-check of
// the content-addressing contract: for 50 generated blocks, the cold
// service response, the warm (cached) response, and a direct cold
// single-shot ladder run (what cmd/vcsched -resilient -save emits)
// must agree byte-for-byte on the schedule text and exit cycles.
func TestCachePropertyWarmEqualsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("50-block property test in -short mode")
	}
	faultpoint.Reset()
	s := newTestService(t, Config{Workers: 4, CacheEntries: 1024, DefaultDeadline: 30 * time.Second})
	for _, sb := range propertyBlocks(t) {
		req := propertyRequest(sb)
		wantSched, wantExits, _ := directLadder(t, req.SB, req.Machine, req.PinSeed, req.MaxSteps)

		cold := s.Submit(req)
		if !cold.OK() {
			t.Fatalf("%s: cold submit failed: %+v", sb.Name, cold)
		}
		if cold.CacheHit {
			t.Fatalf("%s: first submission reported a cache hit", sb.Name)
		}
		if cold.Schedule != wantSched || cold.ExitCycles != wantExits {
			t.Fatalf("%s: cold response differs from direct single-shot run", sb.Name)
		}
		warm := s.Submit(req)
		if !warm.CacheHit {
			t.Fatalf("%s: second submission missed the cache", sb.Name)
		}
		if warm.Schedule != wantSched || warm.ExitCycles != wantExits || warm.AWCT != cold.AWCT || warm.Tier != cold.Tier {
			t.Fatalf("%s: warm response not byte-identical to cold:\nwarm %q %q\ncold %q %q",
				sb.Name, warm.Schedule, warm.ExitCycles, cold.Schedule, cold.ExitCycles)
		}
	}
}

// TestCachePropertyUnderWorkerFaults re-checks the warm-equals-cold
// property with the service.worker fault point firing periodically
// (panics and injected failures alternating): a faulted execution may
// fail its own request, but it must never poison the cache — every
// response that does carry a schedule must still be byte-identical to
// the fault-free reference, and a bounded number of retries must
// always reach the cached good result.
func TestCachePropertyUnderWorkerFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("50-block property test in -short mode")
	}
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	s := newTestService(t, Config{Workers: 4, CacheEntries: 1024, DefaultDeadline: 30 * time.Second})
	rng := rand.New(rand.NewSource(11))
	for i, sb := range propertyBlocks(t) {
		req := propertyRequest(sb)
		wantSched, wantExits, _ := directLadder(t, req.SB, req.Machine, req.PinSeed, req.MaxSteps)

		kind := faultpoint.KindPanic
		if i%2 == 1 {
			kind = faultpoint.KindContra
		}
		// Fire on a pseudo-random subset of hits; the counter state the
		// block starts from is itself part of the property (any
		// interleaving of faults must preserve cache correctness).
		faultpoint.Arm("service.worker", faultpoint.Fault{Kind: kind, Skip: rng.Intn(2), Every: 2})

		var good Result
		attempts := 0
		for {
			attempts++
			if attempts > 6 {
				t.Fatalf("%s: no successful response in %d attempts under every=2 faults", sb.Name, attempts-1)
			}
			res := s.Submit(req)
			if res.OK() {
				good = res
				break
			}
			if res.Schedule != "" {
				t.Fatalf("%s: failed response carries schedule bytes: %+v", sb.Name, res)
			}
		}
		if good.Schedule != wantSched || good.ExitCycles != wantExits {
			t.Fatalf("%s: response under faults differs from fault-free reference", sb.Name)
		}
		// The success must have been cached; the warm hit bypasses the
		// (still armed) fault point and returns identical bytes.
		warm := s.Submit(req)
		if !warm.CacheHit {
			t.Fatalf("%s: warm submission after success missed the cache", sb.Name)
		}
		if warm.Schedule != wantSched || warm.ExitCycles != wantExits {
			t.Fatalf("%s: warm response under faults not byte-identical", sb.Name)
		}
	}
}
