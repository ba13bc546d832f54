// Package hollow holds HollowRunner, the recorded-cost stand-in for
// the scheduling ladder, and the clocks it pays its costs on. The load
// harness, the router tests and the daemon tests run it behind a real
// service.Service.
package hollow

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"vcsched/internal/service"
)

// HollowRunner is a recorded-cost stand-in for the resilient ladder,
// borrowed from kubemark's hollow-node idea: it implements
// service.Runner but performs no scheduling work. Each fingerprint
// maps to a deterministic cost (a hash of the fingerprint spread over
// [CostMin, CostMax]) and deterministic canned result bytes, so
// scenarios can push very high request counts through the real
// fingerprint → cache → coalesce → admit → work pipeline without
// burning scheduler CPU — and the warm-equals-cold byte-identity
// contract holds trivially, because the bytes are a pure function of
// the fingerprint.
//
// Costs are "paid" through the configured Clock: the wall clock
// actually sleeps; the virtual clock advances simulated time without
// blocking, which is what makes scenario unit tests fast and
// deterministic.
//
// If the deterministic cost meets or exceeds the request's remaining
// deadline the runner reports a timeout instead of computing — the
// hollow analogue of deduce.Budget.SetDeadline interrupting the DP —
// so deadline-mix scenarios exercise the service's timeout taxonomy.
type HollowRunner struct {
	cfg HollowConfig

	mu    sync.Mutex
	gate  chan struct{} // non-nil while held; closed on Release
	calls map[string]int
	total int
}

// HollowConfig sizes the hollow runner.
type HollowConfig struct {
	// CostMin/CostMax bound the per-fingerprint deterministic cost.
	// CostMax below CostMin is clamped up to CostMin (a fixed-cost
	// runner).
	CostMin, CostMax time.Duration
	// Clock pays the cost (nil = WallClock).
	Clock Clock
	// Poison marks fingerprints whose executions hard-fail with an
	// injected-poison error instead of producing bytes — the
	// deterministic bait for the per-fingerprint circuit breaker. The
	// error text carries the "injected" marker so the report counts
	// these separately from escaped hard failures.
	Poison map[string]bool
}

// NewHollowRunner builds a hollow runner.
func NewHollowRunner(cfg HollowConfig) *HollowRunner {
	if cfg.CostMin < 0 {
		cfg.CostMin = 0
	}
	if cfg.CostMax < cfg.CostMin {
		cfg.CostMax = cfg.CostMin
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock{}
	}
	return &HollowRunner{cfg: cfg, calls: make(map[string]int)}
}

// Cost returns the deterministic cost charged for a fingerprint.
func (h *HollowRunner) Cost(fp string) time.Duration {
	span := int64(h.cfg.CostMax-h.cfg.CostMin) + 1
	return h.cfg.CostMin + time.Duration(int64(fpHash(fp)%uint64(span)))
}

// Hold closes the gate: subsequent Run calls block until Release.
// Tests and overload scenarios use this to pin work in flight so queue
// fill, coalescing and shedding become deterministic instead of racing
// the workers.
func (h *HollowRunner) Hold() {
	h.mu.Lock()
	if h.gate == nil {
		h.gate = make(chan struct{})
	}
	h.mu.Unlock()
}

// Release opens the gate, unblocking every held Run call.
func (h *HollowRunner) Release() {
	h.mu.Lock()
	if h.gate != nil {
		close(h.gate)
		h.gate = nil
	}
	h.mu.Unlock()
}

// Calls returns how many times Run executed (leaders only — cache hits
// and coalesced followers never reach the runner).
func (h *HollowRunner) Calls() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// CallsFor returns how many times Run executed for one fingerprint.
func (h *HollowRunner) CallsFor(fp string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls[fp]
}

// Run implements service.Runner.
func (h *HollowRunner) Run(req *service.Request, fp string, remaining time.Duration) (service.Result, bool) {
	h.mu.Lock()
	h.calls[fp]++
	h.total++
	gate := h.gate
	h.mu.Unlock()
	if gate != nil {
		<-gate
	}

	if h.cfg.Poison[fp] {
		return service.Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Err:         "injected poison: hollow source configured to hard-fail",
			Taxonomy:    "panic",
			HardFailure: true,
		}, false
	}

	cost := h.Cost(fp)
	if cost >= remaining {
		return service.Result{
			Block:       req.SB.Name,
			Fingerprint: fp,
			Err:         fmt.Sprintf("hollow cost %v exceeds remaining deadline %v", cost, remaining),
			Taxonomy:    "timeout",
		}, false
	}
	h.cfg.Clock.Sleep(cost)

	// Canned bytes: a pure function of the fingerprint, so every warm
	// or coalesced copy of this result is byte-identical to the cold
	// one by construction.
	hv := fpHash(fp)
	return service.Result{
		Block:       req.SB.Name,
		Fingerprint: fp,
		Tier:        "hollow",
		AWCT:        float64(hv%997) / 10,
		ExitCycles:  fmt.Sprintf("exit0=%d", hv%251),
		Schedule:    fmt.Sprintf("hollow fp=%s cost=%v\n", fp, cost),
		Taxonomy:    "ok",
	}, true
}

func fpHash(fp string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(fp))
	return f.Sum64()
}
