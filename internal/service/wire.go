package service

import "sort"

// Wire types for the vcschedd HTTP/JSON API, shared by the daemon, the
// vcrouter fleet front-end and the vcload load generator so the three
// cannot drift.

// WireRequest is the body of POST /v1/schedule. Blocks holds one or
// more .sb sources; each source may itself contain several
// superblocks, and every superblock becomes one scheduling request
// (so a single-block submission and a batch use the same shape).
type WireRequest struct {
	Blocks    []string `json:"blocks"`
	Machine   string   `json:"machine"`              // machine.ByKey key; "" = daemon default
	PinSeed   int64    `json:"pin_seed,omitempty"`   // live-in/live-out pin seed
	TimeoutMS int64    `json:"timeout_ms,omitempty"` // per-block deadline; 0 = daemon default
	MaxSteps  int      `json:"max_steps,omitempty"`  // deduction step budget; 0 = default
}

// WireResult mirrors Result field-for-field on the wire.
type WireResult struct {
	Block       string  `json:"block"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Tier        string  `json:"tier,omitempty"`
	AWCT        float64 `json:"awct,omitempty"`
	ExitCycles  string  `json:"exit_cycles,omitempty"`
	Schedule    string  `json:"schedule,omitempty"`
	Error       string  `json:"error,omitempty"`
	Taxonomy    string  `json:"taxonomy,omitempty"`
	HardFailure bool    `json:"hard_failure,omitempty"`
	CacheHit    bool    `json:"cache_hit,omitempty"`
	Coalesced   bool    `json:"coalesced,omitempty"`
	Shed        bool    `json:"shed,omitempty"`
}

// WireResponse is the body of a /v1/schedule response. When every
// block in the batch hard-failed the daemon sets AllHardFailed, lists
// the distinct taxonomy classes seen, and answers 422 instead of 200
// (the daemon-side analogue of cmd/vcsched exiting non-zero). When
// every block was shed the daemon sets AllShed, answers 429, and
// carries the retry hint both here and in the Retry-After /
// Retry-After-Ms response headers so clients can back off for roughly
// one queue-drain instead of guessing.
type WireResponse struct {
	Results       []WireResult `json:"results"`
	AllHardFailed bool         `json:"all_hard_failed,omitempty"`
	Taxonomies    []string     `json:"taxonomies,omitempty"`
	AllShed       bool         `json:"all_shed,omitempty"`
	RetryAfterMS  int64        `json:"retry_after_ms,omitempty"`
}

// ToWire converts a Result for transport.
func (r Result) ToWire() WireResult {
	return WireResult{
		Block:       r.Block,
		Fingerprint: r.Fingerprint,
		Tier:        r.Tier,
		AWCT:        r.AWCT,
		ExitCycles:  r.ExitCycles,
		Schedule:    r.Schedule,
		Error:       r.Err,
		Taxonomy:    r.Taxonomy,
		HardFailure: r.HardFailure,
		CacheHit:    r.CacheHit,
		Coalesced:   r.Coalesced,
		Shed:        r.Shed,
	}
}

// ToResult is ToWire's inverse: it rehydrates a Result from the wire
// so a proxy (the fleet router) can carry shard responses through the
// same pipeline types the in-process service uses.
func (w WireResult) ToResult() Result {
	return Result{
		Block:       w.Block,
		Fingerprint: w.Fingerprint,
		Tier:        w.Tier,
		AWCT:        w.AWCT,
		ExitCycles:  w.ExitCycles,
		Schedule:    w.Schedule,
		Err:         w.Error,
		Taxonomy:    w.Taxonomy,
		HardFailure: w.HardFailure,
		CacheHit:    w.CacheHit,
		Coalesced:   w.Coalesced,
		Shed:        w.Shed,
	}
}

// BuildWireResponse converts a batch of results and computes the batch
// verdicts: AllHardFailed plus the sorted distinct taxonomy classes
// when every block hard-failed, AllShed when every block was refused.
// It is the single verdict implementation shared by the daemon and the
// router, so a fleet answers a poisoned batch exactly like one shard
// would. The caller owns the transport consequences (HTTP status,
// Retry-After hint).
func BuildWireResponse(results []Result) WireResponse {
	resp := WireResponse{Results: make([]WireResult, len(results))}
	allHard := len(results) > 0
	allShed := len(results) > 0
	tax := map[string]bool{}
	for i, r := range results {
		resp.Results[i] = r.ToWire()
		if r.HardFailure {
			tax[r.Taxonomy] = true
		} else {
			allHard = false
		}
		if !r.Shed {
			allShed = false
		}
	}
	if allHard {
		resp.AllHardFailed = true
		for name := range tax {
			resp.Taxonomies = append(resp.Taxonomies, name)
		}
		sort.Strings(resp.Taxonomies)
	}
	resp.AllShed = allShed
	return resp
}

// MergeStats folds per-shard snapshots into one fleet-wide view:
// counters and capacities sum, Draining is true only when every shard
// drains, AvgServiceMS is the request-weighted mean, and BreakerOpen
// sums the per-shard gauges. Version is left empty — the caller stamps
// its own (the router's version, not any one shard's).
func MergeStats(snaps ...Stats) Stats {
	var out Stats
	var weighted float64
	var weight int64
	draining := len(snaps) > 0
	for _, s := range snaps {
		out.Workers += s.Workers
		out.QueueDepth += s.QueueDepth
		out.QueueLen += s.QueueLen
		out.Requests += s.Requests
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.CacheEntries += s.CacheEntries
		out.Coalesced += s.Coalesced
		out.Shed += s.Shed
		out.QueueTimeouts += s.QueueTimeouts
		out.Scheduled += s.Scheduled
		out.HardFailures += s.HardFailures
		out.WatchdogKills += s.WatchdogKills
		out.WatchdogLeaks += s.WatchdogLeaks
		out.BreakerTrips += s.BreakerTrips
		out.BreakerHalfOpens += s.BreakerHalfOpens
		out.BreakerFastFails += s.BreakerFastFails
		out.BreakerOpen += s.BreakerOpen
		out.TierSG += s.TierSG
		out.TierRetry += s.TierRetry
		out.TierCARS += s.TierCARS
		out.TierNaive += s.TierNaive
		if !s.Draining {
			draining = false
		}
		weighted += s.AvgServiceMS * float64(s.Requests)
		weight += s.Requests
	}
	out.Draining = draining
	if weight > 0 {
		out.AvgServiceMS = weighted / float64(weight)
	}
	return out
}
