// Package router is the fleet front-end core behind cmd/vcrouter: it
// shards /v1/schedule traffic by content fingerprint across N vcschedd
// backends so the fleet-wide result cache is a partition, not N
// copies.
//
// The per-block path composes the exported service pipeline pieces
// with the consistent-hash ring:
//
//		fingerprint → router singleflight → ring placement → forward
//
//	 1. Every superblock is expanded and fingerprinted locally with
//	    exactly the pipeline the daemon runs (httpapi.BuildRequests +
//	    service.Fingerprint), so the router addresses the same content
//	    the shard will cache.
//	 2. Duplicate fingerprints coalesce in a router-side
//	    service.Flight BEFORE they reach the ring: one leader forwards,
//	    followers wait at most their own deadline. Combined with hash
//	    placement this is what makes duplicate-heavy fleet traffic
//	    execute exactly once fleet-wide.
//	 3. The fingerprint's home shard comes from the ring
//	    (ring.Successors); draining, unreachable or breaker-ejected
//	    shards drop out of the ring and their keys spill to the next
//	    successor — the rest of the partition is untouched.
//	 4. The forward itself reuses internal/vcclient: per-try timeouts,
//	    bounded retries with Retry-After-floored backoff, and hedging
//	    that walks the successor list so a slow shard races a DIFFERENT
//	    shard on the idempotent endpoint.
//
// Health is tracked two ways: a per-shard /v1/healthz poller (drain
// detection between requests) and a per-shard consecutive-transport-
// failure breaker fed by vcclient's Observe hook (fast ejection under
// traffic, half-open readmission after a cooloff).
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcsched/internal/httpapi"
	"vcsched/internal/ring"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
	"vcsched/internal/version"
)

// Config sizes the router. Backends is required; every other zero
// value is a usable default.
type Config struct {
	// Backends are the vcschedd base URLs the ring shards over.
	Backends []string
	// Replicas is the ring's virtual-node count per backend
	// (0 = ring.DefaultReplicas).
	Replicas int
	// Defaults fills request fields the caller omitted, exactly like
	// the daemon's flags do. Router and shards should agree on these:
	// a mismatch only shifts which shard a fingerprint calls home (the
	// shard recomputes its own fingerprint), it cannot corrupt results.
	Defaults httpapi.Defaults
	// Client is the vcclient template for forwards (TryTimeout,
	// Retries, Backoff*, HedgeAfter, Seed, Sleep). BaseURL and Observe
	// are owned by the router and ignored if set.
	Client vcclient.Config
	// BreakerThreshold ejects a shard from the ring after this many
	// consecutive transport failures (0 = 3; negative disables).
	BreakerThreshold int
	// BreakerCooloff is how long an ejected shard sits out before a
	// half-open readmission with one strike left (0 = 5s).
	BreakerCooloff time.Duration
	// HealthInterval is the /v1/healthz poll period (0 = 1s; negative
	// disables polling — breaker ejection still works).
	HealthInterval time.Duration
	// DefaultDeadline/MaxDeadline clamp follower waits the same way
	// the service clamps request deadlines (0 = 5s / 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// HTTPClient serves health polls and statsz scrapes (nil = a
	// client with a 2s timeout).
	HTTPClient *http.Client
	// Now is the router's clock seam (nil = time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooloff <= 0 {
		c.BreakerCooloff = 5 * time.Second
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 2 * time.Second}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// shard is the router's view of one backend.
type shard struct {
	url string

	mu           sync.Mutex
	healthy      bool      // last /v1/healthz observation
	ejectedUntil time.Time // breaker cooloff end; zero when closed
	consecFails  int
	tries        int64
	errors       int64
	hedges       int64
	sheds        int64
}

// ShardStats is one backend's slice of the aggregate statsz.
type ShardStats struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Ejected bool   `json:"ejected"`
	Tries   int64  `json:"tries"`
	Errors  int64  `json:"errors"`
	Hedges  int64  `json:"hedges"`
	Sheds   int64  `json:"sheds"`
	// Stats is the shard's own /v1/statsz snapshot; nil when the scrape
	// failed (the shard is then excluded from the fleet merge).
	Stats *service.Stats `json:"stats,omitempty"`
}

// Stats is the router's /v1/statsz document. Field order is the wire
// order (encoding/json preserves struct order) and PerShard is sorted
// by URL, so equal snapshots encode byte-identically.
type Stats struct {
	Version    string `json:"version"`
	Draining   bool   `json:"draining"`
	Shards     int    `json:"shards"`
	LiveShards int    `json:"live_shards"`
	// Blocks counts superblocks routed; Coalesced the ones that joined
	// an in-flight duplicate instead of forwarding; Rehomed the leader
	// forwards whose live home differed from the full-ring home (keys
	// spilled to a successor); Unroutable the blocks refused because no
	// live shard remained.
	Blocks     int64          `json:"blocks"`
	Coalesced  int64          `json:"coalesced"`
	Rehomed    int64          `json:"rehomed"`
	Unroutable int64          `json:"unroutable"`
	Client     vcclient.Stats `json:"client"`
	// Fleet merges the reachable shards' own snapshots
	// (service.MergeStats): fleet-wide cache, breaker and watchdog
	// counters.
	Fleet    service.Stats `json:"fleet"`
	PerShard []ShardStats  `json:"per_shard"`
}

// Router shards schedule traffic over a fixed backend set. Create with
// New, stop with Close.
type Router struct {
	cfg    Config
	live   *ring.Ring // current membership: healthy, non-ejected shards
	full   *ring.Ring // all configured backends, for rehoming accounting
	flight *service.Flight
	client *vcclient.Client
	now    func() time.Time
	shards map[string]*shard // fixed after New; per-shard state has its own lock

	stopPoll  chan struct{}
	pollers   sync.WaitGroup
	retryHint atomic.Int64 // latest shard Retry-After hint, ms

	mu         sync.Mutex
	draining   bool
	blocks     int64
	coalesced  int64
	rehomed    int64
	unroutable int64
}

// New validates the config and starts the router (health pollers
// included). Backends start live and optimistic; the first poll or
// forward corrects that within an interval.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("router: at least one backend is required")
	}
	cfg = cfg.withDefaults()
	ccfg := cfg.Client
	ccfg.BaseURL = ""
	r := &Router{
		cfg:      cfg,
		live:     ring.New(cfg.Replicas),
		full:     ring.New(cfg.Replicas),
		flight:   service.NewFlight(),
		now:      cfg.Now,
		shards:   make(map[string]*shard, len(cfg.Backends)),
		stopPoll: make(chan struct{}),
	}
	ccfg.Observe = r.observe
	client, err := vcclient.NewRouted(ccfg)
	if err != nil {
		return nil, err
	}
	r.client = client
	for _, raw := range cfg.Backends {
		url := strings.TrimRight(raw, "/")
		if url == "" {
			return nil, fmt.Errorf("router: empty backend URL")
		}
		if _, dup := r.shards[url]; dup {
			return nil, fmt.Errorf("router: duplicate backend %s", url)
		}
		r.shards[url] = &shard{url: url, healthy: true}
		r.live.Add(url)
		r.full.Add(url)
	}
	if cfg.HealthInterval > 0 {
		for url := range r.shards {
			r.pollers.Add(1)
			go r.poll(url)
		}
	}
	return r, nil
}

// Close stops admission (new blocks get a draining refusal) and the
// health pollers. In-flight forwards finish on their own schedule.
func (r *Router) Close() {
	r.mu.Lock()
	already := r.draining
	r.draining = true
	r.mu.Unlock()
	if already {
		return
	}
	close(r.stopPoll)
	r.pollers.Wait()
}

// Draining reports whether Close has been called.
func (r *Router) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.draining
}

// Schedule expands, fingerprints, coalesces and routes a wire request,
// returning the batch response with the same verdicts one daemon would
// compute. The error return is a bad request (caller answers 400).
func (r *Router) Schedule(wreq *service.WireRequest) (service.WireResponse, error) {
	reqs, err := httpapi.BuildRequests(wreq, r.cfg.Defaults)
	if err != nil {
		return service.WireResponse{}, err
	}
	results := make([]service.Result, len(reqs))
	var wg sync.WaitGroup
	wg.Add(len(reqs))
	for i, req := range reqs {
		go func(i int, req *service.Request) {
			defer wg.Done()
			results[i] = r.scheduleBlock(req, wreq)
		}(i, req)
	}
	wg.Wait()
	return service.BuildWireResponse(results), nil
}

// RetryAfter is the hint the router attaches to all-shed answers: the
// most recent hint a shard gave it, floored so clients never busy-loop.
func (r *Router) RetryAfter() time.Duration {
	const floor = 10 * time.Millisecond
	hint := time.Duration(r.retryHint.Load()) * time.Millisecond
	if hint < floor {
		return floor
	}
	return hint
}

// scheduleBlock runs one superblock through the router pipeline:
// fingerprint, fleet-wide singleflight, ring placement, forward. wreq
// is the original wire request; its Machine/PinSeed/TimeoutMS/MaxSteps
// fields pass through to the shard verbatim.
func (r *Router) scheduleBlock(req *service.Request, wreq *service.WireRequest) service.Result {
	fp := service.Fingerprint(req)
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err: "router draining", Taxonomy: "draining", Shed: true,
		}
	}
	r.blocks++
	r.mu.Unlock()

	c, leader := r.flight.Join(fp)
	if !leader {
		r.mu.Lock()
		r.coalesced++
		r.mu.Unlock()
		// A follower waits at most its own clamped deadline — fleet
		// coalescing must not silently extend a short-deadline request
		// to its leader's budget (same rule as service.Submit).
		timer := time.NewTimer(r.clampDeadline(req.Deadline))
		defer timer.Stop()
		select {
		case <-c.Done():
			out := c.Result()
			out.Block = req.SB.Name
			out.CacheHit = false
			out.Coalesced = true
			return out
		case <-timer.C:
			return service.Result{
				Block: req.SB.Name, Fingerprint: fp,
				Err:      "deadline expired waiting for the in-flight duplicate",
				Taxonomy: "timeout", Coalesced: true,
			}
		}
	}
	res := r.forwardGuarded(req, fp, wreq)
	r.flight.Finish(fp, res)
	return res
}

// forwardGuarded never lets a leader die without publishing: a panic
// anywhere in the forward path becomes a hard-failure result rather
// than a flight entry whose followers wait forever.
func (r *Router) forwardGuarded(req *service.Request, fp string, wreq *service.WireRequest) (res service.Result) {
	defer func() {
		if rec := recover(); rec != nil {
			res = service.Result{
				Block: req.SB.Name, Fingerprint: fp,
				Err:      fmt.Sprintf("panic forwarding: %v", rec),
				Taxonomy: "panic", HardFailure: true,
			}
		}
	}()
	return r.forward(req, fp, wreq)
}

func (r *Router) forward(req *service.Request, fp string, wreq *service.WireRequest) service.Result {
	order := r.liveOrder(fp)
	if len(order) == 0 {
		r.mu.Lock()
		r.unroutable++
		r.mu.Unlock()
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err: "no live shard in the ring", Taxonomy: "unroutable", Shed: true,
		}
	}
	if home, err := r.full.Get(fp); err == nil && home != order[0] {
		r.mu.Lock()
		r.rehomed++
		r.mu.Unlock()
	}

	// Re-serialize the one superblock through the same canonicalization
	// the fingerprint hashed, so the shard receives exactly the content
	// the routing key addressed. Machine/PinSeed/MaxSteps pass through
	// as the client sent them; the shard applies its own defaults.
	var sb strings.Builder
	if err := service.Canonical(req.SB).Write(&sb); err != nil {
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err: fmt.Sprintf("serializing block: %v", err), Taxonomy: "internal", HardFailure: true,
		}
	}
	bwreq := service.WireRequest{
		Blocks:    []string{sb.String()},
		Machine:   wreq.Machine,
		PinSeed:   wreq.PinSeed,
		TimeoutMS: wreq.TimeoutMS,
		MaxSteps:  wreq.MaxSteps,
	}
	sel := func(try int) string { return order[try%len(order)] }
	wresp, err := r.client.ScheduleVia(sel, bwreq)
	if err != nil {
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err:      fmt.Sprintf("every shard forward failed: %v", err),
			Taxonomy: "unreachable", HardFailure: true,
		}
	}
	if wresp.RetryAfterMS > 0 {
		r.retryHint.Store(wresp.RetryAfterMS)
	}
	if len(wresp.Results) != 1 {
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err:      fmt.Sprintf("shard answered %d results for 1 block", len(wresp.Results)),
			Taxonomy: "internal", HardFailure: true,
		}
	}
	return wresp.Results[0].ToResult()
}

// clampDeadline mirrors the service's request-deadline clamp for
// follower waits.
func (r *Router) clampDeadline(d time.Duration) time.Duration {
	if d <= 0 {
		d = r.cfg.DefaultDeadline
	}
	if d > r.cfg.MaxDeadline {
		d = r.cfg.MaxDeadline
	}
	return d
}

// liveOrder readmits shards whose breaker cooloff expired (half-open:
// one strike left), then returns the fingerprint's failover order over
// the live ring.
func (r *Router) liveOrder(fp string) []string {
	now := r.now()
	for _, sh := range r.shards {
		sh.mu.Lock()
		if !sh.ejectedUntil.IsZero() && !now.Before(sh.ejectedUntil) {
			sh.ejectedUntil = time.Time{}
			// Half-open: the readmitted shard carries threshold-1
			// strikes, so a single failed probe re-ejects it.
			if r.cfg.BreakerThreshold > 0 {
				sh.consecFails = r.cfg.BreakerThreshold - 1
			}
			if sh.healthy {
				r.live.Add(sh.url)
			}
		}
		sh.mu.Unlock()
	}
	return r.live.Successors(fp, len(r.shards))
}

// observe is the vcclient per-try hook: it drives the per-shard
// counters and the consecutive-transport-failure breaker.
func (r *Router) observe(ti vcclient.TryInfo) {
	sh, ok := r.shards[ti.Target]
	if !ok {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tries++
	if ti.Hedge {
		sh.hedges++
	}
	if ti.Shed {
		sh.sheds++
	}
	if ti.Err != nil {
		sh.errors++
		sh.consecFails++
		if r.cfg.BreakerThreshold > 0 && sh.consecFails >= r.cfg.BreakerThreshold && sh.ejectedUntil.IsZero() {
			sh.ejectedUntil = r.now().Add(r.cfg.BreakerCooloff)
			r.live.Remove(sh.url)
		}
		return
	}
	sh.consecFails = 0
	if sh.healthy && sh.ejectedUntil.IsZero() {
		r.live.Add(sh.url) // idempotent
	}
}

// SetHealth records a health observation for a backend: an unhealthy
// (draining or unreachable) shard leaves the ring so its keys spill to
// their successors; a healthy, non-ejected one rejoins. Exposed so
// tests and external watchers can drive membership without the poller.
func (r *Router) SetHealth(url string, healthy bool) {
	sh, ok := r.shards[url]
	if !ok {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.healthy = healthy
	if !healthy {
		r.live.Remove(url)
		return
	}
	if sh.ejectedUntil.IsZero() {
		r.live.Add(url)
	}
}

// poll watches one backend's /v1/healthz until Close.
func (r *Router) poll(url string) {
	defer r.pollers.Done()
	ticker := time.NewTicker(r.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopPoll:
			return
		case <-ticker.C:
			r.SetHealth(url, r.probe(url))
		}
	}
}

func (r *Router) probe(url string) bool {
	resp, err := r.cfg.HTTPClient.Get(url + "/v1/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Stats scrapes every shard's /v1/statsz in parallel, merges the
// reachable snapshots into the fleet view and attaches per-shard
// routing counters, sorted by URL for deterministic encoding.
func (r *Router) Stats() Stats {
	urls := make([]string, 0, len(r.shards))
	for url := range r.shards {
		urls = append(urls, url)
	}
	sort.Strings(urls)

	scraped := make([]*service.Stats, len(urls))
	var wg sync.WaitGroup
	wg.Add(len(urls))
	for i, url := range urls {
		go func(i int, url string) {
			defer wg.Done()
			scraped[i] = r.scrape(url)
		}(i, url)
	}
	wg.Wait()

	st := Stats{
		Version: version.String(),
		Shards:  len(urls),
		Client:  r.client.Stats(),
	}
	r.mu.Lock()
	st.Draining = r.draining
	st.Blocks = r.blocks
	st.Coalesced = r.coalesced
	st.Rehomed = r.rehomed
	st.Unroutable = r.unroutable
	r.mu.Unlock()
	st.LiveShards = r.live.Len()

	var reachable []service.Stats
	for i, url := range urls {
		sh := r.shards[url]
		sh.mu.Lock()
		ss := ShardStats{
			URL:     url,
			Healthy: sh.healthy,
			Ejected: !sh.ejectedUntil.IsZero(),
			Tries:   sh.tries,
			Errors:  sh.errors,
			Hedges:  sh.hedges,
			Sheds:   sh.sheds,
			Stats:   scraped[i],
		}
		sh.mu.Unlock()
		st.PerShard = append(st.PerShard, ss)
		if scraped[i] != nil {
			reachable = append(reachable, *scraped[i])
		}
	}
	st.Fleet = service.MergeStats(reachable...)
	return st
}

func (r *Router) scrape(url string) *service.Stats {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/statsz", nil)
	if err != nil {
		return nil
	}
	resp, err := r.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return &st
}
