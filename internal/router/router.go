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
//	    service.FingerprintText), so the router addresses the same
//	    content the shard will cache; the leader forwards the canonical
//	    bytes the fingerprint hashed.
//	 2. Duplicate fingerprints coalesce in a router-side
//	    service.Flight BEFORE they reach the ring: one leader forwards,
//	    followers wait at most their own deadline. Combined with hash
//	    placement this is what makes duplicate-heavy fleet traffic
//	    execute exactly once fleet-wide.
//	 3. The fingerprint's home shard comes from the ring
//	    (ring.Successors); draining, unreachable or breaker-ejected
//	    shards are skipped and their keys spill to the next live
//	    successor — the rest of the partition is untouched.
//	 4. The forward itself reuses internal/vcclient: per-try timeouts,
//	    bounded retries with Retry-After-floored backoff, and hedging
//	    that walks the successor list so a slow shard races a DIFFERENT
//	    shard on the idempotent endpoint.
//
// The ring is built once from the configured backends and never
// changes. A shard's liveness lives in its own state alone, fed two
// ways: a per-shard /v1/healthz poller (drain detection between
// requests) and a per-shard consecutive-transport-failure breaker fed
// by vcclient's Observe hook (fast ejection under traffic, half-open
// readmission after a cooloff on the router clock). Forwards, healthz
// and statsz all read it through shard.live.
package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
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
	// Defaults fills request fields the caller omitted, exactly like
	// the daemon's flags do. Router and shards should agree on these:
	// a mismatch only shifts which shard a fingerprint calls home (the
	// shard recomputes its own fingerprint), it cannot corrupt results.
	Defaults httpapi.Defaults
	// Client is the vcclient template for forwards (TryTimeout,
	// Retries, Backoff*, HedgeAfter, Seed, Sleep). BaseURL and Observe
	// are owned by the router and ignored if set.
	Client vcclient.Config
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

// The per-shard transport breaker: breakerThreshold consecutive
// transport failures eject a shard for breakerCooloff. After the
// cooloff the breaker is half-open: one failed try ejects the shard
// again, one successful try closes the breaker.
const (
	breakerThreshold = 3
	breakerCooloff   = 5 * time.Second
)

// shard is the router's view of one backend.
type shard struct {
	url string

	mu           sync.Mutex
	healthy      bool      // last /v1/healthz observation
	ejectedUntil time.Time // end of the latest breaker cooloff; zero while closed
	consecFails  int
	tries        int64
	errors       int64
	hedges       int64
	sheds        int64
}

// live reports whether the shard takes traffic at now: its last health
// observation was good and no breaker cooloff is running. Reading it
// changes nothing.
func (sh *shard) live(now time.Time) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.healthy && !now.Before(sh.ejectedUntil)
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
	// forwards whose first live ring successor was not the home shard
	// (keys spilled to a successor); Unroutable the blocks refused
	// because no live shard remained.
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
	ring   *ring.Ring // every configured backend, built once
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
	var urls []string
	for _, raw := range cfg.Backends {
		url := strings.TrimRight(raw, "/")
		if url == "" {
			return nil, fmt.Errorf("router: empty backend URL")
		}
		if _, dup := r.shards[url]; dup {
			return nil, fmt.Errorf("router: duplicate backend %s", url)
		}
		r.shards[url] = &shard{url: url, healthy: true}
		urls = append(urls, url)
	}
	r.ring = ring.New(urls)
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
//
// Every block is fingerprinted and joins the flight in request order
// before any forward starts, so a block repeated within its batch
// always follows its first copy. Joined from racing goroutines, it
// could find that copy already finished and lead again, as a cache hit
// on its shard, and goroutine scheduling would pick which.
func (r *Router) Schedule(wreq *service.WireRequest) (service.WireResponse, error) {
	reqs, err := httpapi.BuildRequests(wreq, r.cfg.Defaults)
	if err != nil {
		return service.WireResponse{}, err
	}
	joins := make([]joined, len(reqs))
	for i, req := range reqs {
		joins[i] = r.join(req)
	}
	results := make([]service.Result, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		if joins[i].call == nil {
			results[i] = joins[i].res
			continue
		}
		wg.Add(1)
		go func(i int, req *service.Request) {
			defer wg.Done()
			results[i] = r.complete(req, &joins[i], wreq)
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

// joined is one block's place in the router pipeline after its
// fingerprint: either a final result (call == nil: the router is
// draining) or the flight call it leads or follows.
type joined struct {
	fp     string
	text   []byte // the canonical bytes fp hashed
	call   *service.Call
	leader bool
	res    service.Result
}

// join fingerprints one superblock and joins the fleet-wide
// singleflight.
func (r *Router) join(req *service.Request) joined {
	fp, text := service.FingerprintText(req)
	r.mu.Lock()
	if r.draining {
		r.mu.Unlock()
		return joined{fp: fp, res: service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err: "router draining", Taxonomy: "draining", Shed: true,
		}}
	}
	r.blocks++
	r.mu.Unlock()

	c, leader := r.flight.Join(fp)
	if !leader {
		r.mu.Lock()
		r.coalesced++
		r.mu.Unlock()
	}
	return joined{fp: fp, text: text, call: c, leader: leader}
}

// complete finishes one joined block: a leader forwards it along the
// ring and publishes the result to its followers; a follower waits for
// that result. wreq is the original wire request; its
// Machine/PinSeed/TimeoutMS/MaxSteps fields pass through to the shard
// verbatim.
func (r *Router) complete(req *service.Request, j *joined, wreq *service.WireRequest) service.Result {
	if j.leader {
		res := r.forwardGuarded(req, j.fp, j.text, wreq)
		r.flight.Finish(j.fp, res)
		return res
	}
	// A follower waits at most its own clamped deadline — fleet
	// coalescing must not silently extend a short-deadline request to
	// its leader's budget (same rule as service.Submit).
	timer := time.NewTimer(r.clampDeadline(req.Deadline))
	defer timer.Stop()
	select {
	case <-j.call.Done():
		out := j.call.Result()
		out.Block = req.SB.Name
		out.CacheHit = false
		out.Coalesced = true
		return out
	case <-timer.C:
		return service.Result{
			Block: req.SB.Name, Fingerprint: j.fp,
			Err:      "deadline expired waiting for the in-flight duplicate",
			Taxonomy: "timeout", Coalesced: true,
		}
	}
}

// forwardGuarded never lets a leader die without publishing: a panic
// anywhere in the forward path becomes a hard-failure result rather
// than a flight entry whose followers wait forever.
func (r *Router) forwardGuarded(req *service.Request, fp string, text []byte, wreq *service.WireRequest) (res service.Result) {
	defer func() {
		if rec := recover(); rec != nil {
			res = service.Result{
				Block: req.SB.Name, Fingerprint: fp,
				Err:      fmt.Sprintf("panic forwarding: %v", rec),
				Taxonomy: "panic", HardFailure: true,
			}
		}
	}()
	return r.forward(req, fp, text, wreq)
}

// forward sends the block's canonical text — the bytes its fingerprint
// hashed — to the fingerprint's home shard, failing over along its
// ring successors with the shards that are not live skipped.
func (r *Router) forward(req *service.Request, fp string, text []byte, wreq *service.WireRequest) service.Result {
	order := r.ring.Successors(fp)
	home := order[0]
	now := r.now()
	order = slices.DeleteFunc(order, func(url string) bool { return !r.shards[url].live(now) })
	if len(order) == 0 {
		r.mu.Lock()
		r.unroutable++
		r.mu.Unlock()
		return service.Result{
			Block: req.SB.Name, Fingerprint: fp,
			Err: "no live shard in the ring", Taxonomy: "unroutable", Shed: true,
		}
	}
	if order[0] != home {
		r.mu.Lock()
		r.rehomed++
		r.mu.Unlock()
	}

	// The shard receives exactly the content the routing key
	// addressed. Machine/PinSeed/MaxSteps pass through as the client
	// sent them; the shard applies its own defaults.
	bwreq := service.WireRequest{
		Blocks:    []string{string(text)},
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

// observe is the vcclient per-try hook: it drives the per-shard
// counters and the consecutive-transport-failure breaker.
func (r *Router) observe(ti vcclient.TryInfo) {
	sh, ok := r.shards[ti.Target]
	if !ok {
		return
	}
	now := r.now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.tries++
	if ti.Hedge {
		sh.hedges++
	}
	if ti.Shed {
		sh.sheds++
	}
	if ti.Err == nil {
		sh.consecFails = 0
		// A success closes a closed or half-open breaker; one from a
		// try already in flight does not end a running cooloff.
		if !now.Before(sh.ejectedUntil) {
			sh.ejectedUntil = time.Time{}
		}
		return
	}
	sh.errors++
	sh.consecFails++
	switch {
	case now.Before(sh.ejectedUntil):
		// Cooloff running: an in-flight try's failure changes nothing.
	case !sh.ejectedUntil.IsZero() || sh.consecFails >= breakerThreshold:
		// A half-open shard's failed try, or the closed breaker's
		// last strike, starts a fresh cooloff.
		sh.ejectedUntil = now.Add(breakerCooloff)
	}
}

// SetHealth records a health observation for a backend: an unhealthy
// (draining or unreachable) shard is skipped, so its keys spill to
// their successors, until it reports healthy again and no breaker
// cooloff is running. Exposed so tests and external watchers can
// drive health without the poller.
func (r *Router) SetHealth(url string, healthy bool) {
	sh, ok := r.shards[url]
	if !ok {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.healthy = healthy
}

// liveShards counts the shards that take traffic now.
func (r *Router) liveShards() int {
	now := r.now()
	n := 0
	for _, sh := range r.shards {
		if sh.live(now) {
			n++
		}
	}
	return n
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

	now := r.now()
	var reachable []service.Stats
	for i, url := range urls {
		sh := r.shards[url]
		sh.mu.Lock()
		ss := ShardStats{
			URL:     url,
			Healthy: sh.healthy,
			Ejected: now.Before(sh.ejectedUntil),
			Tries:   sh.tries,
			Errors:  sh.errors,
			Hedges:  sh.hedges,
			Sheds:   sh.sheds,
			Stats:   scraped[i],
		}
		sh.mu.Unlock()
		if ss.Healthy && !ss.Ejected { // shard.live's rule
			st.LiveShards++
		}
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
