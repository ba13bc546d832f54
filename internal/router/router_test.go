package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcsched/internal/difftest"
	"vcsched/internal/hollow"
	"vcsched/internal/httpapi"
	"vcsched/internal/leakcheck"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

// backend is one in-process vcschedd: a real service behind the real
// daemon mux, with a hollow runner so executions are countable.
type backend struct {
	srv    *httptest.Server
	svc    *service.Service
	hollow *hollow.HollowRunner
}

func (b *backend) url() string { return b.srv.URL }

func startBackends(t *testing.T, n int) []*backend {
	t.Helper()
	out := make([]*backend, n)
	for i := range out {
		runner := hollow.NewHollowRunner(hollow.HollowConfig{
			CostMin: time.Millisecond,
			CostMax: 2 * time.Millisecond,
		})
		svc := service.New(service.Config{
			Workers:         2,
			QueueDepth:      64,
			DefaultDeadline: 30 * time.Second,
			Runner:          runner,
		})
		srv := httptest.NewServer(httpapi.SchedulerMux(svc, httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000}))
		out[i] = &backend{srv: srv, svc: svc, hollow: runner}
		t.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
	}
	return out
}

func urls(backends []*backend) []string {
	out := make([]string, len(backends))
	for i, b := range backends {
		out[i] = b.url()
	}
	return out
}

func newRouter(t *testing.T, backends []*backend, mutate func(*Config)) *Router {
	t.Helper()
	cfg := Config{
		Backends:       urls(backends),
		Defaults:       httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000},
		Client:         vcclient.Config{Retries: 3, TryTimeout: 10 * time.Second},
		HealthInterval: -1, // tests drive health explicitly unless they opt in
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func genBlocks(seed int64, n int) []string {
	g := difftest.NewGen(seed, 12)
	out := make([]string, n)
	for i := range out {
		out[i] = g.Next().String()
	}
	return out
}

func postRouter(t *testing.T, srv *httptest.Server, wreq service.WireRequest) (int, service.WireResponse) {
	t.Helper()
	body, err := json.Marshal(wreq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wresp service.WireResponse
	if err := json.NewDecoder(resp.Body).Decode(&wresp); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, wresp
}

// Hash routing partitions the fleet cache: duplicate-heavy traffic
// executes each distinct fingerprint exactly once across the whole
// fleet (the N=1-equivalent hit rate the tentpole claims), and every
// fingerprint lives on exactly one shard.
func TestPartitionedCacheExecutesEachFingerprintOnce(t *testing.T) {
	backends := startBackends(t, 3)
	rt := newRouter(t, backends, nil)
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	const distinct = 8
	const rounds = 4
	blocks := genBlocks(31, distinct)
	for round := 0; round < rounds; round++ {
		for _, b := range blocks {
			status, resp := postRouter(t, front, service.WireRequest{Blocks: []string{b}})
			if status != http.StatusOK || len(resp.Results) != 1 {
				t.Fatalf("status %d, results %+v", status, resp.Results)
			}
			if r := resp.Results[0]; r.Error != "" || r.Schedule == "" {
				t.Fatalf("result = %+v", r)
			}
		}
	}

	totalExec := 0
	for _, b := range backends {
		totalExec += b.hollow.Calls()
	}
	if totalExec != distinct {
		t.Errorf("fleet executed %d times for %d distinct fingerprints, want exactly once each", totalExec, distinct)
	}
	var hits, misses int64
	for _, b := range backends {
		st := b.svc.Stats()
		hits += st.CacheHits
		misses += st.CacheMisses
	}
	if misses != distinct {
		t.Errorf("fleet cache misses = %d, want %d (one cold miss per fingerprint)", misses, distinct)
	}
	if want := int64(distinct * (rounds - 1)); hits != want {
		t.Errorf("fleet cache hits = %d, want %d", hits, want)
	}
	// Each fingerprint calls exactly one shard home: no block executed
	// on two backends.
	for _, b := range blocks {
		owners := 0
		reqs, err := httpapi.BuildRequests(&service.WireRequest{Blocks: []string{b}}, rt.cfg.Defaults)
		if err != nil {
			t.Fatal(err)
		}
		fp := service.Fingerprint(reqs[0])
		for _, be := range backends {
			if be.hollow.CallsFor(fp) > 0 {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("fingerprint %s executed on %d shards, want 1", fp[:12], owners)
		}
	}
}

// Concurrent duplicates coalesce in the router before touching the
// ring: one leader forwards, every follower gets the leader's bytes.
func TestRouterCoalescesDuplicatesFleetWide(t *testing.T) {
	backends := startBackends(t, 3)
	for _, b := range backends {
		b.hollow.Hold()
	}
	rt := newRouter(t, backends, nil)
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	block := genBlocks(47, 1)[0]
	const dups = 8
	type answer struct {
		status int
		resp   service.WireResponse
	}
	answers := make([]answer, dups)
	var wg sync.WaitGroup
	wg.Add(dups)
	for i := 0; i < dups; i++ {
		go func(i int) {
			defer wg.Done()
			status, resp := postRouter(t, front, service.WireRequest{Blocks: []string{block}})
			answers[i] = answer{status, resp}
		}(i)
	}
	// Wait until the one leader's execution is gated on a shard, then
	// release it for everyone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, b := range backends {
			total += b.hollow.Calls()
		}
		if total >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no execution reached a shard")
		}
		time.Sleep(time.Millisecond)
	}
	for _, b := range backends {
		b.hollow.Release()
	}
	wg.Wait()

	total := 0
	for _, b := range backends {
		total += b.hollow.Calls()
	}
	if total != 1 {
		t.Errorf("%d executions for %d concurrent duplicates, want 1", total, dups)
	}
	var schedule string
	for i, a := range answers {
		if a.status != http.StatusOK || len(a.resp.Results) != 1 {
			t.Fatalf("answer %d: status %d, results %d", i, a.status, len(a.resp.Results))
		}
		r := a.resp.Results[0]
		if r.Error != "" || r.Schedule == "" {
			t.Fatalf("answer %d: %+v", i, r)
		}
		if schedule == "" {
			schedule = r.Schedule
		} else if r.Schedule != schedule {
			t.Fatalf("answer %d schedule differs from the leader's bytes", i)
		}
	}
	st := rt.Stats()
	if st.Coalesced == 0 {
		t.Errorf("router coalesced = 0, want > 0 (stats: %+v)", st)
	}
	if st.Coalesced+1 != int64(dups) && st.Coalesced >= int64(dups) {
		t.Errorf("router coalesced = %d for %d duplicates", st.Coalesced, dups)
	}
}

// SIGTERM-equivalent drain of one shard mid-load: the shard answers
// 429 draining, healthz flips to 503, the poller ejects it, its keys
// spill to ring successors — and not one request escapes as a hard
// failure. The goroutine baseline settles afterwards (no leaks).
func TestDrainMidLoadRehomesKeysWithoutHardFailures(t *testing.T) {
	before := runtime.NumGoroutine() + 8

	backends := startBackends(t, 3)
	rt := newRouter(t, backends, func(c *Config) {
		c.HealthInterval = 10 * time.Millisecond
		c.Client = vcclient.Config{Retries: 3, TryTimeout: 10 * time.Second, BackoffBase: 2 * time.Millisecond, BackoffCap: 20 * time.Millisecond}
	})
	front := httptest.NewServer(rt.Mux())

	const distinct = 12
	const posts = 48 // dup-heavy: each block posted 4 times
	blocks := genBlocks(61, distinct)

	var mu sync.Mutex
	var failures []service.WireResult
	post := func(wg *sync.WaitGroup, i int) {
		defer wg.Done()
		status, resp := postRouter(t, front, service.WireRequest{Blocks: []string{blocks[i%distinct]}})
		mu.Lock()
		defer mu.Unlock()
		if status != http.StatusOK || len(resp.Results) != 1 {
			failures = append(failures, service.WireResult{Error: fmt.Sprintf("status %d", status)})
			return
		}
		if r := resp.Results[0]; r.HardFailure || r.Error != "" {
			failures = append(failures, r)
		}
	}

	// First wave while all three shards are live. The drain starts
	// while this wave is still in flight.
	var wave1 sync.WaitGroup
	wave1.Add(posts / 2)
	for i := 0; i < posts/2; i++ {
		go post(&wave1, i)
	}

	// SIGTERM one shard mid-load: service drain (healthz 503, schedule
	// answers draining) with its HTTP listener still up — exactly the
	// window a real SIGTERM opens before the process exits.
	victim := backends[0]
	victim.svc.Close()
	wave1.Wait()
	// Wait for the poller to observe the 503 and eject.
	deadline := time.Now().Add(5 * time.Second)
	for rt.shards[victim.url()].live(rt.now()) {
		if time.Now().After(deadline) {
			t.Fatal("poller never ejected the draining shard")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Second wave: every fingerprint the victim owned must spill to a
	// successor and still answer.
	var wave2 sync.WaitGroup
	wave2.Add(posts / 2)
	for i := 0; i < posts/2; i++ {
		go post(&wave2, i)
	}
	wave2.Wait()

	mu.Lock()
	if len(failures) > 0 {
		t.Fatalf("%d requests escaped as failures through the drain, first: %+v", len(failures), failures[0])
	}
	mu.Unlock()
	// Count the fingerprints whose home shard was the victim: each
	// of them had a second-wave leader forward to a ring successor.
	victimOwned := 0
	for _, b := range blocks {
		reqs, err := httpapi.BuildRequests(&service.WireRequest{Blocks: []string{b}}, rt.cfg.Defaults)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.Successors(service.Fingerprint(reqs[0]))[0] == victim.url() {
			victimOwned++
		}
	}
	st := rt.Stats()
	if victimOwned > 0 && st.Rehomed == 0 {
		t.Errorf("rehomed = 0 with %d victim-owned fingerprints: no key spilled off the drained shard (stats: %+v)",
			victimOwned, st)
	}
	if st.LiveShards != 2 {
		t.Errorf("live shards = %d, want 2", st.LiveShards)
	}

	// Tear the fleet down and verify the goroutine count settles: the
	// router leaked nothing across the drain.
	front.Close()
	rt.Close()
	for _, b := range backends {
		b.srv.Close()
		b.svc.Close()
	}
	if err := leakcheck.Settle(before, 0); err != nil {
		t.Fatalf("goroutines leaked across drain: %v", err)
	}
}

// A shard that dies without draining (connection refused) trips the
// router's consecutive-failure breaker: it is skipped after
// breakerThreshold transport errors and traffic keeps flowing.
func TestBreakerEjectsUnreachableShard(t *testing.T) {
	const threshold = breakerThreshold
	backends := startBackends(t, 3)
	clock := hollow.NewVirtualClock()
	rt := newRouter(t, backends, func(c *Config) {
		c.Now = clock.Now // no readmission inside the test
		c.Client = vcclient.Config{Retries: 3, TryTimeout: 2 * time.Second, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond}
	})
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	// Kill shard 1 abruptly: no drain, its port just refuses.
	dead := backends[1]
	dead.srv.Close()

	// Send blocks whose home shard is the dead shard: each one's
	// first try goes there, so breakerThreshold of them must trip the
	// breaker whatever ring placement the ephemeral ports produce. One
	// more after the trip must not try the dead shard at all.
	sent := 0
	for _, b := range genBlocks(73, 200) {
		reqs, err := httpapi.BuildRequests(&service.WireRequest{Blocks: []string{b}}, rt.cfg.Defaults)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.Successors(service.Fingerprint(reqs[0]))[0] != dead.url() {
			continue
		}
		status, resp := postRouter(t, front, service.WireRequest{Blocks: []string{b}})
		if status != http.StatusOK {
			t.Fatalf("status %d: %+v", status, resp)
		}
		if r := resp.Results[0]; r.HardFailure || r.Error != "" {
			t.Fatalf("hard failure leaked past the breaker: %+v", r)
		}
		if sent++; sent == threshold+1 {
			break
		}
	}
	if sent != threshold+1 {
		t.Fatalf("only %d of 200 generated blocks call the dead shard home", sent)
	}
	st := rt.Stats()
	var deadStats *ShardStats
	for i := range st.PerShard {
		if st.PerShard[i].URL == dead.url() {
			deadStats = &st.PerShard[i]
		}
	}
	if deadStats == nil {
		t.Fatal("dead shard missing from per_shard")
	}
	if !deadStats.Ejected {
		t.Errorf("dead shard not ejected: %+v", deadStats)
	}
	if deadStats.Errors != threshold {
		t.Errorf("dead shard errors = %d, want exactly the threshold %d", deadStats.Errors, threshold)
	}
	if st.LiveShards != 2 {
		t.Errorf("live shards = %d, want 2", st.LiveShards)
	}
}

// failingTransport fails every round trip while fail is set and passes
// the rest to the default transport.
type failingTransport struct{ fail atomic.Bool }

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.fail.Load() {
		return nil, errors.New("injected transport failure")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// getHealthz answers the router's /v1/healthz status code.
func getHealthz(t *testing.T, front *httptest.Server) int {
	t.Helper()
	resp, err := http.Get(front.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getStatsz decodes the router's /v1/statsz document.
func getStatsz(t *testing.T, front *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(front.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statsz: %v", err)
	}
	return st
}

// Once a breaker cooloff has run out and the shard reports healthy,
// the shard is live again for healthz and statsz too, before any
// schedule request: all three read one liveness rule.
func TestHealthzFollowsBreakerCooloff(t *testing.T) {
	backends := startBackends(t, 1)
	clock := hollow.NewVirtualClock()
	transport := &failingTransport{}
	rt := newRouter(t, backends, func(c *Config) {
		c.Now = clock.Now
		c.Client = vcclient.Config{HTTPClient: &http.Client{Transport: transport}}
	})
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	transport.fail.Store(true)
	for _, b := range genBlocks(101, breakerThreshold) {
		resp, err := rt.Schedule(&service.WireRequest{Blocks: []string{b}})
		if err != nil {
			t.Fatal(err)
		}
		if r := resp.Results[0]; r.Taxonomy != "unreachable" {
			t.Fatalf("forward through a failing transport: %+v, want unreachable", r)
		}
	}
	if code := getHealthz(t, front); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with the only shard ejected = %d, want 503", code)
	}
	if st := getStatsz(t, front); st.LiveShards != 0 || !st.PerShard[0].Ejected {
		t.Fatalf("after %d failed forwards: live_shards %d, per_shard %+v; want the shard ejected", breakerThreshold, st.LiveShards, st.PerShard[0])
	}

	transport.fail.Store(false)
	clock.Sleep(breakerCooloff)
	rt.SetHealth(backends[0].url(), true) // as the poller would
	if code := getHealthz(t, front); code != http.StatusOK {
		t.Fatalf("healthz after the cooloff = %d, want 200", code)
	}
	if st := getStatsz(t, front); st.LiveShards != 1 || st.PerShard[0].Ejected {
		t.Fatalf("after the cooloff: live_shards %d, per_shard %+v; want the shard live", st.LiveShards, st.PerShard[0])
	}
}

// The breaker's whole cycle on the router clock: breakerThreshold
// failures eject a shard for breakerCooloff, a success from an
// in-flight try does not end the cooloff early, the shard is half-open
// once it ends, one failure then ejects it again, and one success
// closes the breaker.
func TestBreakerCycleOnRouterClock(t *testing.T) {
	const url = "http://shard-0"
	clock := hollow.NewVirtualClock()
	rt, err := New(Config{Backends: []string{url}, HealthInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	fail := vcclient.TryInfo{Target: url, Err: errors.New("connection refused")}
	ok := vcclient.TryInfo{Target: url}
	expect := func(step string, want bool) {
		t.Helper()
		if got := rt.shards[url].live(clock.Now()); got != want {
			t.Fatalf("%s: live = %v, want %v", step, got, want)
		}
	}
	tripClosed := func() {
		t.Helper()
		for i := 1; i < breakerThreshold; i++ {
			rt.observe(fail)
			expect(fmt.Sprintf("closed breaker, %d failures", i), true)
		}
		rt.observe(fail)
		expect("closed breaker, threshold failures", false)
	}

	tripClosed()
	clock.Sleep(breakerCooloff - time.Nanosecond)
	expect("1ns before the cooloff ends", false)
	rt.observe(ok)
	expect("success from an in-flight try during the cooloff", false)
	clock.Sleep(time.Nanosecond)
	expect("cooloff over: half-open", true)

	rt.observe(fail)
	expect("half-open, one failure", false)
	clock.Sleep(breakerCooloff - time.Nanosecond)
	expect("1ns before the fresh cooloff ends", false)
	clock.Sleep(time.Nanosecond)
	expect("fresh cooloff over: half-open", true)

	rt.observe(ok)
	expect("half-open, one success", true)
	tripClosed()
}

// The aggregate statsz merges shard snapshots deterministically: two
// encodings of one scrape are byte-identical, per-shard entries are
// URL-sorted, and the fleet counters are the shard sums.
func TestAggregateStatszDeterministic(t *testing.T) {
	backends := startBackends(t, 2)
	rt := newRouter(t, backends, nil)
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	for _, b := range genBlocks(83, 5) {
		if status, _ := postRouter(t, front, service.WireRequest{Blocks: []string{b}}); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}

	st := rt.Stats()
	var wantReq int64
	for _, b := range backends {
		wantReq += b.svc.Stats().Requests
	}
	if st.Fleet.Requests != wantReq {
		t.Errorf("fleet requests = %d, want shard sum %d", st.Fleet.Requests, wantReq)
	}
	if st.Shards != 2 || st.LiveShards != 2 || len(st.PerShard) != 2 {
		t.Errorf("shard counts wrong: %+v", st)
	}
	if st.PerShard[0].URL >= st.PerShard[1].URL {
		t.Errorf("per_shard not URL-sorted: %q, %q", st.PerShard[0].URL, st.PerShard[1].URL)
	}
	if st.Blocks != 5 {
		t.Errorf("router blocks = %d, want 5", st.Blocks)
	}

	// Deterministic bytes: marshal the same snapshot twice.
	a, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two encodings of one Stats differ")
	}
	// And the live endpoint answers well-formed JSON with the router
	// fields in struct order.
	resp, err := http.Get(front.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Stats
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("statsz not JSON: %v", err)
	}
	if decoded.Shards != 2 || len(decoded.PerShard) != 2 {
		t.Errorf("wire statsz = %+v", decoded)
	}
	if bytes.Index(raw, []byte(`"fleet"`)) < bytes.Index(raw, []byte(`"blocks"`)) {
		t.Error("statsz field order not struct order (fleet before blocks)")
	}
}

// The router refuses cleanly when no live shard remains, and its
// healthz reflects the dead fleet.
func TestNoLiveShardsIsExplicitRefusal(t *testing.T) {
	backends := startBackends(t, 2)
	rt := newRouter(t, backends, nil)
	front := httptest.NewServer(rt.Mux())
	defer front.Close()

	rt.SetHealth(backends[0].url(), false)
	rt.SetHealth(backends[1].url(), false)

	status, resp := postRouter(t, front, service.WireRequest{Blocks: []string{genBlocks(91, 1)[0]}})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (all shed)", status)
	}
	if r := resp.Results[0]; !r.Shed || r.Taxonomy != "unroutable" {
		t.Fatalf("result = %+v, want unroutable shed", r)
	}
	if code := getHealthz(t, front); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with zero live shards = %d, want 503", code)
	}

	// Recovery: shards report healthy again, traffic flows.
	rt.SetHealth(backends[0].url(), true)
	rt.SetHealth(backends[1].url(), true)
	status, resp = postRouter(t, front, service.WireRequest{Blocks: []string{genBlocks(91, 1)[0]}})
	if status != http.StatusOK || resp.Results[0].Error != "" {
		t.Fatalf("post-recovery: status %d, %+v", status, resp.Results)
	}
}

// unorderedBlock declares its dependences out of (From, To, Kind) order.
const unorderedBlock = `superblock unordered
inst 0 a int 1
inst 1 b mem 2
inst 2 c int 1
inst 3 x branch 1 exit 0.25
inst 4 y branch 1 exit 0.75
dep ctrl 3 4 lat 1
dep data 2 4 lat 1
dep data 0 2 lat 1
dep data 1 3 lat 2
dep data 0 1 lat 1
`

// TestForwardSendsTheFingerprintedBytes records what a shard receives:
// the router forwards the canonical text its fingerprint hashed, and
// the shard, rebuilding the request from those bytes, addresses it by
// the routing fingerprint.
func TestForwardSendsTheFingerprintedBytes(t *testing.T) {
	backend := startBackends(t, 1)[0]
	var (
		mu   sync.Mutex
		seen []service.WireRequest
	)
	recording := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/schedule" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var wreq service.WireRequest
			if err := json.Unmarshal(body, &wreq); err != nil {
				t.Errorf("forwarded body: %v", err)
			}
			mu.Lock()
			seen = append(seen, wreq)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.srv.Config.Handler.ServeHTTP(w, r)
	}))
	defer recording.Close()
	rt := newRouter(t, nil, func(c *Config) { c.Backends = []string{recording.URL} })

	wreq := service.WireRequest{Blocks: []string{unorderedBlock}, Machine: "4c2l"}
	defaults := httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000}
	reqs, err := httpapi.BuildRequests(&wreq, defaults)
	if err != nil {
		t.Fatal(err)
	}
	routing := service.Fingerprint(reqs[0])
	canonical := string(reqs[0].SB.AppendCanonical(nil))
	if canonical == reqs[0].SB.String() {
		t.Fatal("test block is already in canonical edge order")
	}

	resp, err := rt.Schedule(&wreq)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("schedule: %+v", resp.Results)
	}
	if len(seen) != 1 || len(seen[0].Blocks) != 1 {
		t.Fatalf("shard saw %+v, want one request with one block", seen)
	}
	if got := seen[0].Blocks[0]; got != canonical {
		t.Fatalf("forwarded blocks[0]:\n%s\nwant the canonical text:\n%s", got, canonical)
	}
	shardReqs, err := httpapi.BuildRequests(&seen[0], defaults)
	if err != nil {
		t.Fatal(err)
	}
	if got := service.Fingerprint(shardReqs[0]); got != routing {
		t.Fatalf("shard fingerprints the forwarded block %s, routing fingerprint %s", got, routing)
	}
	if resp.Results[0].Fingerprint != routing {
		t.Fatalf("answer carries fingerprint %s, want %s", resp.Results[0].Fingerprint, routing)
	}
}
