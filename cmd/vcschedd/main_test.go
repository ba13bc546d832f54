package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vcsched/internal/difftest"
	"vcsched/internal/faultpoint"
	"vcsched/internal/hollow"
	"vcsched/internal/httpapi"
	"vcsched/internal/ir"
	"vcsched/internal/leakcheck"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
	"vcsched/internal/version"
)

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	return newTestServerWithConfig(t, service.Config{
		Workers:         2,
		DefaultDeadline: 30 * time.Second,
	})
}

// newTestServerWithConfig stands up the daemon mux over a service with
// a caller-chosen config — the hook tests use it to swap the resilient
// ladder for a hollow runner.
func newTestServerWithConfig(t *testing.T, cfg service.Config) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(httpapi.SchedulerMux(svc, httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func postSchedule(t *testing.T, srv *httptest.Server, wreq service.WireRequest) (int, service.WireResponse) {
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

func TestScheduleSingleBatchAndCache(t *testing.T) {
	srv, _ := newTestServer(t)

	status, resp := postSchedule(t, srv, service.WireRequest{Blocks: []string{ir.PaperFigure1().String()}})
	if status != http.StatusOK {
		t.Fatalf("single: status %d", status)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("single: %d results", len(resp.Results))
	}
	cold := resp.Results[0]
	if cold.Error != "" || cold.Schedule == "" || cold.Taxonomy != "ok" {
		t.Fatalf("single: bad result %+v", cold)
	}
	if cold.CacheHit {
		t.Fatal("single: first submission reported a cache hit")
	}

	// The same block again is a cache hit with byte-identical payload.
	status, resp = postSchedule(t, srv, service.WireRequest{Blocks: []string{ir.PaperFigure1().String()}})
	if status != http.StatusOK {
		t.Fatalf("warm: status %d", status)
	}
	warm := resp.Results[0]
	if !warm.CacheHit {
		t.Fatal("warm: second submission missed the cache")
	}
	if warm.Schedule != cold.Schedule || warm.ExitCycles != cold.ExitCycles || warm.Tier != cold.Tier {
		t.Fatal("warm: cached response not byte-identical to cold run")
	}

	// A batch keeps request order; a multi-block source expands.
	status, resp = postSchedule(t, srv, service.WireRequest{
		Blocks: []string{ir.Diamond().String(), ir.PaperFigure1().String()},
	})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d", status)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch: %d results", len(resp.Results))
	}
	if resp.Results[0].Block != ir.Diamond().Name || resp.Results[1].Block != ir.PaperFigure1().Name {
		t.Fatalf("batch: results out of order: %s, %s", resp.Results[0].Block, resp.Results[1].Block)
	}
	if resp.AllHardFailed {
		t.Fatal("batch: spurious all-hard-failed verdict")
	}
}

func TestScheduleAllHardFailedAnswers422(t *testing.T) {
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	srv, _ := newTestServer(t)

	// Every worker execution panics: the whole batch hard-fails, and the
	// daemon must say so with a non-2xx status and the taxonomy names.
	faultpoint.Arm("service.worker", faultpoint.Fault{Kind: faultpoint.KindPanic})
	status, resp := postSchedule(t, srv, service.WireRequest{
		Blocks: []string{ir.PaperFigure1().String(), ir.Diamond().String()},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", status)
	}
	if !resp.AllHardFailed {
		t.Fatal("AllHardFailed not set")
	}
	if len(resp.Taxonomies) != 1 || resp.Taxonomies[0] != "panic" {
		t.Fatalf("taxonomies %v, want [panic]", resp.Taxonomies)
	}
	for _, r := range resp.Results {
		if !r.HardFailure || r.Schedule != "" {
			t.Fatalf("result not a hard failure: %+v", r)
		}
	}

	// One surviving block flips the verdict back to 200.
	faultpoint.Reset()
	status, resp = postSchedule(t, srv, service.WireRequest{Blocks: []string{ir.Diamond().String()}})
	if status != http.StatusOK || resp.AllHardFailed {
		t.Fatalf("recovery: status %d allHardFailed %t", status, resp.AllHardFailed)
	}
}

func TestScheduleRejectsMalformedInput(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, err := http.Get(srv.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", resp.StatusCode)
	}

	for name, body := range map[string]string{
		"bad json":     "{",
		"no blocks":    `{"blocks":[]}`,
		"bad machine":  `{"blocks":["x"],"machine":"no-such-machine"}`,
		"malformed sb": `{"blocks":["not a superblock"]}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHealthzFlipsToDrainingOnClose(t *testing.T) {
	srv, svc := newTestServer(t)

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	svc.Close()
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
	}
}

// TestDrainUnderHTTPLoad drains the daemon while hollow-backed requests
// are queued and in flight over real HTTP: every admitted request must
// come back 200/ok, requests racing the drain get the "draining"
// taxonomy, healthz flips to 503, and the pool leaves no goroutines
// behind.
func TestDrainUnderHTTPLoad(t *testing.T) {
	// The +4 slack covers httptest's keep-alive goroutines, which may
	// outlive the requests briefly while the server is still serving.
	before := runtime.NumGoroutine() + 4

	runner := hollow.NewHollowRunner(hollow.HollowConfig{
		CostMin: 20 * time.Millisecond,
		CostMax: 40 * time.Millisecond,
	})
	srv, svc := newTestServerWithConfig(t, service.Config{
		Workers:         2,
		QueueDepth:      8,
		DefaultDeadline: 30 * time.Second,
		Runner:          runner,
	})

	// Six distinct blocks: two in flight, four queued, all admitted
	// before the drain begins.
	const load = 6
	g := difftest.NewGen(11, 16)
	blocks := make([]string, load)
	for i := range blocks {
		blocks[i] = g.Next().String()
	}
	type answer struct {
		status int
		resp   service.WireResponse
	}
	answers := make([]answer, load)
	var wg sync.WaitGroup
	for i := 0; i < load; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := postSchedule(t, srv, service.WireRequest{Blocks: []string{blocks[i]}})
			answers[i] = answer{status, resp}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().CacheMisses != load {
		if time.Now().After(deadline) {
			t.Fatalf("load not admitted: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	svc.Close() // blocks until the queued and in-flight six finish
	wg.Wait()
	for i, a := range answers {
		if a.status != http.StatusOK || len(a.resp.Results) != 1 {
			t.Fatalf("request %d: status %d results %d", i, a.status, len(a.resp.Results))
		}
		if r := a.resp.Results[0]; r.Error != "" || r.Taxonomy != "ok" || r.Schedule == "" {
			t.Fatalf("admitted request %d lost to the drain: %+v", i, r)
		}
	}

	// A request after the drain began is refused, not dropped: every
	// block is shed, so the daemon answers 429 with a well-formed body
	// naming the "draining" taxonomy.
	status, resp := postSchedule(t, srv, service.WireRequest{Blocks: []string{blocks[0]}})
	if status != http.StatusTooManyRequests || len(resp.Results) != 1 {
		t.Fatalf("post-drain submit: status %d results %d, want 429", status, len(resp.Results))
	}
	if r := resp.Results[0]; !r.Shed || r.Taxonomy != "draining" {
		t.Fatalf("post-drain submit = %+v, want draining refusal", r)
	}
	hc, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d, want 503", hc.StatusCode)
	}

	// The worker pool exited; the shared leak checker waits for the
	// goroutine count to settle back to the baseline.
	if err := leakcheck.Settle(before, 0); err != nil {
		t.Fatalf("goroutines leaked across drain: %v", err)
	}
}

// gatedRunner wedges every execution until release is closed, so the
// test can fill the worker and the admission queue deterministically.
type gatedRunner struct {
	started chan string
	release chan struct{}
}

func (r *gatedRunner) Run(req *service.Request, fp string, remaining time.Duration) (service.Result, bool) {
	r.started <- req.SB.Name
	<-r.release
	return service.Result{Block: req.SB.Name, Tier: "gated", Schedule: "gated\n", Taxonomy: "ok"}, false
}

// TestAllShedAnswers429WithRetryAfter pins the daemon's overload
// contract: when every block in a batch is refused by admission
// control the daemon answers 429 and carries its queue-drain estimate
// in Retry-After (integer seconds, never 0), Retry-After-Ms, and the
// body — and a vcclient pointed at the live daemon floors its backoff
// at that hint.
func TestAllShedAnswers429WithRetryAfter(t *testing.T) {
	runner := &gatedRunner{started: make(chan string, 8), release: make(chan struct{})}
	srv, svc := newTestServerWithConfig(t, service.Config{
		Workers:         1,
		QueueDepth:      1,
		DefaultDeadline: 30 * time.Second,
		Runner:          runner,
	})

	g := difftest.NewGen(23, 12)
	blockA, blockB, blockC := g.Next().String(), g.Next().String(), g.Next().String()

	// Fill capacity: A occupies the single worker, B the single queue
	// slot. Admission enqueues and bumps CacheMisses under one lock, so
	// CacheMisses == 2 means the queue slot is taken and the next
	// submission must shed.
	var wg sync.WaitGroup
	for _, src := range []string{blockA, blockB} {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			status, resp := postSchedule(t, srv, service.WireRequest{Blocks: []string{src}})
			if status != http.StatusOK || resp.Results[0].Taxonomy != "ok" {
				t.Errorf("gated request: status %d result %+v", status, resp.Results[0])
			}
		}(src)
		if src == blockA {
			<-runner.started // the worker holds A before B is queued
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().CacheMisses != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("load not admitted: %+v", svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	body, err := json.Marshal(service.WireRequest{Blocks: []string{blockC}})
	if err != nil {
		t.Fatal(err)
	}
	shedResp, err := http.Post(srv.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var shedBody service.WireResponse
	if err := json.NewDecoder(shedResp.Body).Decode(&shedBody); err != nil {
		t.Fatal(err)
	}
	shedResp.Body.Close()
	if shedResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d %+v, want 429", shedResp.StatusCode, shedBody)
	}

	if !shedBody.AllShed {
		t.Fatalf("429 body AllShed not set: %+v", shedBody)
	}
	for _, r := range shedBody.Results {
		if !r.Shed {
			t.Fatalf("429 carried a non-shed result: %+v", r)
		}
	}
	secs, err := strconv.ParseInt(shedResp.Header.Get("Retry-After"), 10, 64)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q (%v), want an integer >= 1", shedResp.Header.Get("Retry-After"), err)
	}
	ms, err := strconv.ParseInt(shedResp.Header.Get("Retry-After-Ms"), 10, 64)
	if err != nil || ms <= 0 {
		t.Fatalf("Retry-After-Ms = %q (%v), want a positive integer", shedResp.Header.Get("Retry-After-Ms"), err)
	}
	if shedBody.RetryAfterMS != ms {
		t.Fatalf("body retry_after_ms %d != header %d", shedBody.RetryAfterMS, ms)
	}

	// vcclient against the live daemon: with the backoff cap below the
	// hint, every recorded wait must equal the Retry-After-Ms floor.
	var sleepMu sync.Mutex
	var sleeps []time.Duration
	client, err := vcclient.New(vcclient.Config{
		BaseURL:     srv.URL,
		Retries:     2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Sleep: func(d time.Duration) {
			sleepMu.Lock()
			sleeps = append(sleeps, d)
			sleepMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := client.Schedule(service.WireRequest{Blocks: []string{blockC}})
	if err != nil || !cresp.AllShed {
		t.Fatalf("client.Schedule = %+v, %v; want the shed verdict after exhausted retries", cresp, err)
	}
	st := client.Stats()
	if st.Sheds != 3 || st.Retries != 2 {
		t.Fatalf("client stats = %+v, want 3 sheds / 2 retries", st)
	}
	sleepMu.Lock()
	recorded := append([]time.Duration(nil), sleeps...)
	sleepMu.Unlock()
	if len(recorded) != 2 {
		t.Fatalf("client backoffs = %v, want 2", recorded)
	}
	for i, d := range recorded {
		if d < time.Duration(ms)*time.Millisecond {
			t.Fatalf("backoff %d = %v below the daemon's %dms hint", i, d, ms)
		}
	}

	close(runner.release)
	wg.Wait()
}

func TestStatszDeterministicBytes(t *testing.T) {
	srv, _ := newTestServer(t)
	postSchedule(t, srv, service.WireRequest{Blocks: []string{ir.PaperFigure1().String()}})

	get := func() string {
		resp, err := http.Get(srv.URL + "/v1/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("statsz: status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	a, b := get(), get()
	if a != b {
		t.Fatalf("two statsz snapshots of an idle service differ:\n%s\n%s", a, b)
	}

	// Field order is struct order, so the snapshot is diffable; the
	// stamped version leads.
	var st service.Stats
	if err := json.Unmarshal([]byte(a), &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != version.String() {
		t.Fatalf("statsz version %q, want %q", st.Version, version.String())
	}
	if st.Requests < 1 || st.Scheduled < 1 {
		t.Fatalf("statsz counters did not move: %+v", st)
	}
	order := []string{`"version"`, `"workers"`, `"queue_depth"`, `"requests"`, `"cache_hits"`, `"tier_sg"`}
	last := -1
	for _, key := range order {
		i := strings.Index(a, key)
		if i <= last {
			t.Fatalf("statsz field %s out of order in:\n%s", key, a)
		}
		last = i
	}
}
