package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/difftest"
	"vcsched/internal/httpapi"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/resilient"
	"vcsched/internal/sched"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

const (
	// vocabSeed is vcload's generator seed. The serve and fleet blocks
	// are the same for every run; --seed orders them (README.md).
	vocabSeed = 7
	// vocabMaxInstrs caps the generated blocks. Up to 16 instructions the
	// search stays shallow (0.6 ms mean, 130 ms worst, in process); at
	// vcload's default cap of 24 some blocks fall to CARS after 0.8 s of
	// search and a handful of them set the throughput.
	vocabMaxInstrs = 16
)

// defaults are vcschedd's and vcrouter's request defaults.
var defaults = httpapi.Defaults{MachineKey: machineKeys[0], PinSeed: pinSeed, MaxSteps: stepBudget}

// genBlock is one generated block and the machine it is sent for. Its
// .sb text is split around the execution count, the one field the
// scheduler never reads: a re-sent copy with a bumped count is a new
// request (a new fingerprint) that asks for exactly the same work.
type genBlock struct {
	sb   *ir.Superblock
	key  string
	head string // "superblock <name>\n"
	body string // everything after the execcount line
}

// vocabulary draws the first n blocks of the generated vocabulary,
// renamed "<name>.<j>" so that no two share a name, with block j sent
// for machine j mod 3.
func vocabulary(n int) []genBlock {
	g := difftest.NewGen(vocabSeed, vocabMaxInstrs)
	out := make([]genBlock, n)
	for j := range out {
		sb := g.Next()
		sb.Name = fmt.Sprintf("%s.%d", sb.Name, j)
		text := sb.String()
		head := text[:strings.IndexByte(text, '\n')+1]
		rest := text[len(head):]
		out[j] = genBlock{sb: sb, key: machineKeys[j%len(machineKeys)], head: head, body: rest[strings.IndexByte(rest, '\n')+1:]}
	}
	return out
}

// text is the block's .sb source with its execution count raised by
// bump.
func (b genBlock) text(bump int64) string {
	return b.head + "execcount " + strconv.FormatInt(b.sb.ExecCount+bump, 10) + "\n" + b.body
}

func (b genBlock) request(bump int64) service.WireRequest {
	return service.WireRequest{Blocks: []string{b.text(bump)}, Machine: b.key, TimeoutMS: deadline.Milliseconds()}
}

// server is one loopback HTTP server.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // in-flight exchanges are all finished; a timeout only means a stuck client
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("perfbench: server:", err)
	}
}

// shard is one scheduling daemon: the production service and ladder
// behind the vcschedd HTTP surface on loopback.
type shard struct {
	svc *service.Service
	srv *server
}

func startShard(tr *atomic.Pointer[tracer]) (*shard, error) {
	svc := service.New(service.Config{
		// vcschedd's ladder: -steps 20000 -parallel 4 sizes four workers,
		// each running the serial search.
		Ladder:          resilient.Options{Core: core.Options{MaxSteps: stepBudget, Parallelism: 4}},
		DefaultDeadline: deadline,
		MaxDeadline:     deadline,
	})
	srv, err := startServer(&tracedHandler{name: "shard.handle", next: httpapi.SchedulerMux(svc, defaults), tr: tr})
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &shard{svc: svc, srv: srv}, nil
}

func (s *shard) stop() {
	s.srv.stop()
	s.svc.Close()
}

// httpClient keeps one idle connection per caller, so closed-loop
// callers reuse connections instead of opening one per request.
func httpClient(callers int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * callers
	return &http.Client{Transport: tr}
}

// clientConfig is vcload's client: two retries, no hedging. The
// benchmark fails a run that needed either.
func clientConfig(seed int64, hc *http.Client) vcclient.Config {
	return vcclient.Config{Retries: 2, Seed: seed, HTTPClient: hc}
}

// callerLog is what one closed-loop caller saw.
type callerLog struct {
	failures
	lats []time.Duration
}

// closedLoop runs one goroutine per caller; each calls step, waiting for
// every reply before its next call, until the window closes. It returns
// when every caller has finished its last call, with the elapsed time.
func closedLoop(callers int, window time.Duration, step func(caller int, log *callerLog)) ([]callerLog, time.Duration) {
	logs := make([]callerLog, callers)
	start := time.Now()
	end := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(end) {
				step(c, &logs[c])
			}
		}(c)
	}
	wg.Wait()
	return logs, time.Since(start)
}

// rampWindow runs before the measured window and is not measured: the
// first seconds after set-up ran up to 25% slower than the rest.
const rampWindow = 2 * time.Second

// phases is what the closed loop measured.
type phases struct {
	lats    []time.Duration // of the measured window
	elapsed time.Duration
	tracer  *tracer // of the traced slices, in a traced run
}

func (p phases) rate() float64 { return float64(len(p.lats)) / p.elapsed.Seconds() }

// traceSlice is the length of the alternating untraced and traced
// slices of a traced run's window.
const traceSlice = time.Second

// runPhases drives the closed loop through an unmeasured ramp and the
// measured window. A traced run alternates untraced and traced slices
// over the window, so a drift in host speed cannot pose as tracing
// overhead, and records the overhead. Every request of every phase is
// checked and counted.
func runPhases(o *outcome, cfg runConfig, tr *atomic.Pointer[tracer], step func(int, *callerLog)) phases {
	logs, _ := closedLoop(cfg.callers, rampWindow, step)
	merge(o, logs)
	var p phases
	if !cfg.trace {
		logs, p.elapsed = closedLoop(cfg.callers, cfg.window, step)
		p.lats = merge(o, logs)
		return p
	}
	p.tracer = newTracer()
	var traced int
	var tracedTime time.Duration
	for n := 0; n < 2 || time.Duration(n)*traceSlice < cfg.window; n++ {
		if n%2 == 1 {
			tr.Store(p.tracer)
		}
		logs, elapsed := closedLoop(cfg.callers, traceSlice, step)
		tr.Store(nil)
		lats := merge(o, logs)
		if n%2 == 1 {
			traced += len(lats)
			tracedTime += elapsed
			continue
		}
		p.lats = append(p.lats, lats...)
		p.elapsed += elapsed
	}
	o.set("trace.overhead_pct", 100*(1-float64(traced)/tracedTime.Seconds()/p.rate()))
	return p
}

// merge folds the callers' logs into the outcome and returns every
// latency.
func merge(o *outcome, logs []callerLog) []time.Duration {
	var all []time.Duration
	for _, l := range logs {
		all = append(all, l.lats...)
		o.attempted += len(l.lats)
		o.failed += l.failed
		o.notes = append(o.notes, l.notes[:min(len(l.notes), 10-len(o.notes))]...)
	}
	return all
}

// checkReply checks one wire reply's verdict: a single scheduled block,
// no refusal or failure, served the way the workload expects (a cache
// hit or not), and far below the deadline.
func checkReply(resp *service.WireResponse, err error, lat time.Duration, wantHit bool) (*service.WireResult, error) {
	if err != nil {
		return nil, err
	}
	if lat >= deadline/5 {
		// A tier can time out only after a fifth of the deadline (the
		// ladder decays timeouts by half twice), so a faster reply rules
		// out every timeout-shaped attempt.
		return nil, fmt.Errorf("reply took %v, too close to the %v deadline", lat, deadline)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("%d results for one block", len(resp.Results))
	}
	r := &resp.Results[0]
	switch {
	case r.Error != "" || r.HardFailure || r.Shed || r.Taxonomy != "ok":
		return nil, fmt.Errorf("%s: %s (taxonomy %s)", r.Block, r.Error, r.Taxonomy)
	case r.Coalesced:
		return nil, fmt.Errorf("%s: coalesced with a concurrent duplicate", r.Block)
	case r.CacheHit != wantHit:
		return nil, fmt.Errorf("%s: cache hit %t, want %t", r.Block, r.CacheHit, wantHit)
	}
	return r, nil
}

// serviceDelta is the change of a shard's counters over a window.
func serviceDelta(before, after service.Stats) service.Stats {
	return service.Stats{
		Requests:      after.Requests - before.Requests,
		CacheHits:     after.CacheHits - before.CacheHits,
		CacheMisses:   after.CacheMisses - before.CacheMisses,
		Coalesced:     after.Coalesced - before.Coalesced,
		Shed:          after.Shed - before.Shed,
		QueueTimeouts: after.QueueTimeouts - before.QueueTimeouts,
		HardFailures:  after.HardFailures - before.HardFailures,
		WatchdogKills: after.WatchdogKills - before.WatchdogKills,
		Scheduled:     after.Scheduled - before.Scheduled,
		TierSG:        after.TierSG - before.TierSG,
	}
}

// guardService fails the run on any shed, queue expiry, hard failure or
// watchdog kill a shard counted.
func guardService(o *outcome, name string, d service.Stats) {
	o.failN(int(d.Shed), "%s shed %d requests", name, d.Shed)
	o.failN(int(d.QueueTimeouts), "%s expired %d requests in its queue", name, d.QueueTimeouts)
	o.failN(int(d.HardFailures), "%s hard-failed %d requests", name, d.HardFailures)
	o.failN(int(d.WatchdogKills), "%s watchdog killed %d executions", name, d.WatchdogKills)
}

// guardClient fails the run on any client retry, hedge or shed reply:
// each means the wall clock or a refusal shaped what the caller saw. It
// records vcclient.tries_per_req when given the request count.
func guardClient(o *outcome, name string, st vcclient.Stats, requests int) {
	o.failN(int(st.Retries), "%s retried %d times", name, st.Retries)
	o.failN(int(st.Hedges), "%s hedged %d times", name, st.Hedges)
	o.failN(int(st.Sheds), "%s saw %d shed replies", name, st.Sheds)
	if requests > 0 {
		o.set("vcclient.tries_per_req", float64(st.Tries)/float64(requests))
	}
}

// layerHTTP times, standalone over a sample of wire requests, the
// request path's pure functions: parsing, request expansion,
// fingerprinting, SG construction, and validation and encoding of the
// replies' schedules.
func layerHTTP(o *outcome, wreqs []service.WireRequest, schedules []*sched.Schedule) error {
	reqs := make([]*service.Request, len(wreqs))
	for i := range wreqs {
		rs, err := httpapi.BuildRequests(&wreqs[i], defaults)
		if err != nil {
			return err
		}
		reqs[i] = rs[0]
	}
	n := len(wreqs)
	o.set("ir.parse_us", perCallUS(n, func(i int) { _, _ = ir.ReadAll(strings.NewReader(wreqs[i].Blocks[0])) }))
	o.set("httpapi.build_us", perCallUS(n, func(i int) { _, _ = httpapi.BuildRequests(&wreqs[i], defaults) }))
	o.set("service.fingerprint_us", perCallUS(n, func(i int) { service.Fingerprint(reqs[i]) }))
	layerSG(o, n, func(i int) (*ir.Superblock, *machine.Config) { return reqs[i].SB, reqs[i].Machine })
	o.set("sched.validate_us", perCallUS(len(schedules), func(i int) { _ = schedules[i].Validate() }))
	var buf strings.Builder
	o.set("sched.encode_us", perCallUS(len(schedules), func(i int) {
		buf.Reset()
		_ = schedules[i].WriteText(&buf)
	}))
	return nil
}
