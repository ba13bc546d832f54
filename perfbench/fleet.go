package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vcsched/internal/machine"
	"vcsched/internal/router"
	"vcsched/internal/sched"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

const (
	fleetShards = 3
	// fleetWorkingSet is the number of distinct blocks the fleet serves:
	// about 170 per shard, far inside each shard's 4096-entry cache.
	fleetWorkingSet = 512
)

// fleetRig is the fleet workload's system: shards, the router in front
// of them, a client, and the working set with its warm-up replies.
type fleetRig struct {
	blocks   []genBlock
	shards   []*shard
	rt       *router.Router
	rsrv     *server
	hcRouter *http.Client
	hc       *http.Client
	client   *vcclient.Client
	warm     []service.WireResult
}

// partition is the caller's share of the working set: each block
// belongs to one caller, so no two requests for a block are ever in
// flight together and none coalesces with another.
func partition(n, callers, caller int) []int {
	var idx []int
	for j := caller; j < n; j += callers {
		idx = append(idx, j)
	}
	return idx
}

func startFleet(cfg runConfig, tr *atomic.Pointer[tracer]) (*fleetRig, error) {
	rig := &fleetRig{blocks: vocabulary(fleetWorkingSet)}
	var urls []string
	for i := 0; i < fleetShards; i++ {
		sh, err := startShard(tr)
		if err != nil {
			rig.stop()
			return nil, err
		}
		rig.shards = append(rig.shards, sh)
		urls = append(urls, sh.srv.url)
	}
	rig.hcRouter = httpClient(cfg.callers)
	rt, err := router.New(router.Config{
		Backends:        urls,
		Defaults:        defaults,
		Client:          clientConfig(cfg.seed, rig.hcRouter),
		DefaultDeadline: deadline,
		MaxDeadline:     deadline,
	})
	if err != nil {
		rig.stop()
		return nil, err
	}
	rig.rt = rt
	if rig.rsrv, err = startServer(&tracedHandler{name: "router.handle", next: rt.Mux(), tr: tr}); err != nil {
		rig.stop()
		return nil, err
	}
	rig.hc = httpClient(cfg.callers)
	ccfg := clientConfig(cfg.seed, rig.hc)
	ccfg.BaseURL = rig.rsrv.url
	if rig.client, err = vcclient.New(ccfg); err != nil {
		rig.stop()
		return nil, err
	}

	// Warm every shard's cache: each caller sends its partition once.
	rig.warm = make([]service.WireResult, fleetWorkingSet)
	errs := make([]error, cfg.callers)
	var wg sync.WaitGroup
	for c := 0; c < cfg.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, j := range partition(fleetWorkingSet, cfg.callers, c) {
				resp, err := rig.client.Schedule(rig.blocks[j].request(0))
				if err == nil && len(resp.Results) != 1 {
					err = fmt.Errorf("%d results for one block", len(resp.Results))
				}
				if err != nil {
					errs[c] = fmt.Errorf("warming %s: %w", rig.blocks[j].sb.Name, err)
					return
				}
				rig.warm[j] = resp.Results[0]
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			rig.stop()
			return nil, err
		}
	}
	return rig, nil
}

func (r *fleetRig) stop() {
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	if r.rsrv != nil {
		r.rsrv.stop()
	}
	if r.rt != nil {
		r.rt.Close()
	}
	if r.hcRouter != nil {
		r.hcRouter.CloseIdleConnections()
	}
	for _, sh := range r.shards {
		sh.stop()
	}
}

func (r *fleetRig) shardStats() []service.Stats {
	out := make([]service.Stats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.svc.Stats()
	}
	return out
}

func runFleet(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var tr atomic.Pointer[tracer]
	var rig *fleetRig
	setup, err := timeSetup(func() error {
		var err error
		rig, err = startFleet(cfg, &tr)
		return err
	}, func() { rig.stop() })
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	o.set("setup_s", setup)

	// Check the warm-up replies: the references every timed hit must
	// equal byte for byte.
	var sp speedup
	var warmSchedules []*sched.Schedule
	for j, w := range rig.warm {
		r, err := checkReply(&service.WireResponse{Results: []service.WireResult{w}}, nil, 0, false)
		if err != nil {
			o.fail("warm-up %s: %v", rig.blocks[j].sb.Name, err)
			continue
		}
		m, err := machine.ByKey(rig.blocks[j].key)
		if err != nil {
			return nil, err
		}
		s, err := checkSchedule(r.Schedule, rig.blocks[j].sb, m, r.AWCT)
		if err != nil {
			o.fail("warm-up: %v", err)
			continue
		}
		if err := sp.add(s); err != nil {
			o.fail("warm-up: %v", err)
			continue
		}
		warmSchedules = append(warmSchedules, s)
	}
	warmed := rig.shardStats()
	var warmMisses int64
	for _, st := range warmed {
		warmMisses += st.CacheMisses
	}
	if warmMisses != fleetWorkingSet {
		o.fail("warm-up missed %d times, want one miss per block (%d)", warmMisses, fleetWorkingSet)
	}

	orders := make([][]int, cfg.callers)
	for c := range orders {
		orders[c] = partition(fleetWorkingSet, cfg.callers, c)
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
		rng.Shuffle(len(orders[c]), func(a, b int) { orders[c][a], orders[c][b] = orders[c][b], orders[c][a] })
	}
	pos := make([]int, cfg.callers)
	var req atomic.Int64
	step := func(c int, log *callerLog) {
		j := orders[c][pos[c]%len(orders[c])]
		pos[c]++
		t0 := time.Now()
		resp, err := rig.client.Schedule(rig.blocks[j].request(0))
		lat := time.Since(t0)
		log.lats = append(log.lats, lat)
		if t := tr.Load(); t != nil {
			t.add(span{Req: req.Add(1), Name: "client", Block: rig.blocks[j].sb.Name, Start: t.at(t0), End: t.at(t0.Add(lat))})
		}
		r, err := checkReply(resp, err, lat, true)
		if err != nil {
			log.fail("fleet %s: %v", rig.blocks[j].sb.Name, err)
			return
		}
		got := *r
		got.CacheHit = false
		if got != rig.warm[j] {
			log.fail("fleet %s: hit differs from its warm-up reply", rig.blocks[j].sb.Name)
		}
	}

	routerBefore := rig.rt.Stats()
	clientBefore := rig.client.Stats()
	ph := runPhases(o, cfg, &tr, step)

	after := rig.shardStats()
	var total service.Stats
	var maxReq int64
	for i := range after {
		d := serviceDelta(warmed[i], after[i])
		guardService(o, fmt.Sprintf("shard %d", i), d)
		total.Requests += d.Requests
		total.CacheHits += d.CacheHits
		total.CacheMisses += d.CacheMisses
		total.Coalesced += d.Coalesced
		total.Shed += d.Shed
		total.QueueTimeouts += d.QueueTimeouts
		maxReq = max(maxReq, d.Requests)
	}
	o.failN(int(total.CacheMisses), "shards missed their caches %d times in the timed window", total.CacheMisses)
	routerAfter := rig.rt.Stats()
	o.failN(int(routerAfter.Coalesced-routerBefore.Coalesced), "router coalesced %d requests", routerAfter.Coalesced-routerBefore.Coalesced)
	o.failN(int(routerAfter.Rehomed-routerBefore.Rehomed), "router rehomed %d requests", routerAfter.Rehomed-routerBefore.Rehomed)
	o.failN(int(routerAfter.Unroutable-routerBefore.Unroutable), "router could not route %d requests", routerAfter.Unroutable-routerBefore.Unroutable)
	guardClient(o, "router forward client", clientDelta(routerBefore.Client, routerAfter.Client), 0)
	guardClient(o, "client", clientDelta(clientBefore, rig.client.Stats()), o.attempted)

	hitFrac := 0.0
	if total.Requests > 0 {
		hitFrac = float64(total.CacheHits) / float64(total.Requests)
	}
	o.set("speedup_vs_cars", sp.ratio())
	o.set("blocks_per_s", ph.rate())
	latencyMetrics(o, ph.lats)
	o.logf("fleet: %d shards, %d callers, %d blocks in %.2fs", fleetShards, cfg.callers, len(ph.lats), ph.elapsed.Seconds())
	o.logf("fleet: exact counts: warm-up misses=%d timed misses=%d hit_frac=%.6f; speedup_vs_cars=%.6f over the %d-block working set",
		warmMisses, total.CacheMisses, hitFrac, sp.ratio(), len(warmSchedules))

	if cfg.trace {
		t := ph.tracer
		o.set("service.hit_frac", hitFrac)
		o.set("service.shed", float64(total.Shed))
		o.set("service.queue_timeouts", float64(total.QueueTimeouts))
		if total.Requests > 0 {
			o.set("router.shard_skew", float64(maxReq)*float64(len(after))/float64(total.Requests))
		}
		orphans := t.link("router.handle", "client") + t.link("shard.handle", "router.handle")
		if orphans > 0 {
			o.fail("%d server spans matched no caller span", orphans)
		}
		layers := t.summary(o)
		o.set("router.self_ms", layers["router.handle"].selfMS())
		o.set("shard.server_ms", layers["shard.handle"].meanMS())
		o.set("client.overhead_ms", layers["client"].selfMS())
		o.set("httpapi.resp_kb", bytesKB(layers["shard.handle"]))
		wreqs := make([]service.WireRequest, fleetWorkingSet)
		for j := range wreqs {
			wreqs[j] = rig.blocks[j].request(0)
		}
		if err := layerHTTP(o, wreqs, warmSchedules); err != nil {
			return nil, err
		}
		if err := t.finish(o, cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func clientDelta(before, after vcclient.Stats) vcclient.Stats {
	return vcclient.Stats{
		Tries:   after.Tries - before.Tries,
		Retries: after.Retries - before.Retries,
		Hedges:  after.Hedges - before.Hedges,
		Sheds:   after.Sheds - before.Sheds,
	}
}
