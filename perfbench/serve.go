package main

import (
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"vcsched/internal/machine"
	"vcsched/internal/sched"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

const (
	// servePool is the number of vocabulary blocks the serve stream
	// cycles through in a seeded order. Each lap re-sends the pool with
	// execution counts bumped by the lap number, so no two requests share
	// a fingerprint: every request is a cache miss and a cache write, and
	// a lap runs past the 4096-entry result cache.
	servePool = 5000
	// serveCacheEntries is the service's default result-cache size.
	serveCacheEntries = 4096
)

// serveRig is the serve workload's system: one daemon and its client.
type serveRig struct {
	pool   []genBlock
	order  []int
	shard  *shard
	hc     *http.Client
	client *vcclient.Client
}

func startServe(cfg runConfig, tr *atomic.Pointer[tracer]) (*serveRig, error) {
	pool := vocabulary(servePool)
	order := rand.New(rand.NewSource(cfg.seed)).Perm(servePool)
	sh, err := startShard(tr)
	if err != nil {
		return nil, err
	}
	hc := httpClient(cfg.callers)
	ccfg := clientConfig(cfg.seed, hc)
	ccfg.BaseURL = sh.srv.url
	client, err := vcclient.New(ccfg)
	if err != nil {
		sh.stop()
		return nil, err
	}
	return &serveRig{pool: pool, order: order, shard: sh, hc: hc, client: client}, nil
}

func (r *serveRig) stop() {
	r.hc.CloseIdleConnections()
	r.shard.stop()
}

func runServe(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var tr atomic.Pointer[tracer]
	var rig *serveRig
	setup, err := timeSetup(func() error {
		var err error
		rig, err = startServe(cfg, &tr)
		return err
	}, func() { rig.stop() })
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	o.set("setup_s", setup)

	machines := map[string]*machine.Config{}
	for _, k := range machineKeys {
		if machines[k], err = machine.ByKey(k); err != nil {
			return nil, err
		}
	}
	// lap0 keeps each pool block's first schedule, for speedup_vs_cars.
	lap0 := make([]*sched.Schedule, servePool)
	var next atomic.Int64
	step := func(_ int, log *callerLog) {
		i := next.Add(1) - 1
		j, lap := rig.order[i%servePool], i/servePool
		b := rig.pool[j]
		t0 := time.Now()
		resp, err := rig.client.Schedule(b.request(lap))
		lat := time.Since(t0)
		log.lats = append(log.lats, lat)
		if t := tr.Load(); t != nil {
			t.add(span{Req: i + 1, Name: "client", Block: b.sb.Name, Start: t.at(t0), End: t.at(t0.Add(lat))})
		}
		// Output checks run after the reply is timed.
		r, err := checkReply(resp, err, lat, false)
		if err != nil {
			log.fail("serve request %d: %v", i, err)
			return
		}
		s, err := checkSchedule(r.Schedule, b.sb, machines[b.key], r.AWCT)
		if err != nil {
			log.fail("%v", err)
			return
		}
		if lap == 0 {
			lap0[j] = s
		}
	}

	before := rig.shard.svc.Stats()
	clientBefore := rig.client.Stats()
	ph := runPhases(o, cfg, &tr, step)
	d := serviceDelta(before, rig.shard.svc.Stats())
	guardService(o, "daemon", d)
	guardClient(o, "client", clientDelta(clientBefore, rig.client.Stats()), o.attempted)
	streamed := next.Load()
	if streamed < servePool {
		o.fail("the stream sent %d blocks, less than one lap of the %d-block pool", streamed, servePool)
	}

	var sp speedup
	var checked []*sched.Schedule
	var wreqs []service.WireRequest
	for j, s := range lap0 {
		if s == nil {
			continue // unsent, or its request already counted as failed
		}
		if err := sp.add(s); err != nil {
			o.fail("%v", err)
			continue
		}
		checked = append(checked, s)
		wreqs = append(wreqs, rig.pool[j].request(0))
	}
	o.set("speedup_vs_cars", sp.ratio())
	o.set("blocks_per_s", ph.rate())
	latencyMetrics(o, ph.lats)
	o.logf("serve: %d callers, %d blocks in %.2fs (%d streamed); daemon requests=%d misses=%d hits=%d coalesced=%d sg=%d/%d",
		cfg.callers, len(ph.lats), ph.elapsed.Seconds(), streamed, d.Requests, d.CacheMisses, d.CacheHits, d.Coalesced, d.TierSG, d.Scheduled)
	o.logf("serve: speedup_vs_cars=%.6f over the %d pool blocks", sp.ratio(), len(checked))

	if cfg.trace {
		t := ph.tracer
		if d.Requests > 0 {
			o.set("service.hit_frac", float64(d.CacheHits)/float64(d.Requests))
		}
		if d.Scheduled > 0 {
			o.set("ladder.sg_frac", float64(d.TierSG)/float64(d.Scheduled))
		}
		o.set("service.shed", float64(d.Shed))
		o.set("service.queue_timeouts", float64(d.QueueTimeouts))
		if orphans := t.link("shard.handle", "client"); orphans > 0 {
			o.fail("%d daemon spans matched no client span", orphans)
		}
		layers := t.summary(o)
		o.set("shard.server_ms", layers["shard.handle"].meanMS())
		o.set("client.overhead_ms", layers["client"].selfMS())
		o.set("httpapi.resp_kb", bytesKB(layers["shard.handle"]))
		if err := layerHTTP(o, wreqs, checked); err != nil {
			return nil, err
		}
		if err := t.finish(o, cfg); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func bytesKB(l layerTimes) float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.bytes) / float64(l.count) / 1024
}
