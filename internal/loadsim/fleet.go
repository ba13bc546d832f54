package loadsim

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"vcsched/internal/hollow"
	"vcsched/internal/httpapi"
	"vcsched/internal/router"
	"vcsched/internal/service"
	"vcsched/internal/vcclient"
)

// fleet is cmd/vcrouter over N vcschedd shards, in one process: N
// service replicas (sharing one hollow runner and one clock) behind
// the daemon's mux, the real internal/router in front, and a vcclient
// aimed at the router, so fleet scenarios measure the routing code
// that ships.
type fleet struct {
	shards []*service.Service
	router *router.Router
	front  *remote
}

// newFleet builds the router and its shards, both with the scenario's
// request defaults so they fingerprint a block alike.
func newFleet(d *Scenario, cfg service.Config, clock hollow.Clock) (*fleet, error) {
	hosts := hostMux{}
	client := &http.Client{Transport: hosts}
	front, err := vcclient.New(vcclient.Config{BaseURL: "http://router", HTTPClient: client})
	if err != nil {
		return nil, err
	}
	defaults := httpapi.Defaults{MachineKey: d.Machine, PinSeed: d.PinSeed}
	f := &fleet{front: &remote{client: front}}
	var backends []string
	for i := 0; i < d.Fleet.Shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		svc := service.New(cfg)
		hosts[name] = httpapi.SchedulerMux(svc, defaults)
		f.shards = append(f.shards, svc)
		backends = append(backends, "http://"+name)
	}
	f.router, err = router.New(router.Config{
		Backends:       backends,
		Defaults:       defaults,
		Client:         vcclient.Config{HTTPClient: client},
		HealthInterval: -1,
		HTTPClient:     client,
		Now:            clock.Now,
	})
	if err != nil {
		drain(f.shards)
		return nil, err
	}
	hosts["router"] = f.router.Mux()
	return f, nil
}

// hostMux is an in-memory http.RoundTripper: it serves each request
// with the handler registered under the URL's host name. Fixed host
// names ("router", "shard-0", ...) keep ring placement identical on
// every run, which ephemeral loopback ports would not.
type hostMux map[string]http.Handler

func (m hostMux) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := m[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("loadsim: no in-process host %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}
