package loadsim

import (
	"fmt"
	"strings"
	"time"

	"vcsched/internal/core"
	"vcsched/internal/hollow"
	"vcsched/internal/service"
	"vcsched/internal/stats"
	"vcsched/internal/vcclient"
)

// remote submits to a daemon or router over HTTP: each submission is
// one POST /v1/schedule through a *vcclient.Client, each answer maps
// back to per-block Results, and a submission the client could not
// deliver loses every block it carried, each a hard failure with the
// router's "unreachable" taxonomy.
type remote struct {
	client *vcclient.Client
}

// SubmitBatch sends one wire request. Every block in a submission
// shares its machine, pin seed, deadline and step budget.
func (w *remote) SubmitBatch(reqs []*service.Request) []service.Result {
	wreq := service.WireRequest{
		Blocks:    make([]string, len(reqs)),
		Machine:   reqs[0].Machine.Key(),
		PinSeed:   reqs[0].PinSeed,
		TimeoutMS: reqs[0].Deadline.Milliseconds(),
		MaxSteps:  reqs[0].Core.MaxSteps,
	}
	for i, req := range reqs {
		wreq.Blocks[i] = service.Canonical(req.SB).String()
	}
	resp, err := w.client.Schedule(wreq)
	taxonomy := "unreachable"
	if err == nil && len(resp.Results) != len(reqs) {
		err, taxonomy = fmt.Errorf("answered %d results for %d blocks", len(resp.Results), len(reqs)), "internal"
	}
	out := make([]service.Result, len(reqs))
	for i, req := range reqs {
		if err != nil {
			out[i] = service.Result{Block: req.SB.Name, Err: err.Error(), Taxonomy: taxonomy, HardFailure: true}
		} else {
			out[i] = resp.Results[i].ToResult()
		}
	}
	return out
}

// Replay offers sc's traffic to the daemon (or router) behind client,
// on the wall clock, and returns the measured report. Only the traffic
// fields apply: Replay refuses a scenario that sizes or scripts the
// in-process harness, because over the wire the daemon is the system
// under test.
func Replay(sc *Scenario, client *vcclient.Client) (*Report, error) {
	d := sc.withDefaults()
	if set := d.inProcessFields(); len(set) > 0 {
		return nil, fmt.Errorf("loadsim: scenario %s sets %s, which only the in-process harness uses; over the wire the daemon is the system under test",
			d.Name, strings.Join(set, ", "))
	}
	m, pool, err := prepare(&d)
	if err != nil {
		return nil, err
	}
	col := newCollector(d.Name)
	start := time.Now()
	runStages(&d, &remote{client: client}, pool, m, core.Options{}, hollow.WallClock{}, nil, col)
	col.rep.DurationMS = stats.Millis(time.Since(start))
	col.rep.finalize()
	return &col.rep, nil
}
