package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vcsched/internal/hollow"
	"vcsched/internal/httpapi"
	"vcsched/internal/service"
)

// writeScenario writes a scenario file into a fresh temp dir.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "traffic.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// startDaemon serves a hollow-backed service through the daemon's own
// mux, the way vcschedd does.
func startDaemon(t *testing.T) (addr string, svc *service.Service) {
	t.Helper()
	svc = service.New(service.Config{
		Workers:         2,
		QueueDepth:      64,
		DefaultDeadline: 30 * time.Second,
		Runner:          hollow.NewHollowRunner(hollow.HollowConfig{CostMin: time.Millisecond, CostMax: 2 * time.Millisecond}),
	})
	srv := httptest.NewServer(httpapi.SchedulerMux(svc, httpapi.Defaults{MachineKey: "2c1l", PinSeed: 1, MaxSteps: 20000}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return strings.TrimPrefix(srv.URL, "http://"), svc
}

// TestReplaysTrafficScenarioOverHTTP drives vcload's whole path (flags,
// scenario file, loadsim replay through vcclient) against an httptest
// daemon: every block is answered, none hard-fails, and the summary
// counts what the daemon saw.
func TestReplaysTrafficScenarioOverHTTP(t *testing.T) {
	addr, svc := startDaemon(t)
	path := writeScenario(t, `{
		"name": "wire",
		"seed": 7,
		"gen": 6,
		"max_instrs": 12,
		"stages": [{"rps": 0, "requests": 30}],
		"dup_rate": 0.5,
		"batch": 2,
		"concurrency": 4
	}`)
	var out, errb strings.Builder
	if code := run([]string{"-addr", addr, "-scenario", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{
		"wire: 30 requests, 60 blocks",
		"hard-failures 0",
		"client tries 30  retries 0",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
	if st := svc.Stats(); st.Requests != 60 || st.HardFailures != 0 {
		t.Errorf("daemon saw %d blocks (%d hard failures), want 60 (0)", st.Requests, st.HardFailures)
	}
}

// TestRefusesInProcessFields: a scenario field that sizes or scripts
// the in-process harness has no meaning over the wire, so vcload exits
// 1 naming it, before sending anything.
func TestRefusesInProcessFields(t *testing.T) {
	addr, svc := startDaemon(t)
	const hollowSpec = `"hollow": {"cost_min_ms": 1, "cost_max_ms": 2}`
	cases := []struct {
		field  string
		fields string
	}{
		{"service", `"service": {"workers": 2}`},
		{"hollow", hollowSpec},
		{"virtual_clock", hollowSpec + `, "virtual_clock": true`},
		{"overload", hollowSpec + `, "service": {"workers": 1, "queue_depth": 1}, "overload": {"extra": 1}`},
		{"faults", hollowSpec + `, "virtual_clock": true, "faults": [{"point": "service.worker", "kind": "panic", "from_ms": 0, "to_ms": 10}]`},
		{"fleet", hollowSpec + `, "fleet": {"shards": 2}`},
	}
	for _, tc := range cases {
		path := writeScenario(t, `{"name": "refused", "stages": [{"rps": 0, "requests": 1}], `+tc.fields+`}`)
		var out, errb strings.Builder
		code := run([]string{"-addr", addr, "-scenario", path}, &out, &errb)
		if code != 1 || !strings.Contains(errb.String(), tc.field) || !strings.Contains(errb.String(), "in-process") {
			t.Errorf("%s: exit %d, stderr %q; want exit 1 naming the field", tc.field, code, errb.String())
		}
	}
	if n := svc.Stats().Requests; n != 0 {
		t.Errorf("refused scenarios still sent %d blocks", n)
	}
}
