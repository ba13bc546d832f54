package loadsim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vcsched/internal/hollow"
)

func validScenario() Scenario {
	return Scenario{
		Name:   "valid",
		Gen:    4,
		Stages: []Stage{{RPS: 100, Requests: 10}},
		Service: ServiceSpec{
			Workers: 1, QueueDepth: 4, DefaultDeadlineMS: 60000,
		},
		Hollow:       &HollowSpec{CostMinMS: 1, CostMaxMS: 2},
		VirtualClock: true,
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	// Zero-value knobs must default, not fail.
	minimal := Scenario{Name: "minimal", Stages: []Stage{{Requests: 1}}}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal scenario rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "no name"},
		{"negative rps", func(s *Scenario) { s.Stages[0].RPS = -1 }, "rps"},
		{"zero requests", func(s *Scenario) { s.Stages[0].Requests = 0 }, "requests"},
		{"no stages", func(s *Scenario) { s.Stages = nil }, "stages"},
		{"dup rate above 1", func(s *Scenario) { s.DupRate = 1.5 }, "dup_rate"},
		{"negative batch", func(s *Scenario) { s.Batch = -1 }, "batch"},
		{"negative concurrency", func(s *Scenario) { s.Concurrency = -2 }, "concurrency"},
		{"deadline band zero ms", func(s *Scenario) { s.DeadlineMix = []DeadlineBand{{MS: 0, Weight: 1}} }, "ms"},
		{"deadline band zero weight", func(s *Scenario) { s.DeadlineMix = []DeadlineBand{{MS: 5, Weight: 0}} }, "weight"},
		{"hollow negative cost", func(s *Scenario) { s.Hollow.CostMinMS = -1 }, "cost_min_ms"},
		{"hollow inverted costs", func(s *Scenario) { s.Hollow.CostMaxMS = 0.5 }, "cost_max_ms"},
		{"overload zero extra", func(s *Scenario) { s.Overload = &OverloadSpec{} }, "extra"},
		{"overload implicit sizing", func(s *Scenario) {
			s.Service.Workers = 0
			s.Overload = &OverloadSpec{Extra: 1}
		}, "explicit service.workers"},
		{"overload pool too small", func(s *Scenario) {
			s.Overload = &OverloadSpec{Extra: 4} // workers 1 + queue 4 + extra 4 = 9 > gen 4
		}, "distinct fingerprints"},
	}
	for _, c := range cases {
		sc := validScenario()
		c.mutate(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the scenario", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestPacingInterval(t *testing.T) {
	cases := []struct {
		rps  float64
		want time.Duration
	}{
		{0, 0},           // documented: 0 = unpaced
		{1, time.Second}, //
		{100, 10 * time.Millisecond},
		{0.5, 2 * time.Second}, // fractional rates slow down, not truncate
		{2000, 500 * time.Microsecond},
	}
	for _, c := range cases {
		got, err := PacingInterval(c.rps)
		if err != nil {
			t.Errorf("PacingInterval(%v) error: %v", c.rps, err)
			continue
		}
		if got != c.want {
			t.Errorf("PacingInterval(%v) = %v, want %v", c.rps, got, c.want)
		}
	}
	if _, err := PacingInterval(-1); err == nil {
		t.Error("PacingInterval(-1) accepted a negative rate")
	}
}

func TestLoadScenarioRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(path, []byte(`{"name":"typo","stages":[{"rps":1,"requests":1}],"dup_rat":0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(path); err == nil || !strings.Contains(err.Error(), "dup_rat") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestLoadSuiteSortedAndUniqueNames(t *testing.T) {
	dir := t.TempDir()
	write := func(file, name string) {
		body := `{"name":"` + name + `","stages":[{"rps":0,"requests":1}]}`
		if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("20_b.json", "beta")
	write("10_a.json", "alpha")
	suite, err := LoadSuite(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 2 || suite[0].Name != "alpha" || suite[1].Name != "beta" {
		t.Fatalf("suite not in filename order: %+v", suite)
	}

	write("30_dup.json", "alpha")
	if _, err := LoadSuite(dir); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("duplicate scenario name not rejected: %v", err)
	}

	if _, err := LoadSuite(t.TempDir()); err == nil {
		t.Fatal("empty suite dir not rejected")
	}
}

func TestHollowCostDeterministicAndBounded(t *testing.T) {
	h := hollow.NewHollowRunner(hollow.HollowConfig{CostMin: 2 * time.Millisecond, CostMax: 10 * time.Millisecond})
	fps := []string{"a", "b", "c", "deadbeef", strings.Repeat("f", 64)}
	for _, fp := range fps {
		c := h.Cost(fp)
		if c < 2*time.Millisecond || c > 10*time.Millisecond {
			t.Errorf("Cost(%q) = %v outside [2ms, 10ms]", fp, c)
		}
		if again := h.Cost(fp); again != c {
			t.Errorf("Cost(%q) not deterministic: %v then %v", fp, c, again)
		}
	}
	// A fixed-cost runner: max clamped up to min.
	fixed := hollow.NewHollowRunner(hollow.HollowConfig{CostMin: 5 * time.Millisecond, CostMax: time.Millisecond})
	if c := fixed.Cost("x"); c != 5*time.Millisecond {
		t.Errorf("fixed-cost runner charged %v, want 5ms", c)
	}
}
