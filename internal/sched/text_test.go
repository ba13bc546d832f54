package sched

import (
	"strings"
	"testing"

	"vcsched/internal/ir"
	"vcsched/internal/machine"
)

func TestScheduleRoundTrip(t *testing.T) {
	s := section5Schedule(t)
	s.Pins = Pins{LiveIn: []int{1, 0}, LiveOut: []int{1}}
	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(strings.NewReader(b.String()), s.SB, s.Mach)
	if err != nil {
		t.Fatalf("ReadSchedule: %v\ninput:\n%s", err, b.String())
	}
	for i := range s.Place {
		if got.Place[i] != s.Place[i] {
			t.Errorf("place %d: %+v vs %+v", i, got.Place[i], s.Place[i])
		}
	}
	if len(got.Comms) != len(s.Comms) {
		t.Fatalf("comms: %v vs %v", got.Comms, s.Comms)
	}
	for i := range s.Comms {
		if got.Comms[i] != s.Comms[i] {
			t.Errorf("comm %d: %+v vs %+v", i, got.Comms[i], s.Comms[i])
		}
	}
	if len(got.Pins.LiveIn) != 2 || got.Pins.LiveIn[0] != 1 || len(got.Pins.LiveOut) != 1 {
		t.Errorf("pins lost: %+v", got.Pins)
	}
	if got.AWCT() != s.AWCT() {
		t.Errorf("AWCT drifted: %g vs %g", got.AWCT(), s.AWCT())
	}
}

// TestWriteTextCanonical: serializing the same schedule with its
// communications recorded in different orders must produce identical
// bytes — required for golden tests and for diffing saved schedules.
func TestWriteTextCanonical(t *testing.T) {
	a := section5Schedule(t)
	b := section5Schedule(t)
	b.Comms = []Comm{b.Comms[1], b.Comms[0]} // reversed materialization order

	render := func(s *Schedule) string {
		var sb strings.Builder
		if err := s.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if ta, tb := render(a), render(b); ta != tb {
		t.Errorf("WriteText not canonical:\n%s\nvs\n%s", ta, tb)
	}
	if fa, fb := a.Format(), b.Format(); fa != fb {
		t.Errorf("Format not canonical:\n%s\nvs\n%s", fa, fb)
	}
}

// TestFormatExitCycles: sorted keys, independent of map insertion order.
func TestFormatExitCycles(t *testing.T) {
	got := FormatExitCycles(map[int]int{6: 7, 4: 5})
	if got != "[4:5 6:7]" {
		t.Errorf("FormatExitCycles = %q, want \"[4:5 6:7]\"", got)
	}
	for i := 0; i < 20; i++ {
		if again := FormatExitCycles(map[int]int{6: 7, 4: 5}); again != got {
			t.Fatalf("unstable output: %q vs %q", again, got)
		}
	}
}

func TestReadScheduleErrors(t *testing.T) {
	sb := ir.PaperFigure1()
	m := machine.PaperExampleSection5()
	cases := []string{
		"",                                  // empty
		"place 0 0 0",                       // before header
		"schedule wrong-name",               // name mismatch
		"schedule paper-fig1\nplace 99 0 0", // id out of range
		"schedule paper-fig1\nplace 0 x 0",  // bad int
		"schedule paper-fig1\ncomm 0",       // short comm
		"schedule paper-fig1\npin potato 1", // unknown pin kind
		"schedule paper-fig1\nfrobnicate",   // unknown directive
	}
	for _, text := range cases {
		if _, err := ReadSchedule(strings.NewReader(text), sb, m); err == nil {
			t.Errorf("ReadSchedule(%q) succeeded", text)
		}
	}
}
