package core

import (
	"errors"
	"testing"

	"vcsched/internal/faultpoint"
	"vcsched/internal/ir"
	"vcsched/internal/machine"
	"vcsched/internal/workload"
)

// A panic in the stage loop must come back as a recovered *PanicError
// wrapping ErrInternal — with the stage and exit vector attached —
// never as a dead process.
func TestPanicBecomesStructuredError(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()

	sb := ir.PaperFigure1()
	m := machine.TwoCluster1Lat()
	pins := workload.PinsFor(sb, m.Clusters, 1)

	faultpoint.Arm("core.stage", faultpoint.Fault{Kind: faultpoint.KindPanic})
	s, _, err := Schedule(sb, m, Options{Pins: pins})
	if s != nil {
		t.Fatal("got a schedule alongside an injected panic")
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not a *PanicError: %v", err, err)
	}
	if pe.Stage == "" {
		t.Errorf("PanicError carries no stage: %+v", pe)
	}
	if len(pe.Vector) == 0 {
		t.Errorf("PanicError carries no exit vector: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
}

// A panic in the coloring oracle — a different package from the stage
// loop — must be recovered by the same attempt wrapper.
func TestColoringPanicRecovered(t *testing.T) {
	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm("coloring.maxclique", faultpoint.Fault{Kind: faultpoint.KindPanic})

	sb := ir.PaperFigure1()
	m := machine.TwoCluster1Lat()
	_, _, err := Schedule(sb, m, Options{Pins: workload.PinsFor(sb, m.Clusters, 1)})
	if err == nil {
		t.Fatal("injected coloring panic did not fail the schedule")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not a *PanicError: %v", err, err)
	}
}
