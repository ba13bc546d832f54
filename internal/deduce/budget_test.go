package deduce

import (
	"errors"
	"testing"
	"time"
)

// TestBudgetUsed: Used counts steps with and without a limit in force.
func TestBudgetUsed(t *testing.T) {
	b := NewBudget(0) // unlimited
	for i := 0; i < 5; i++ {
		if err := b.spend(); err != nil {
			t.Fatal(err)
		}
	}
	if b.Used() != 5 {
		t.Errorf("Used = %d, want 5", b.Used())
	}
	var nilB *Budget
	if nilB.Used() != 0 {
		t.Error("nil budget Used != 0")
	}
	lb := NewBudget(3)
	for i := 0; i < 3; i++ {
		if err := lb.spend(); err != nil {
			t.Fatal(err)
		}
	}
	if err := lb.spend(); !errors.Is(err, ErrBudget) {
		t.Fatalf("4th spend = %v, want ErrBudget", err)
	}
	if !lb.Exhausted() {
		t.Error("limited budget not Exhausted after overrun")
	}
}

// TestBudgetDeadlineStillWorks: once the deadline passes, spend fails
// with ErrBudget within the few-step check cadence.
func TestBudgetDeadlineStillWorks(t *testing.T) {
	b := NewBudget(0)
	b.SetDeadline(time.Now().Add(-time.Second))
	var err error
	for i := 0; i < 16; i++ {
		if err = b.spend(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("spend past deadline = %v, want ErrBudget", err)
	}
}
