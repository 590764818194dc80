package sim

import (
	"testing"
)

func TestLivePendingIgnoresCancelled(t *testing.T) {
	e := NewEngine(1)
	keep := 0
	e.At(10, func() { keep++ })
	ev1 := e.At(20, func() {})
	ev2 := e.At(30, func() {})
	ev1.Cancel()
	ev2.Cancel()
	// Pending counts cancelled entries until reaped; LivePending must not.
	if p, lp := e.Pending(), e.LivePending(); p != 3 || lp != 1 {
		t.Fatalf("Pending=%d LivePending=%d, want 3 and 1", p, lp)
	}
	if err := e.DrainCheck(); err == nil {
		t.Fatal("DrainCheck passed with a live event queued")
	}
	e.Run()
	if keep != 1 {
		t.Fatalf("live event did not fire (keep=%d)", keep)
	}
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("DrainCheck after full drain: %v", err)
	}
}

func TestLivePendingSeesBatchTail(t *testing.T) {
	// While a same-timestamp batch is active, unfired batch entries must be
	// counted: schedule two events at t=10; the first one checks LivePending
	// mid-batch.
	e := NewEngine(1)
	var mid int
	e.At(10, func() { mid = e.LivePending() })
	e.At(10, func() {})
	e.At(50, func() {})
	e.Run()
	if mid != 2 {
		t.Fatalf("LivePending mid-batch = %d, want 2 (batch tail + heap)", mid)
	}
}

func TestDrainCheckCleanOnFreshEngine(t *testing.T) {
	e := NewEngine(1)
	if err := e.DrainCheck(); err != nil {
		t.Fatalf("fresh engine DrainCheck: %v", err)
	}
}
