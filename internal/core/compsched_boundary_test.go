package core

import (
	"testing"

	"chopin/internal/composite/plan"
)

// driveFullExchange runs a full all-pairs exchange through the composition
// scheduler on an n-GPU direct-send plan, completing one in-flight session
// at a time in start order, and returns the set of completed transfers.
func driveFullExchange(t *testing.T, n int) map[[2]int]bool {
	t.Helper()
	ps := compScheduler(t, n)
	for g := 0; g < n; g++ {
		ps.SetReady(g)
	}
	transfers := map[[2]int]bool{}
	var inflight []plan.Session
	for rounds := 0; !ps.Done(); rounds++ {
		if rounds > 4*n*n {
			t.Fatalf("exchange did not converge after %d transfers", len(transfers))
		}
		inflight = append(inflight, ps.NextSessions()...)
		if len(inflight) == 0 {
			t.Fatalf("deadlock: nothing in flight after %d transfers", len(transfers))
		}
		s := inflight[0]
		inflight = inflight[1:]
		if err := ps.Complete(s); err != nil {
			t.Fatal(err)
		}
		key := [2]int{s.Sender, s.Receiver}
		if transfers[key] {
			t.Fatalf("duplicate transfer %v", key)
		}
		transfers[key] = true
	}
	return transfers
}

// TestNewCompositionSchedulerBounds pins the constructor's domain: 1–64
// GPUs (the width of Table I's GPU vectors) are accepted, and everything
// outside errors.
func TestNewCompositionSchedulerBounds(t *testing.T) {
	if _, err := NewPlanScheduler(nil); err == nil {
		t.Error("NewPlanScheduler(nil): want error")
	}
	for _, n := range []int{-1, 0, 65, 128} {
		if _, err := NewPlanScheduler(&plan.Plan{N: n, Height: 16}); err == nil {
			t.Errorf("NewPlanScheduler(N=%d): want error", n)
		}
	}
	for _, n := range []int{1, 33, 64} {
		p, err := plan.DirectSend(n, 16)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewPlanScheduler(p); err != nil {
			t.Errorf("NewPlanScheduler(direct-send %d): %v", n, err)
		}
	}
}

// TestCompositionSchedulerExchange33 crosses the 32-bit boundary: with 33
// GPUs the candidate bitsets span words, and the exchange must still
// complete every ordered pair exactly once.
func TestCompositionSchedulerExchange33(t *testing.T) {
	const n = 33
	if got := len(driveFullExchange(t, n)); got != n*(n-1) {
		t.Errorf("transfers = %d, want %d", got, n*(n-1))
	}
}

// TestCompositionSchedulerExchange64 runs the exchange at the 64-GPU limit,
// where the single direct-send round holds 4032 sessions.
func TestCompositionSchedulerExchange64(t *testing.T) {
	const n = 64
	if got := len(driveFullExchange(t, n)); got != n*(n-1) {
		t.Errorf("transfers = %d, want %d", got, n*(n-1))
	}
}
