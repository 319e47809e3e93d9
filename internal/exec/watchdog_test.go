package exec

import (
	"errors"
	"strings"
	"testing"

	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/sim"
)

// watchdogRuntime builds a runtime with a fast watchdog interval.
func watchdogRuntime(t *testing.T, interval sim.Cycle) *Runtime {
	t.Helper()
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = 2
	cfg.Watchdog = interval
	sys, err := multigpu.New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	return New("Test", sys, &primitive.Frame{Width: 64, Height: 64})
}

func TestWatchdogDetectsDeadlock(t *testing.T) {
	r := watchdogRuntime(t, 1000)
	// A barrier that will never release: one registered completion that no
	// event retires. The queue drains, the watchdog tick finds itself alone.
	b := r.TracedBarrier("stuck composition", func() { t.Error("deadlocked barrier released") })
	b.Add(1)
	b.Seal()
	err := r.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(dl.Barriers) != 1 || dl.Barriers[0].Name != "stuck composition" || dl.Barriers[0].Pending != 1 {
		t.Errorf("diagnostic barriers = %+v", dl.Barriers)
	}
	if len(dl.GPUs) != 2 {
		t.Errorf("diagnostic GPUs = %+v", dl.GPUs)
	}
	if !strings.Contains(err.Error(), "stuck composition") {
		t.Errorf("diagnostic does not name the blocked barrier: %v", err)
	}
}

func TestWatchdogDetectsStuckProgress(t *testing.T) {
	r := watchdogRuntime(t, 1000)
	b := r.TracedBarrier("wedged", func() { t.Error("wedged barrier released") })
	b.Add(1)
	b.Seal()
	// A self-perpetuating event keeps the queue busy without ever advancing
	// the barrier — spinning, not deadlocked. The watchdog must still trip.
	var spin func()
	spin = func() { r.Eng().After(100, spin) }
	spin()
	err := r.Run()
	var stuck *StuckError
	if !errors.As(err, &stuck) {
		t.Fatalf("Run() = %v, want *StuckError", err)
	}
	if stuck.Window != 2000 {
		t.Errorf("stuck window = %d, want 2000 (2 ticks of 1000)", stuck.Window)
	}
	if len(stuck.Barriers) != 1 || stuck.Barriers[0].Name != "wedged" {
		t.Errorf("diagnostic barriers = %+v", stuck.Barriers)
	}
}

func TestWatchdogQuietOnHealthyFrame(t *testing.T) {
	r := watchdogRuntime(t, 1000)
	released := false
	b := r.TracedBarrier("healthy", func() { released = true })
	b.Add(3)
	b.Seal()
	// Slow but steadily progressing work: one completion per 900 cycles,
	// never two idle ticks in a row.
	for i := 1; i <= 3; i++ {
		r.Eng().After(sim.Cycle(i)*900, b.Done)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("healthy frame tripped the watchdog: %v", err)
	}
	if !released {
		t.Error("barrier never released")
	}
}

func TestWatchdogParksAfterFrameCompletes(t *testing.T) {
	r := watchdogRuntime(t, 1000)
	b := r.TracedBarrier("quick", func() {})
	b.Add(1)
	b.Seal()
	r.Eng().After(10, b.Done)
	if err := r.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	// The watchdog must not keep the engine alive: the final cycle is the
	// parked tick after release, not an endless tick chain.
	if now := r.Eng().Now(); now > 2000 {
		t.Errorf("engine ran to cycle %d after a 10-cycle frame; watchdog never parked", now)
	}
}

func TestWatchdogDiagnosticsIncludePlanState(t *testing.T) {
	// With a plan-state provider installed (as the plan executor does for the
	// lifetime of each plan-composed group), both watchdog diagnostics must
	// report where the exchange stood: active round, pending sessions, and
	// the ready GPU bitmask.
	r := watchdogRuntime(t, 1000)
	r.SetPlanState(func() *PlanState {
		return &PlanState{CompletedRounds: 2, Rounds: 4, PendingSessions: 3, Ready: 0xb}
	})
	b := r.TracedBarrier("plan exchange", func() { t.Error("wedged barrier released") })
	b.Add(1)
	b.Seal()
	err := r.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if dl.Plan == nil || dl.Plan.CompletedRounds != 2 || dl.Plan.PendingSessions != 3 {
		t.Errorf("deadlock plan state = %+v", dl.Plan)
	}
	for _, want := range []string{"plan: round 2/4", "3 pending session(s)", "ready=0xb"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic missing %q: %v", want, err)
		}
	}

	// The stuck path must carry the same snapshot.
	r2 := watchdogRuntime(t, 1000)
	r2.SetPlanState(func() *PlanState {
		return &PlanState{CompletedRounds: 1, Rounds: 3, PendingSessions: 5, Ready: 0x1}
	})
	b2 := r2.TracedBarrier("plan exchange", func() { t.Error("wedged barrier released") })
	b2.Add(1)
	b2.Seal()
	var spin func()
	spin = func() { r2.Eng().After(100, spin) }
	spin()
	err = r2.Run()
	var stuck *StuckError
	if !errors.As(err, &stuck) {
		t.Fatalf("Run() = %v, want *StuckError", err)
	}
	if stuck.Plan == nil || stuck.Plan.PendingSessions != 5 {
		t.Errorf("stuck plan state = %+v", stuck.Plan)
	}
	if !strings.Contains(err.Error(), "plan: round 1/3") {
		t.Errorf("stuck diagnostic missing plan state: %v", err)
	}
}

func TestWatchdogDiagnosticsOmitPlanStateWhenCleared(t *testing.T) {
	// Outside a plan-composed group (provider nil or cleared) the diagnostic
	// must not fabricate plan state.
	r := watchdogRuntime(t, 1000)
	r.SetPlanState(func() *PlanState { return &PlanState{Rounds: 4} })
	r.SetPlanState(nil)
	b := r.TracedBarrier("direct composition", func() { t.Error("wedged barrier released") })
	b.Add(1)
	b.Seal()
	err := r.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if dl.Plan != nil {
		t.Errorf("plan state reported with no plan live: %+v", dl.Plan)
	}
	if strings.Contains(err.Error(), "plan:") {
		t.Errorf("diagnostic mentions a plan with none live: %v", err)
	}
}

func TestRunDetectsDeadlockWithoutWatchdog(t *testing.T) {
	// Watchdog disabled: the drained-queue deadlock is still caught at Run
	// exit, just without the mid-run halt.
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = 2
	sys, err := multigpu.New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	r := New("Test", sys, &primitive.Frame{Width: 64, Height: 64})
	b := r.TracedBarrier("orphaned", func() { t.Error("orphaned barrier released") })
	b.Add(1)
	b.Seal()
	var dl *DeadlockError
	if err := r.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
}

func TestCancellationSurfacesTypedError(t *testing.T) {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = 2
	canceled := false
	cfg.Cancel = func() bool { return canceled }
	sys, err := multigpu.New(cfg, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	r := New("Test", sys, &primitive.Frame{Width: 64, Height: 64})
	b := r.TracedBarrier("interrupted", func() { t.Error("interrupted barrier released") })
	b.Add(1)
	b.Seal()
	// Endless event chain standing in for a long simulation; flip the cancel
	// flag partway through.
	var spin func()
	spin = func() { r.Eng().After(100, spin) }
	spin()
	r.Eng().After(5000, func() { canceled = true })
	var ce *CanceledError
	if err := r.Run(); !errors.As(err, &ce) {
		t.Fatalf("Run() = %v, want *CanceledError", err)
	}
}

func TestDeadlockErrorWrapsCause(t *testing.T) {
	inner := errors.New("lost transfer")
	err := &DeadlockError{At: 100, Cause: inner}
	if !errors.Is(err, inner) {
		t.Error("DeadlockError does not unwrap to its cause")
	}
	if !strings.Contains(err.Error(), "lost transfer") {
		t.Errorf("cause missing from message: %v", err)
	}
}

func TestBarrierStateString(t *testing.T) {
	s := BarrierState{Name: "", Pending: 2, Sealed: true}.String()
	if !strings.Contains(s, "(unnamed)") || !strings.Contains(s, "sealed") {
		t.Errorf("state = %q", s)
	}
	g := GPUState{ID: 1, BusyUntil: 50, EgressQueued: 3, Failed: true}.String()
	if !strings.Contains(g, "FAILED") {
		t.Errorf("gpu state = %q", g)
	}
}

func TestRunDetectsUnfinishedWalk(t *testing.T) {
	// No barrier is registered: the step body simply never calls next, as a
	// scheme does when a completion it waits on is lost. The drained engine
	// must still fail typed, naming the step.
	r := testRuntime(2)
	r.Sequence(3, func(i int, next func()) {
		if i < 1 {
			next()
		}
	})
	err := r.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if dl.Step != 1 || dl.Steps != 3 || len(dl.Barriers) != 0 {
		t.Errorf("diagnostic step %d of %d, barriers %v; want step 1 of 3, none", dl.Step, dl.Steps, dl.Barriers)
	}
	if !strings.Contains(err.Error(), "step 1 of 3") {
		t.Errorf("diagnostic does not name the unfinished step: %v", err)
	}
}
