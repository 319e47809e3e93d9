package exec

import (
	"runtime"
	"testing"
	"time"

	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

func testRuntime(n int) *Runtime {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = n
	sys, err := multigpu.New(cfg, 64, 64)
	if err != nil {
		panic(err)
	}
	fr := &primitive.Frame{Width: 64, Height: 64}
	return New("Test", sys, fr)
}

func TestSequenceOrder(t *testing.T) {
	r := testRuntime(1)
	var order []int
	r.Sequence(3, func(i int, next func()) {
		order = append(order, i)
		// Completing from a later event must still walk in order.
		r.Eng().After(sim.Cycle(i+1), next)
	})
	r.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("sequence order = %v", order)
	}
}

func TestSequenceEmpty(t *testing.T) {
	r := testRuntime(1)
	called := false
	r.Sequence(0, func(i int, next func()) { called = true })
	r.Run()
	if called {
		t.Fatal("body called for empty sequence")
	}
}

func TestSequenceSynchronousNext(t *testing.T) {
	// A body that calls next() synchronously must not recurse unboundedly
	// or skip steps.
	r := testRuntime(1)
	count := 0
	r.Sequence(10000, func(i int, next func()) {
		count++
		next()
	})
	r.Run()
	if count != 10000 {
		t.Fatalf("ran %d steps, want 10000", count)
	}
}

func TestBarrierSealReleasesWhenDrained(t *testing.T) {
	fired := 0
	b := NewBarrier(func() { fired++ })
	b.Add(2)
	b.Done()
	b.Done()
	if fired != 0 {
		t.Fatal("barrier released before seal")
	}
	b.Seal()
	if fired != 1 {
		t.Fatalf("fired = %d after seal of drained barrier", fired)
	}
}

func TestBarrierDoneAfterSeal(t *testing.T) {
	fired := 0
	b := NewBarrier(func() { fired++ })
	b.Add(3)
	b.Seal()
	b.Done()
	b.Done()
	if fired != 0 {
		t.Fatal("released early")
	}
	b.Done()
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d", b.Pending())
	}
}

func TestBarrierSealDeferred(t *testing.T) {
	eng := sim.New()
	fired := false
	b := NewBarrier(func() { fired = true })
	b.SealDeferred(eng)
	if fired {
		t.Fatal("SealDeferred fired synchronously")
	}
	eng.Run()
	if !fired {
		t.Fatal("SealDeferred never fired")
	}
}

// TestReleasedBarrierDropsContinuation: once a traced barrier releases,
// the runtime holds nothing that keeps its continuation's captures
// reachable, though the barrier stays registered until the next prune.
func TestReleasedBarrierDropsContinuation(t *testing.T) {
	r := testRuntime(1)
	freed := make(chan struct{})
	func() {
		held := new([1 << 10]byte)
		runtime.SetFinalizer(held, func(*[1 << 10]byte) { close(freed) })
		bar := r.TracedBarrier("captures", func() { held[0]++ })
		bar.Seal()
	}()
	collected := false
	for i := 0; i < 20 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(5 * time.Millisecond):
		}
	}
	if !collected {
		t.Fatal("a released barrier's continuation is still reachable from the runtime")
	}
	runtime.KeepAlive(r)
}

// TestBarrierRegistryStaysBounded: a frame registering many short-lived
// barriers keeps its registry proportional to the live ones, and pruning
// never drops an unreleased barrier.
func TestBarrierRegistryStaysBounded(t *testing.T) {
	r := testRuntime(1)
	live := r.TracedBarrier("live", func() {})
	live.Add(1)
	for i := 0; i < 10000; i++ {
		r.TracedBarrier("short", func() {}).Seal()
	}
	if n := len(r.barriers); n > 2*minPruneAt {
		t.Fatalf("registry holds %d barriers after 10000 released ones, want <= %d", n, 2*minPruneAt)
	}
	states := r.liveBarriers()
	if len(states) != 1 || states[0].Name != "live" {
		t.Fatalf("live barriers = %v, want only the unreleased one", states)
	}
	if len(r.barriers) != 1 {
		t.Fatalf("registry holds %d barriers after liveBarriers, want 1", len(r.barriers))
	}
}

func TestIssueDrawsRate(t *testing.T) {
	r := testRuntime(1)
	driver := multigpu.DriverCyclesPerDraw
	var at []sim.Cycle
	r.Eng().After(0, func() {
		r.IssueDraws(2, 5, func(i int) {
			at = append(at, r.Eng().Now())
		})
	})
	r.Run()
	if len(at) != 3 {
		t.Fatalf("issued %d draws, want 3", len(at))
	}
	for k, c := range at {
		if want := sim.Cycle(k) * driver; c != want {
			t.Errorf("draw %d issued at %d, want %d", k, c, want)
		}
	}
}

func TestPhaseTimer(t *testing.T) {
	r := testRuntime(1)
	r.Eng().After(0, func() {
		pt := r.StartPhase(stats.PhaseNormal)
		r.Eng().After(42, func() { pt.Stop() })
	})
	r.Run()
	if got := r.St.PhaseCycles[stats.PhaseNormal]; got != 42 {
		t.Fatalf("PhaseNormal = %d, want 42", got)
	}
}

func TestPhaseTimerDoubleStop(t *testing.T) {
	// Stop is idempotent: a second Stop (from, say, two completion paths
	// racing to close the same phase) must not double-count the interval.
	r := testRuntime(1)
	r.Eng().After(0, func() {
		pt := r.StartPhase(stats.PhaseComposition)
		r.Eng().After(10, func() { pt.Stop() })
		r.Eng().After(25, func() { pt.Stop() })
	})
	r.Run()
	if got := r.St.PhaseCycles[stats.PhaseComposition]; got != 10 {
		t.Fatalf("PhaseComposition = %d after double Stop, want 10", got)
	}
}

func TestPhaseTimerZeroLengthStop(t *testing.T) {
	// Stopping at the start cycle attributes zero cycles and emits nothing.
	r := testRuntime(1)
	r.Eng().After(0, func() {
		pt := r.StartPhase(stats.PhaseProjection)
		pt.Stop()
	})
	r.Run()
	if got := r.St.PhaseCycles[stats.PhaseProjection]; got != 0 {
		t.Fatalf("PhaseProjection = %d after zero-length Stop, want 0", got)
	}
	if got := r.St.TotalCycles; got != 0 {
		t.Fatalf("TotalCycles = %d after zero-length Stop, want 0", got)
	}
}

func TestPhaseTimerZeroValueStop(t *testing.T) {
	// The zero-value timer (no runtime attached) must be a safe no-op.
	var pt PhaseTimer
	pt.Stop()
	pt.Stop()
}

func TestAttributePhases(t *testing.T) {
	r := testRuntime(1)
	r.Eng().After(100, func() {})
	r.Run()
	r.AttributePhases(0, []Mark{
		{Tag: stats.PhaseProjection, At: 30},
		{Tag: stats.PhaseDistribution, At: 70},
	}, stats.PhaseNormal)
	if got := r.St.PhaseCycles[stats.PhaseProjection]; got != 30 {
		t.Errorf("projection = %d, want 30", got)
	}
	if got := r.St.PhaseCycles[stats.PhaseDistribution]; got != 40 {
		t.Errorf("distribution = %d, want 40", got)
	}
	if got := r.St.PhaseCycles[stats.PhaseNormal]; got != 30 {
		t.Errorf("normal = %d, want 30", got)
	}
}

func TestAttributePhasesClampsNonMonotonic(t *testing.T) {
	// A mark earlier than its predecessor contributes zero cycles and must
	// not panic (AddPhase rejects negatives).
	r := testRuntime(1)
	r.Eng().After(100, func() {})
	r.Run()
	r.AttributePhases(0, []Mark{
		{Tag: stats.PhaseProjection, At: 60},
		{Tag: stats.PhaseDistribution, At: 20}, // fully overlapped
	}, stats.PhaseNormal)
	if got := r.St.PhaseCycles[stats.PhaseDistribution]; got != 0 {
		t.Errorf("distribution = %d, want 0", got)
	}
	if got := r.St.PhaseCycles[stats.PhaseNormal]; got != 40 {
		t.Errorf("normal = %d, want 40", got)
	}
}

func TestSplitSegmentsCutsOnDepthBuffer(t *testing.T) {
	mk := func(rt, db int) primitive.DrawCommand {
		d := primitive.DrawCommand{State: primitive.DefaultState()}
		d.State.RenderTarget = rt
		d.State.DepthBuffer = db
		return d
	}
	segs := SplitSegments([]primitive.DrawCommand{mk(0, 0), mk(0, 1), mk(0, 1)})
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0] != (Segment{Start: 0, End: 1, RT: 0}) {
		t.Errorf("segs[0] = %+v", segs[0])
	}
	if segs[1] != (Segment{Start: 1, End: 3, RT: 0}) {
		t.Errorf("segs[1] = %+v", segs[1])
	}
}

func TestSyncTargetSingleGPU(t *testing.T) {
	r := testRuntime(1)
	done := false
	r.Eng().After(0, func() {
		r.SyncTarget(0, func() { done = true })
	})
	r.Run()
	if !done {
		t.Fatal("SyncTarget(n=1) never completed")
	}
}

func TestRunSegmentsSingleSegmentNoSync(t *testing.T) {
	r := testRuntime(2)
	r.Fr.Draws = []primitive.DrawCommand{{State: primitive.DefaultState()}}
	bodies := 0
	r.RunSegments(func(seg Segment, done func()) {
		bodies++
		done()
	})
	r.Run()
	if bodies != 1 {
		t.Fatalf("bodies = %d", bodies)
	}
	if got := r.St.PhaseCycles[stats.PhaseSync]; got != 0 {
		t.Fatalf("sync cycles = %d for single segment", got)
	}
}

func TestRunSegmentsFinishesWalk(t *testing.T) {
	r := testRuntime(2)
	st := primitive.DefaultState()
	other := st
	other.RenderTarget = 1
	r.Fr.Draws = []primitive.DrawCommand{{State: st}, {State: other}, {State: other}, {State: st}}
	var segs []Segment
	r.RunSegments(func(seg Segment, done func()) {
		segs = append(segs, seg)
		r.Eng().After(10, done)
	})
	if err := r.Run(); err != nil {
		t.Fatalf("Run() = %v after every segment completed", err)
	}
	if len(segs) != 3 || r.walkSteps != 0 {
		t.Fatalf("ran %d of 3 segments, walk of %d steps unfinished", len(segs), r.walkSteps)
	}
}
