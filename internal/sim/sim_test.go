package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestZeroValueEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatal("zero engine not empty at cycle 0")
	}
	if e.Step() {
		t.Error("Step on empty engine should return false")
	}
}

func TestEventOrderByTime(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("final time = %d", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-cycle events fired out of scheduling order: %v", order)
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var hits []Cycle
	e.At(100, func() {
		e.After(50, func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 1 || hits[0] != 150 {
		t.Errorf("hits = %v", hits)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(0, tick)
	e.Run()
	if count != 5 || e.Now() != 40 {
		t.Errorf("count=%d now=%d", count, e.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.runUntil(20)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Errorf("now = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if fired != 3 || e.Now() != 30 {
		t.Errorf("after Run: fired=%d now=%d", fired, e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.runUntil(500)
	if e.Now() != 500 {
		t.Errorf("now = %d, want 500", e.Now())
	}
}

func TestPendingDrainsToZero(t *testing.T) {
	e := New()
	const n = 10_000
	fired := 0
	for i := 0; i < n; i++ {
		e.At(Cycle(i%97), func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("pending = %d, want %d", e.Pending(), n)
	}
	e.Run()
	if fired != n {
		t.Errorf("fired = %d, want %d", fired, n)
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after Run, want 0", e.Pending())
	}
}

// TestPopReleasesEvents checks that draining the queue zeroes the backing
// array's slots, so popped closures (and their captures) become collectable
// even while the Engine itself stays alive.
func TestPopReleasesEvents(t *testing.T) {
	e := New()
	for i := 0; i < 64; i++ {
		e.At(Cycle(i), func() {})
	}
	e.Run()
	// After Run the queue's length is 0 but its backing array survives;
	// every retained slot must have been zeroed by Pop.
	for i := range e.q[:cap(e.q)] {
		s := e.q[:cap(e.q)][i]
		if s.fn != nil || s.cb != nil || s.at != 0 || s.seq != 0 {
			t.Fatalf("slot %d not zeroed after pop: %+v", i, s)
		}
	}
}

func TestWatcherSeesMonotonicTimes(t *testing.T) {
	e := New()
	var seen []Cycle
	e.SetWatcher(func(at Cycle) { seen = append(seen, at) })
	for _, c := range []Cycle{30, 10, 20, 10} {
		e.At(c, func() {})
	}
	e.Run()
	if len(seen) != 4 {
		t.Fatalf("watcher saw %d events, want 4", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("watcher times not monotonic: %v", seen)
		}
	}
	e.SetWatcher(nil)
	e.At(e.Now(), func() {})
	e.Run()
	if len(seen) != 4 {
		t.Errorf("watcher fired after removal")
	}
}

// BenchmarkSteadyState measures the allocation behaviour of a steady
// schedule/fire loop. With pop zeroing the vacated slot, the queue's backing
// array is reused and the loop settles to zero steady-state allocations,
// independent of run length.
func BenchmarkSteadyState(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// countCB is a reusable Callback that counts its firings.
type countCB struct {
	e     *Engine
	fired int
	times []Cycle
}

func (c *countCB) Fire() {
	c.fired++
	c.times = append(c.times, c.e.Now())
}

func TestCallbackInterleavesWithClosures(t *testing.T) {
	e := New()
	cb := &countCB{e: e}
	var order []string
	e.At(5, func() { order = append(order, "fn1") })
	e.AtCall(5, cb)
	e.At(5, func() { order = append(order, "fn2") })
	e.AfterCall(5, cb)
	e.Run()
	if cb.fired != 2 {
		t.Fatalf("callback fired %d times, want 2", cb.fired)
	}
	if len(cb.times) != 2 || cb.times[0] != 5 || cb.times[1] != 5 {
		t.Errorf("callback times = %v, want [5 5]", cb.times)
	}
	if len(order) != 2 || order[0] != "fn1" || order[1] != "fn2" {
		t.Errorf("closure order = %v", order)
	}
}

func TestAtCallPastPanics(t *testing.T) {
	e := New()
	cb := &countCB{e: e}
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling callback in the past")
			}
		}()
		e.AtCall(50, cb)
	})
	e.Run()
	if cb.fired != 0 {
		t.Errorf("callback fired %d times, want 0", cb.fired)
	}
}

func TestAfterCallNegativePanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for negative callback delay")
		}
	}()
	e.AfterCall(-1, &countCB{e: e})
}

// TestDeterminism runs a randomized workload twice and checks identical
// firing order — the property every experiment depends on.
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []int {
		e := New()
		r := rand.New(rand.NewSource(seed))
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.At(Cycle(r.Intn(50)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a := runOnce(7)
	b := runOnce(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
