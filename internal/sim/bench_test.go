package sim

import "testing"

// BenchmarkScheduleFire measures raw event-queue throughput: push batchSize
// events at staggered times, then drain them. This is the steady-state shape
// of a simulation — the queue grows during a burst of submissions and drains
// as the clock advances.
func BenchmarkScheduleFire(b *testing.B) {
	const batch = 1024
	e := New()
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.At(base+Cycle(j%37), fn)
		}
		e.Run()
	}
	if sink != b.N*batch {
		b.Fatalf("fired %d events, want %d", sink, b.N*batch)
	}
}

// BenchmarkScheduleFireReversed pushes timestamps in descending order — the
// worst case for sift-up — then drains.
func BenchmarkScheduleFireReversed(b *testing.B) {
	const batch = 1024
	e := New()
	sink := 0
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := batch; j > 0; j-- {
			e.At(base+Cycle(j), fn)
		}
		e.Run()
	}
	if sink != b.N*batch {
		b.Fatalf("fired %d events, want %d", sink, b.N*batch)
	}
}

// tally is a reusable counting Callback.
type tally struct{ n int }

func (t *tally) Fire() { t.n++ }

// BenchmarkScheduleFireCallback is BenchmarkScheduleFire on the AtCall fast
// path: one long-lived Callback scheduled batchSize times per iteration.
func BenchmarkScheduleFireCallback(b *testing.B) {
	const batch = 1024
	e := New()
	cb := &tally{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.AtCall(base+Cycle(j%37), cb)
		}
		e.Run()
	}
	if cb.n != b.N*batch {
		b.Fatalf("fired %d events, want %d", cb.n, b.N*batch)
	}
}

// BenchmarkTracerDisabled is the observability overhead contract for the
// event engine: with no probe attached, the schedule/fire hot path must not
// allocate. TestTracerDisabledAllocs enforces the zero.
func BenchmarkTracerDisabled(b *testing.B) {
	const batch = 1024
	e := New()
	cb := &tally{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			e.AtCall(base+Cycle(j%37), cb)
		}
		e.Run()
	}
	if cb.n != b.N*batch {
		b.Fatalf("fired %d events, want %d", cb.n, b.N*batch)
	}
}

// TestTracerDisabledAllocs pins the disabled-path contract: the probe hook
// is a nil check, so an untraced engine schedules and fires without
// allocating.
func TestTracerDisabledAllocs(t *testing.T) {
	e := New()
	cb := &tally{}
	// Warm the queue's backing array so steady-state growth is excluded.
	for j := 0; j < 256; j++ {
		e.AtCall(e.Now()+Cycle(j), cb)
	}
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		base := e.Now()
		for j := 0; j < 256; j++ {
			e.AtCall(base+Cycle(j%37), cb)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("untraced schedule/fire allocated %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkSelfReschedule measures the ping-pong pattern of pipelined
// hardware models: each firing schedules the next event, so the queue stays
// tiny and every iteration exercises one push and one pop.
func BenchmarkSelfReschedule(b *testing.B) {
	e := New()
	remaining := b.N
	var fn func()
	fn = func() {
		remaining--
		if remaining > 0 {
			e.After(1, fn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(1, fn)
	e.Run()
	if remaining != 0 {
		b.Fatalf("remaining %d, want 0", remaining)
	}
}
