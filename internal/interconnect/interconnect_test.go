package interconnect

import (
	"errors"
	"testing"

	"chopin/internal/sim"
)

// newFabric builds a fabric, failing the test on config errors.
func newFabric(tb testing.TB, eng *sim.Engine, n int, cfg Config) *Fabric {
	tb.Helper()
	f, err := New(eng, n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func TestUncontendedTransferTime(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{BytesPerCycle: 64, LatencyCycles: 200})
	var done sim.Cycle = -1
	f.Send(0, 1, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// 6400 B / 64 B/cy = 100 cycles tx + 200 latency.
	if done != 300 {
		t.Errorf("delivered at %d, want 300", done)
	}
}

func TestEgressSerialization(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	var d1, d2 sim.Cycle
	f.Send(0, 1, 6400, ClassComposition, func() { d1 = eng.Now() })
	f.Send(0, 2, 6400, ClassComposition, func() { d2 = eng.Now() })
	eng.Run()
	if d1 != 300 {
		t.Errorf("first delivery at %d, want 300", d1)
	}
	// Second transfer starts only when the egress port frees at cycle 100.
	if d2 != 400 {
		t.Errorf("second delivery at %d, want 400", d2)
	}
}

func TestIngressSerialization(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	var d1, d2 sim.Cycle
	f.Send(0, 2, 6400, ClassComposition, func() { d1 = eng.Now() })
	f.Send(1, 2, 6400, ClassComposition, func() { d2 = eng.Now() })
	eng.Run()
	// Both arrive at 300, but GPU2's ingress drains them one at a time.
	if d1 != 300 {
		t.Errorf("first delivery at %d, want 300", d1)
	}
	if d2 != 400 {
		t.Errorf("second delivery at %d, want 400 (ingress serialized)", d2)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	// GPU1 is busy rendering and not accepting composition data.
	f.SetAccept(1, false)
	var toBusy, toReady sim.Cycle = -1, -1
	f.Send(0, 1, 6400, ClassComposition, func() { toBusy = eng.Now() })
	f.Send(0, 2, 6400, ClassComposition, func() { toReady = eng.Now() })
	// GPU1 becomes ready at cycle 1000.
	eng.At(1000, func() { f.SetAccept(1, true) })
	eng.Run()
	// The head (to GPU1) is blocked until 1000; the message to the READY
	// GPU2 is stuck behind it — the paper's direct-send pathology.
	if toBusy != 1300 {
		t.Errorf("blocked delivery at %d, want 1300", toBusy)
	}
	if toReady != 1400 {
		t.Errorf("head-of-line victim delivered at %d, want 1400", toReady)
	}
}

func TestQueuedAt(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{BytesPerCycle: 64, LatencyCycles: 0})
	f.SetAccept(1, false)
	f.Send(0, 1, 64, ClassComposition, nil)
	f.Send(0, 1, 64, ClassComposition, nil)
	if f.QueuedAt(0) != 2 {
		t.Errorf("queued = %d, want 2", f.QueuedAt(0))
	}
	f.SetAccept(1, true)
	eng.Run()
	if f.QueuedAt(0) != 0 {
		t.Errorf("queued after drain = %d", f.QueuedAt(0))
	}
}

func TestIdealFabric(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{Ideal: true})
	var done sim.Cycle = -1
	f.SetAccept(1, false) // ideal fabric ignores acceptance
	f.Send(0, 1, 1<<40, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	if done != 0 {
		t.Errorf("ideal delivery at %d, want 0", done)
	}
}

func TestControlMessages(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{BytesPerCycle: 64, LatencyCycles: 200})
	// Saturate the egress port with a huge transfer; control traffic must
	// still fly past it.
	f.Send(0, 1, 1<<20, ClassComposition, nil)
	var ctl sim.Cycle = -1
	f.SendControl(0, 1, 4, func() { ctl = eng.Now() })
	eng.Run()
	if ctl != 200 {
		t.Errorf("control delivered at %d, want 200", ctl)
	}
	if f.Stats().BytesFor(ClassControl) != 4 || f.Stats().Messages[ClassControl] != 1 {
		t.Errorf("control stats = %+v", f.Stats())
	}
}

func TestStatsByClass(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{BytesPerCycle: 64, LatencyCycles: 0})
	f.Send(0, 1, 100, ClassComposition, nil)
	f.Send(0, 1, 50, ClassPrimDist, nil)
	f.Send(1, 0, 25, ClassSync, nil)
	eng.Run()
	s := f.Stats()
	if s.BytesFor(ClassComposition) != 100 || s.BytesFor(ClassPrimDist) != 50 || s.BytesFor(ClassSync) != 25 {
		t.Errorf("stats = %+v", s)
	}
	var total int64
	for _, b := range s.Bytes {
		total += b
	}
	if total != 175 {
		t.Errorf("total = %d", total)
	}
}

func TestMinimumOneCycleTransfer(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, Config{BytesPerCycle: 64, LatencyCycles: 0})
	var done sim.Cycle = -1
	f.Send(0, 1, 1, ClassControl, func() { done = eng.Now() })
	eng.Run()
	if done < 1 {
		t.Errorf("sub-byte transfer delivered at %d, want >= 1", done)
	}
}

func TestSelfSendRecordsError(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, DefaultConfig())
	delivered := false
	f.Send(1, 1, 10, ClassComposition, func() { delivered = true })
	eng.Run()
	var sse *SelfSendError
	if err := f.Err(); !errors.As(err, &sse) {
		t.Fatalf("Err() = %v, want *SelfSendError", err)
	}
	if !delivered {
		t.Error("self-send should still deliver (functionally a local copy)")
	}
}

// TestEdgeCases drives the fabric through boundary conditions that schemes
// can produce under faults and degraded modes: receivers that stall and never
// recover, zero-byte payloads, and bursts of same-cycle egress traffic.
func TestEdgeCases(t *testing.T) {
	cfg := Config{BytesPerCycle: 64, LatencyCycles: 200}
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T, eng *sim.Engine, f *Fabric)
		check func(t *testing.T, eng *sim.Engine, f *Fabric)
	}{
		{
			name: "stalled receiver parks the whole egress queue",
			run: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				// GPU1 stalls and never accepts again; the head transfer and
				// the one behind it (to a perfectly healthy GPU2) both park.
				f.SetAccept(1, false)
				f.Send(0, 1, 6400, ClassComposition, func() { t.Error("delivered to a stalled receiver") })
				f.Send(0, 2, 6400, ClassComposition, func() { t.Error("HOL victim delivered past a stalled head") })
			},
			check: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				if got := f.QueuedAt(0); got != 2 {
					t.Errorf("QueuedAt(0) = %d, want 2 (head + victim parked)", got)
				}
				// The engine must still terminate: a parked queue is idle, not
				// a busy-wait. eng.Run() returning at all proves that.
			},
		},
		{
			name: "zero-byte send still delivers and serializes",
			run: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				var d0, d1 sim.Cycle = -1, -1
				f.Send(0, 1, 0, ClassControl, func() { d0 = eng.Now() })
				f.Send(0, 1, 0, ClassControl, func() { d1 = eng.Now() })
				eng.Run()
				// Zero bytes still occupies the port for the 1-cycle minimum.
				if d0 != 201 {
					t.Errorf("first zero-byte delivery at %d, want 201", d0)
				}
				if d1 != 202 {
					t.Errorf("second zero-byte delivery at %d, want 202 (port serialized)", d1)
				}
			},
			check: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				s := f.Stats()
				if s.BytesFor(ClassControl) != 0 || s.Messages[ClassControl] != 2 {
					t.Errorf("stats = %d bytes / %d messages, want 0 / 2",
						s.BytesFor(ClassControl), s.Messages[ClassControl])
				}
			},
		},
		{
			name: "same-cycle egress burst delivers in FIFO order",
			run: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				var order []int
				for i := 0; i < 4; i++ {
					i := i
					dst := 1 + i%3
					f.Send(0, dst, 640, ClassComposition, func() { order = append(order, i) })
				}
				eng.Run()
				if len(order) != 4 {
					t.Fatalf("delivered %d of 4 transfers", len(order))
				}
				for i, got := range order {
					if got != i {
						t.Fatalf("delivery order = %v, want FIFO [0 1 2 3]", order)
					}
				}
			},
		},
		{
			name: "re-accepting receiver releases transfers in order",
			run: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				var order []int
				f.SetAccept(1, false)
				f.Send(0, 1, 640, ClassComposition, func() { order = append(order, 0) })
				f.Send(0, 1, 640, ClassComposition, func() { order = append(order, 1) })
				f.Send(0, 2, 640, ClassComposition, func() { order = append(order, 2) })
				eng.At(500, func() { f.SetAccept(1, true) })
				eng.Run()
				if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
					t.Errorf("delivery order = %v, want [0 1 2]", order)
				}
			},
		},
		{
			name: "accept toggling without queued traffic is harmless",
			run: func(t *testing.T, eng *sim.Engine, f *Fabric) {
				f.SetAccept(1, false)
				f.SetAccept(1, true)
				f.SetAccept(1, true)
				var done sim.Cycle = -1
				f.Send(0, 1, 64, ClassComposition, func() { done = eng.Now() })
				eng.Run()
				if done != 201 {
					t.Errorf("delivery at %d, want 201", done)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			f := newFabric(t, eng, 4, cfg)
			tc.run(t, eng, f)
			eng.Run() // idempotent if the case already ran the engine
			if tc.check != nil {
				tc.check(t, eng, f)
			}
			if err := f.Err(); err != nil {
				t.Errorf("fabric recorded unexpected error: %v", err)
			}
		})
	}
}

func TestClassNames(t *testing.T) {
	for _, c := range []Class{ClassComposition, ClassPrimDist, ClassSync, ClassControl} {
		if c.String() == "unknown" {
			t.Errorf("class %d unnamed", c)
		}
	}
}

func TestBadConfigError(t *testing.T) {
	eng := sim.New()
	if _, err := New(eng, 2, Config{BytesPerCycle: 0}); err == nil {
		t.Error("expected error for zero bandwidth")
	}
}
