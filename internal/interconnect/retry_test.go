package interconnect

import (
	"errors"
	"testing"

	"chopin/internal/sim"
)

// scriptInjector returns a scripted fault per (transmission) consultation, in
// order; once the script runs out every transfer is clean. It implements
// Injector deterministically for protocol tests.
type scriptInjector struct {
	script []Fault
	calls  int
	bw     float64
}

func (s *scriptInjector) Transfer(src, dst int, bytes int64, class Class, attempt int) Fault {
	s.calls++
	if len(s.script) == 0 {
		return Fault{}
	}
	f := s.script[0]
	s.script = s.script[1:]
	return f
}

func (s *scriptInjector) Bandwidth(src int, now sim.Cycle) float64 {
	if s.bw != 0 {
		return s.bw
	}
	return 1
}

// retryFabric builds a 2-GPU fabric with the retry protocol and the given
// fault script installed.
func retryFabric(t *testing.T, eng *sim.Engine, script ...Fault) (*Fabric, *scriptInjector) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Retry = RetryConfig{Timeout: 100, MaxRetries: 3, Backoff: 32, BackoffCap: 128}
	f := newFabric(t, eng, 2, cfg)
	inj := &scriptInjector{script: script}
	f.SetInjector(inj)
	return f, inj
}

func TestRetryRecoversDroppedTransfer(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultDrop})
	delivered := 0
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Drops != 1 || fc.Timeouts != 1 || fc.Retries != 1 || fc.Lost != 0 {
		t.Errorf("counters = %+v, want 1 drop, 1 timeout, 1 retry, 0 lost", fc)
	}
	if err := f.Err(); err != nil {
		t.Errorf("recovered transfer left an error: %v", err)
	}
	// Retransmitted bytes are real wire traffic.
	if got := f.Stats().BytesFor(ClassComposition); got != 12800 {
		t.Errorf("bytes = %d, want 12800 (original + retransmit)", got)
	}
	if got := f.Stats().Messages[ClassComposition]; got != 1 {
		t.Errorf("messages = %d, want 1 (logical sends only)", got)
	}
}

// TestRetryAttributedToCrossbarLink pins per-link retry attribution on the
// crossbar: the retransmission of a dropped 0→1 transfer is charged to the
// pair's own link 0·n+1 and to no other link.
func TestRetryAttributedToCrossbarLink(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultDrop})
	f.Send(0, 1, 6400, ClassComposition, nil)
	eng.Run()
	const n = 2
	for l := 0; l < n*n; l++ {
		want := int64(0)
		if l == 0*n+1 {
			want = 1
		}
		if got := f.LinkRetryCount(l); got != want {
			t.Errorf("LinkRetryCount(%d) = %d, want %d", l, got, want)
		}
	}
}

func TestRetryRecoversCorruptedTransfer(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultCorrupt})
	delivered := 0
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Corrupts != 1 || fc.Retries != 1 {
		t.Errorf("counters = %+v, want 1 corrupt, 1 retry", fc)
	}
}

func TestDuplicateDeliveredOnce(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultDuplicate})
	delivered := 0
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1 (receiver dedups)", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Duplicates != 1 || fc.Retries != 0 {
		t.Errorf("counters = %+v, want 1 duplicate, 0 retries", fc)
	}
}

func TestDelayAddsLatency(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultDelay, Delay: 500})
	var done sim.Cycle = -1
	f.Send(0, 1, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// 100 tx + 200 latency + 500 injected = 800.
	if done != 800 {
		t.Errorf("delayed delivery at %d, want 800", done)
	}
	if fc := f.Stats().Faults[ClassComposition]; fc.Delays != 1 {
		t.Errorf("counters = %+v, want 1 delay", fc)
	}
}

func TestRetryBudgetExhaustionIsLost(t *testing.T) {
	eng := sim.New()
	// Four drops: the original and all three retries.
	f, _ := retryFabric(t, eng,
		Fault{Kind: FaultDrop}, Fault{Kind: FaultDrop}, Fault{Kind: FaultDrop}, Fault{Kind: FaultDrop})
	delivered := 0
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 0 {
		t.Fatalf("lost transfer delivered %d times", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Drops != 4 || fc.Retries != 3 || fc.Lost != 1 {
		t.Errorf("counters = %+v, want 4 drops, 3 retries, 1 lost", fc)
	}
	var lost *LostTransferError
	if err := f.Err(); !errors.As(err, &lost) {
		t.Fatalf("Err() = %v, want *LostTransferError", err)
	}
	if lost.Src != 0 || lost.Dst != 1 || lost.Bytes != 6400 || lost.Attempts != 4 {
		t.Errorf("lost = %+v", lost)
	}
	if f.errCount != 1 {
		t.Errorf("errCount = %d", f.errCount)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.Retry = RetryConfig{Timeout: 100, MaxRetries: 8, Backoff: 32, BackoffCap: 64}
	f := newFabric(t, eng, 2, cfg)
	// Drop 5 transmissions, then deliver: backoffs 32, 64, 64, 64, 64 — the
	// cap bounds the exponential growth, so recovery happens promptly.
	f.SetInjector(&scriptInjector{script: []Fault{
		{Kind: FaultDrop}, {Kind: FaultDrop}, {Kind: FaultDrop}, {Kind: FaultDrop}, {Kind: FaultDrop},
	}})
	delivered := 0
	f.Send(0, 1, 64, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Retries != 5 || fc.Lost != 0 {
		t.Errorf("counters = %+v, want 5 retries, 0 lost", fc)
	}
	// Uncapped backoff would be 32<<4 = 512 on the last retry; with the cap
	// each wait is ≤ 64. Per attempt: 1 tx + 200 latency + 200 ack + 100
	// timeout ≈ 501, plus ≤ 64 backoff. Six attempts comfortably under 3600.
	if now := eng.Now(); now > 3600 {
		t.Errorf("recovery took until cycle %d; backoff cap not applied?", now)
	}
}

func TestControlMessageRetry(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng, Fault{Kind: FaultDrop})
	delivered := 0
	f.SendControl(0, 1, 4, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("control delivered %d times, want 1", delivered)
	}
	fc := f.Stats().Faults[ClassControl]
	if fc.Drops != 1 || fc.Retries != 1 {
		t.Errorf("counters = %+v, want 1 drop, 1 retry", fc)
	}
}

func TestControlDuplicateWithoutRetryProtocolSuppressed(t *testing.T) {
	eng := sim.New()
	// Injector installed but retry disabled: a duplicated control message
	// would complete its callback twice, so the fabric must suppress it.
	f := newFabric(t, eng, 2, DefaultConfig())
	f.SetInjector(&scriptInjector{script: []Fault{{Kind: FaultDuplicate}, {Kind: FaultDuplicate}}})
	ctl, bulk := 0, 0
	f.SendControl(0, 1, 4, func() { ctl++ })
	f.Send(0, 1, 64, ClassComposition, func() { bulk++ })
	eng.Run()
	if ctl != 1 || bulk != 1 {
		t.Errorf("delivered control=%d bulk=%d, want 1/1 (duplicates suppressed without dedup)", ctl, bulk)
	}
}

func TestBandwidthDegradationSlowsTransfer(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, DefaultConfig())
	f.SetInjector(&scriptInjector{bw: 0.5})
	var done sim.Cycle = -1
	f.Send(0, 1, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// Half bandwidth: 200 tx + 200 latency.
	if done != 400 {
		t.Errorf("degraded delivery at %d, want 400", done)
	}
}

func TestObserverConservationUnderFaults(t *testing.T) {
	eng := sim.New()
	f, _ := retryFabric(t, eng,
		Fault{Kind: FaultDrop}, Fault{Kind: FaultDuplicate}, Fault{Kind: FaultCorrupt})
	var sent, recv int
	f.SetObserver(obsFunc{
		sent: func(src, dst int, bytes int64, class Class) { sent++ },
		recv: func(src, dst int, bytes int64, class Class) { recv++ },
	})
	for i := 0; i < 5; i++ {
		f.Send(0, 1, 640, ClassComposition, nil)
	}
	eng.Run()
	// Sent fires once per logical send, Delivered once per first good copy:
	// conservation holds even though the wire saw drops, dups, and retries.
	if sent != 5 || recv != 5 {
		t.Errorf("observer saw %d sent / %d delivered, want 5/5", sent, recv)
	}
}

// obsFunc adapts closures to Observer.
type obsFunc struct {
	sent, recv func(src, dst int, bytes int64, class Class)
}

func (o obsFunc) Sent(src, dst int, bytes int64, class Class)      { o.sent(src, dst, bytes, class) }
func (o obsFunc) Delivered(src, dst int, bytes int64, class Class) { o.recv(src, dst, bytes, class) }

// TestFaultHooksDisabledAllocs pins the disabled-path contract: with no
// injector installed, the fault hooks are bare nil checks and the send path
// does not allocate (the delivery free-list covers steady state).
func TestFaultHooksDisabledAllocs(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 2, DefaultConfig())
	// Warm the delivery free list and the egress queue's backing array.
	f.Send(0, 1, 64, ClassComposition, nil)
	f.SendControl(0, 1, 4, nil)
	eng.Run()
	if got := testing.AllocsPerRun(100, func() {
		f.Send(0, 1, 64, ClassComposition, nil)
		f.SendControl(0, 1, 4, nil)
		eng.Run()
	}); got != 0 {
		t.Errorf("disabled fault hooks allocate %.1f per send, want 0", got)
	}
}

// BenchmarkSendFaultsDisabled measures the hot send path with every optional
// subsystem (tracer, observer, injector) disabled — the configuration the
// 0 allocs/op contract protects.
func BenchmarkSendFaultsDisabled(b *testing.B) {
	eng := sim.New()
	f := newFabric(b, eng, 2, DefaultConfig())
	f.Send(0, 1, 64, ClassComposition, nil)
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Send(0, 1, 64, ClassComposition, nil)
		eng.Run()
	}
}

// TestRetryPathUntracedAllocs ratchets the disabled-tracer contract on the
// retransmission path: a dropped transfer exercises timeout, backoff, and
// the retry-tagged span emission sites, and with no tracer attached none of
// the category or backoff span arguments may be materialized. The reliable
// protocol itself allocates (per-transfer xfer state and timer callbacks),
// so the guard pins that ceiling: any increase means tag or arg construction
// leaked outside a nil-tracer guard.
func TestRetryPathUntracedAllocs(t *testing.T) {
	const retryMachineryAllocs = 5 // xfer state + ack/retry timer events, tracer-independent
	eng := sim.New()
	f, inj := retryFabric(t, eng)
	script := [1]Fault{{Kind: FaultDrop}}
	// Warm the delivery free list and the timer wheel.
	inj.script = script[:]
	f.Send(0, 1, 64, ClassComposition, nil)
	eng.Run()
	if got := testing.AllocsPerRun(100, func() {
		inj.script = script[:]
		f.Send(0, 1, 64, ClassComposition, nil)
		eng.Run()
	}); got > retryMachineryAllocs {
		t.Errorf("untraced retransmission path allocates %.1f per drop, want <= %d (span args must stay behind the nil-tracer guard)",
			got, retryMachineryAllocs)
	}
}
