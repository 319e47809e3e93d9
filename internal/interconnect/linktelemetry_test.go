package interconnect

import (
	"testing"

	"chopin/internal/sim"
)

// TestLinkTelemetryDisabledAllocs pins the disabled-path contract for the
// link-telemetry hooks: with no collector attached, Send/tryStart/delivery
// stay at 0 allocs/op on the crossbar and on routed topologies — the new
// hooks are a single nil check (the CI fabric-observability job gates on
// this).
func TestLinkTelemetryDisabledAllocs(t *testing.T) {
	const n, transfers = 8, 64
	for _, kind := range []TopologyKind{TopoCrossbar, TopoRing, TopoMesh2D} {
		cfg := DefaultConfig()
		cfg.Topology = kind
		eng := sim.New()
		f := newFabric(t, eng, n, cfg)
		if f.LinkTelemetry() != nil {
			t.Fatalf("%s: telemetry attached by default", kind)
		}
		benchSend(eng, f, n, transfers)
		allocs := testing.AllocsPerRun(100, func() {
			benchSend(eng, f, n, transfers)
		})
		if allocs != 0 {
			t.Errorf("%s: telemetry-disabled Send path allocated %.1f allocs/op, want 0", kind, allocs)
		}
	}
}

// TestLinkTelemetryEnabledAllocs checks the enabled path too: the per-link
// accumulators are preallocated at Enable time and histogram Record is
// allocation-free, so even telemetry-enabled steady state stays at 0
// allocs/op.
func TestLinkTelemetryEnabledAllocs(t *testing.T) {
	const n, transfers = 8, 64
	for _, kind := range []TopologyKind{TopoCrossbar, TopoRing} {
		cfg := DefaultConfig()
		cfg.Topology = kind
		eng := sim.New()
		f := newFabric(t, eng, n, cfg)
		if f.EnableLinkTelemetry() == nil {
			t.Fatalf("%s: EnableLinkTelemetry returned nil", kind)
		}
		benchSend(eng, f, n, transfers)
		allocs := testing.AllocsPerRun(100, func() {
			benchSend(eng, f, n, transfers)
		})
		if allocs != 0 {
			t.Errorf("%s: telemetry-enabled Send path allocated %.1f allocs/op, want 0", kind, allocs)
		}
	}
}

// TestLinkTelemetryCrossbar pins the crossbar attribution: each ordered pair
// is its own link, busy equals the transmission time, latency spans queue
// entry to last byte drained, and every transfer is one hop.
func TestLinkTelemetryCrossbar(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	lt := f.EnableLinkTelemetry()
	if got := f.EnableLinkTelemetry(); got != lt {
		t.Fatalf("EnableLinkTelemetry not idempotent")
	}
	// Same shape as TestTopologyCrossbar: 6400 B at 64 B/cycle is tx=100. The
	// first transfer runs 0→300; the second queues 100 cycles behind it and
	// runs 100→400.
	f.Send(0, 1, 6400, ClassComposition, nil)
	f.Send(0, 2, 6400, ClassComposition, nil)
	eng.Run()

	l01, l02 := 0*3+1, 0*3+2
	if lt.busy[l01] != 100 || lt.busy[l02] != 100 {
		t.Errorf("busy = %d/%d, want 100/100", lt.busy[l01], lt.busy[l02])
	}
	if lt.bytes[l01] != 6400 || lt.transfers[l01] != 1 {
		t.Errorf("link 0->1 carried %dB/%d transfers, want 6400/1", lt.bytes[l01], lt.transfers[l01])
	}
	if lt.queued[l01] != 0 || lt.queued[l02] != 100 {
		t.Errorf("queued = %d/%d, want 0/100 (second transfer waits out the egress port)",
			lt.queued[l01], lt.queued[l02])
	}
	// End-to-end latencies measure from Send: 300−0 for the first transfer
	// and 400−0 for the one that waited out the egress port.
	if lt.Latency().Count() != 2 || lt.Latency().Min() != 300 || lt.Latency().Max() != 400 {
		t.Errorf("latency hist = %s, want observations 300 and 400", lt.Latency().String())
	}
	if lt.Hops().Count() != 2 || lt.Hops().Max() != 1 {
		t.Errorf("hops hist = %s, want two observations of 1", lt.Hops().String())
	}
	if lt.LinkName(l01) != "g0->g1" {
		t.Errorf("LinkName = %q", lt.LinkName(l01))
	}
	top := lt.Top(10)
	if len(top) != 2 || top[0].Link != l01 || top[1].Link != l02 {
		t.Errorf("Top = %+v, want links %d,%d (busy tie breaks by id)", top, l01, l02)
	}
}

// TestLinkTelemetryRing pins routed attribution: a multi-hop transfer
// charges every link on its route, the hop histogram records the route
// length, and head-of-line waits at shared links are attributed to the link
// that imposed them.
func TestLinkTelemetryRing(t *testing.T) {
	cfg := Config{BytesPerCycle: 64, LatencyCycles: 200, Topology: TopoRing}
	eng := sim.New()
	f := newFabric(t, eng, 8, cfg)
	lt := f.EnableLinkTelemetry()

	// 0→2 clockwise: links 0 (g0→g1) and 1 (g1→g2), 2 hops, tx=100.
	f.Send(0, 2, 6400, ClassComposition, nil)
	eng.Run()
	for _, l := range []int{0, 1} {
		if lt.busy[l] != 100 || lt.bytes[l] != 6400 || lt.transfers[l] != 1 {
			t.Errorf("link %d: busy=%d bytes=%d transfers=%d, want 100/6400/1",
				l, lt.busy[l], lt.bytes[l], lt.transfers[l])
		}
	}
	if lt.Hops().Max() != 2 {
		t.Errorf("hops = %s, want one observation of 2", lt.Hops().String())
	}
	// Last byte arrives at 0 + 100 + 2·200 = 500 (one tx, latency per hop).
	if lt.Latency().Max() != 500 {
		t.Errorf("latency = %s, want 500", lt.Latency().String())
	}

	if name := lt.LinkName(8 + 3); name != "g3->g2" {
		t.Errorf("ccw LinkName = %q, want g3->g2", name)
	}

	// Contention: with a short hop latency, 7→1 (links 7, 0) reaches link 0
	// while the bigger 0→2 transfer still holds it, so the head-of-line wait
	// is attributed to link 0. tx(0→2)=200, tx(7→1)=100, latency 10: 7→1's
	// head crosses link 7 and reaches link 0 at cycle 10, where it waits for
	// the 200-cycle occupant — 190 cycles of head-of-line wait.
	cfg.LatencyCycles = 10
	eng2 := sim.New()
	f2 := newFabric(t, eng2, 8, cfg)
	lt2 := f2.EnableLinkTelemetry()
	f2.Send(0, 2, 12800, ClassComposition, nil)
	f2.Send(7, 1, 6400, ClassComposition, nil)
	eng2.Run()
	if lt2.queued[0] != 190 {
		t.Errorf("head-of-line wait on link 0 = %d, want 190", lt2.queued[0])
	}
	if lt2.hops.Mean() != 2 {
		t.Errorf("mean hops = %g, want 2", lt2.hops.Mean())
	}
}

// TestLinkTelemetryRerouteAttribution checks that a detour around a downed
// link is counted and its route length recorded.
func TestLinkTelemetryRerouteAttribution(t *testing.T) {
	cfg := Config{BytesPerCycle: 64, LatencyCycles: 200, Topology: TopoRing}
	eng := sim.New()
	f := newFabric(t, eng, 8, cfg)
	lt := f.EnableLinkTelemetry()
	if err := f.DownLink(0, 1); err != nil {
		t.Fatal(err)
	}
	f.Send(0, 2, 6400, ClassComposition, nil) // default route crosses downed link 0
	eng.Run()
	if f.RerouteCount() != 1 {
		t.Fatalf("RerouteCount = %d, want 1", f.RerouteCount())
	}
	// The counter-clockwise detour is 6 hops.
	if lt.Hops().Max() != 6 {
		t.Errorf("detour hops = %s, want 6", lt.Hops().String())
	}
}

// TestLinkTelemetrySummarize checks the frame-level digest.
func TestLinkTelemetrySummarize(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	lt := f.EnableLinkTelemetry()
	f.Send(0, 1, 6400, ClassComposition, nil)
	f.Send(0, 2, 6400, ClassComposition, nil)
	eng.Run()
	s := lt.Summarize()
	if s.Links != 9 || s.ActiveLinks != 2 || s.Transfers != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.MaxLink != 1 || s.MaxLinkBusy != 100 {
		t.Errorf("max link = %d busy %d, want 1/100 (tie breaks to lowest id)", s.MaxLink, s.MaxLinkBusy)
	}
	// Observations {300, 400} share the [256,512) bucket: p50 clamps to the
	// min, p99 interpolates inside the bucket.
	if s.LatencyP50 != 300 || s.LatencyP99 != 383 {
		t.Errorf("latency quantiles p50=%d p99=%d, want 300/383", s.LatencyP50, s.LatencyP99)
	}
	if s.MeanHops != 1 {
		t.Errorf("mean hops = %g, want 1", s.MeanHops)
	}
	if s.QueuedCycles != 100 {
		t.Errorf("queued = %d, want 100", s.QueuedCycles)
	}
	if len(s.LinkBusy) != 9 || s.LinkBusy[1] != 100 {
		t.Errorf("LinkBusy = %v", s.LinkBusy)
	}
}

// TestIdealFabricTelemetry: ideal fabrics have no links to meter.
func TestIdealFabricTelemetry(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 4, Config{Ideal: true})
	if lt := f.EnableLinkTelemetry(); lt != nil {
		t.Fatalf("ideal fabric returned a collector")
	}
}
