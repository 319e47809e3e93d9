package interconnect

import (
	"testing"

	"chopin/internal/sim"
)

// benchSend queues transfers in a ring (each GPU sends to its neighbour) and
// drains the engine — the steady-state shape of a composition exchange.
func benchSend(eng *sim.Engine, f *Fabric, n, transfers int) {
	for j := 0; j < transfers; j++ {
		src := j % n
		f.Send(src, (src+1)%n, 4096, ClassComposition, nil)
	}
	eng.Run()
}

// BenchmarkTracerDisabled is the observability overhead contract for the
// fabric: with no tracer attached, the Send/tryStart/delivery hot path must
// not allocate in steady state (delivery events are recycled, the egress
// queue keeps its capacity). TestTracerDisabledAllocs enforces the zero.
func BenchmarkTracerDisabled(b *testing.B) {
	const n, transfers = 4, 256
	eng := sim.New()
	f := newFabric(b, eng, n, DefaultConfig())
	benchSend(eng, f, n, transfers) // warm free lists and queue capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSend(eng, f, n, transfers)
	}
}

// TestTracerDisabledAllocs pins the disabled-path contract: an untraced
// fabric moves bulk and control traffic without allocating.
func TestTracerDisabledAllocs(t *testing.T) {
	const n, transfers = 4, 64
	eng := sim.New()
	f := newFabric(t, eng, n, DefaultConfig())
	benchSend(eng, f, n, transfers)
	allocs := testing.AllocsPerRun(100, func() {
		benchSend(eng, f, n, transfers)
	})
	if allocs != 0 {
		t.Fatalf("untraced Send path allocated %.1f allocs/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		f.SendControl(0, 1, 4, nil)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("untraced SendControl path allocated %.1f allocs/op, want 0", allocs)
	}
}

// benchTopology builds a fabric with the given topology kind and measures
// the neighbour-send steady state — the Send/tryStart hot path with and
// without the routed-path claim loop.
func benchTopology(b *testing.B, kind TopologyKind) {
	const n, transfers = 8, 256
	cfg := DefaultConfig()
	cfg.Topology = kind
	eng := sim.New()
	f := newFabric(b, eng, n, cfg)
	benchSend(eng, f, n, transfers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSend(eng, f, n, transfers)
	}
}

// BenchmarkSendCrossbar is the default-path benchmark the 0-allocs/op CI
// guard tracks: the topology indirection must cost nothing when disabled
// (a single nil check on tryStart).
func BenchmarkSendCrossbar(b *testing.B) { benchTopology(b, TopoCrossbar) }

// BenchmarkSendRing and BenchmarkSendMesh track the routed-path cost.
func BenchmarkSendRing(b *testing.B) { benchTopology(b, TopoRing) }
func BenchmarkSendMesh(b *testing.B) { benchTopology(b, TopoMesh2D) }

// TestTopologySendAllocs pins the hot-path allocation contract across
// topologies: the crossbar (explicitly configured, same nil-topology path
// as the default) stays at zero, and the routed topologies also stay at
// zero in steady state — the route scratch buffer and link-occupancy table
// are preallocated at construction.
func TestTopologySendAllocs(t *testing.T) {
	const n, transfers = 8, 64
	for _, kind := range []TopologyKind{TopoCrossbar, TopoRing, TopoMesh2D} {
		cfg := DefaultConfig()
		cfg.Topology = kind
		eng := sim.New()
		f := newFabric(t, eng, n, cfg)
		benchSend(eng, f, n, transfers)
		allocs := testing.AllocsPerRun(100, func() {
			benchSend(eng, f, n, transfers)
		})
		if allocs != 0 {
			t.Errorf("%s Send path allocated %.1f allocs/op, want 0", kind, allocs)
		}
	}
}
