package interconnect

import (
	"errors"
	"testing"

	"chopin/internal/sim"
)

func topoConfig(kind TopologyKind) Config {
	cfg := DefaultConfig()
	cfg.Topology = kind
	return cfg
}

// TestDownLinkRingReversal pins the ring reroute: with the 0→1 link down, a
// 0→1 transfer reverses direction around the whole ring.
func TestDownLinkRingReversal(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 4, topoConfig(TopoRing))
	if err := f.DownLink(0, 1); err != nil {
		t.Fatal(err)
	}
	var done sim.Cycle = -1
	f.Send(0, 1, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// 100 cycles tx + 3 hops × 200 latency counter-clockwise (0→3→2→1)
	// instead of the direct hop's 300.
	if done != 700 {
		t.Errorf("rerouted delivery at %d, want 700", done)
	}
	if f.RerouteCount() != 1 || f.UnroutableCount() != 0 {
		t.Errorf("reroutes=%d unroutable=%d, want 1/0", f.RerouteCount(), f.UnroutableCount())
	}
	if err := f.Err(); err != nil {
		t.Errorf("reroutable link-down recorded error: %v", err)
	}
	// The counter-clockwise links (n+at for at = 0, 3, 2) were claimed; the
	// downed clockwise link stayed idle.
	for _, l := range []int{4 + 0, 4 + 3, 4 + 2} {
		if f.linkFree[l] == 0 {
			t.Errorf("detour link %d never claimed", l)
		}
	}
	if f.linkFree[0] != 0 {
		t.Error("downed link 0 was claimed")
	}
}

// TestDownLinkMeshDetour pins the mesh BFS: with one dimension-order hop
// down, the transfer detours around the hole at +1 hop.
func TestDownLinkMeshDetour(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 9, topoConfig(TopoMesh2D)) // 3×3 grid
	// Default 0→2 route is 0→1→2 along row 0. Down the 1→2 link.
	if err := f.DownLink(1, 2); err != nil {
		t.Fatal(err)
	}
	var done sim.Cycle = -1
	f.Send(0, 2, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// Shortest surviving path is 4 hops (e.g. 0→1→4→5→2): 100 tx + 4×200.
	if done != 900 {
		t.Errorf("rerouted delivery at %d, want 900", done)
	}
	if f.RerouteCount() != 1 {
		t.Errorf("reroutes = %d, want 1", f.RerouteCount())
	}
	// Unaffected pairs keep their default route.
	done = -1
	f.Send(3, 5, 6400, ClassComposition, func() { done = eng.Now() })
	start := eng.Now()
	eng.Run()
	if got := done - start; got != 500 {
		t.Errorf("unaffected transfer took %d, want 500", got)
	}
}

// TestDownLinkCrossbarUnroutable pins the crossbar contract: point-to-point
// pairs have no detour, so the downed pair surfaces a typed UnroutableError
// while the transfer still drains.
func TestDownLinkCrossbarUnroutable(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 4, DefaultConfig())
	if err := f.DownLink(2, 3); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	f.Send(2, 3, 6400, ClassComposition, func() { delivered++ })
	f.Send(3, 2, 6400, ClassComposition, func() { delivered++ })
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 3 {
		t.Fatalf("delivered %d of 3 transfers (frame must drain)", delivered)
	}
	var ur *UnroutableError
	if !errors.As(f.Err(), &ur) {
		t.Fatalf("err = %v, want UnroutableError", f.Err())
	}
	if ur.Link != [2]int{2, 3} {
		t.Errorf("blamed link %v, want [2 3]", ur.Link)
	}
	if f.UnroutableCount() != 2 {
		t.Errorf("unroutable = %d, want 2 (both directions)", f.UnroutableCount())
	}
}

// TestDownLinkDisconnectsRing pins the disconnection case: two downed ring
// links isolate a node, and transfers to it surface UnroutableError.
func TestDownLinkDisconnectsRing(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 4, topoConfig(TopoRing))
	if err := f.DownLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.DownLink(1, 2); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	f.Send(0, 1, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatal("unroutable transfer did not drain")
	}
	var ur *UnroutableError
	if !errors.As(f.Err(), &ur) {
		t.Fatalf("err = %v, want UnroutableError", f.Err())
	}
	if ur.Src != 0 || ur.Dst != 1 {
		t.Errorf("unroutable pair %d→%d, want 0→1", ur.Src, ur.Dst)
	}
}

// TestDownLinkValidation pins the error paths: bad ids and non-adjacent
// mesh endpoints name no physical link.
func TestDownLinkValidation(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 9, topoConfig(TopoMesh2D))
	if err := f.DownLink(0, 0); err == nil {
		t.Error("self-link did not error")
	}
	if err := f.DownLink(0, 9); err == nil {
		t.Error("out-of-range endpoint did not error")
	}
	if err := f.DownLink(0, 8); err == nil {
		t.Error("non-adjacent mesh pair did not error")
	}
	if err := f.DownLink(0, 3); err != nil {
		t.Errorf("adjacent vertical pair errored: %v", err)
	}
}

// TestRetryReclaimsRoutedLinks is the regression test for retry/backoff on
// routed topologies: a retried transfer must re-claim every per-hop link of
// its route (not just the src/dst ports), and the retry must be attributed
// to exactly the links it crossed.
func TestRetryReclaimsRoutedLinks(t *testing.T) {
	eng := sim.New()
	cfg := topoConfig(TopoMesh2D)
	cfg.Retry = RetryConfig{Timeout: 100, MaxRetries: 3, Backoff: 32, BackoffCap: 128}
	f := newFabric(t, eng, 9, cfg)
	inj := &scriptInjector{script: []Fault{{Kind: FaultDrop}}}
	f.SetInjector(inj)

	src, dst := 0, 5 // route 0→1→(+y)→5: 3 hops
	route := f.topo.Route(src, dst, nil)
	if len(route) != 3 {
		t.Fatalf("expected a 3-hop route, got %v", route)
	}
	delivered := 0
	f.Send(src, dst, 6400, ClassComposition, func() { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	fc := f.Stats().Faults[ClassComposition]
	if fc.Drops != 1 || fc.Retries != 1 {
		t.Fatalf("counters = %+v, want 1 drop, 1 retry", fc)
	}
	// First attempt: tx=100, links claimed over [0, 100+2·200); the last
	// hop's claim ends at 500. The retransmission re-claims the full path
	// strictly later, so every route link's busy-until exceeds the first
	// attempt's horizon.
	for _, l := range route {
		if f.linkFree[l] <= 500 {
			t.Errorf("link %d busy-until %d: retransmission did not re-claim it", l, f.linkFree[l])
		}
		if got := f.LinkRetryCount(l); got != 1 {
			t.Errorf("link %d retry count = %d, want 1", l, got)
		}
	}
	// Links off the route carry no retry attribution.
	for l := 0; l < f.topo.NumLinks(); l++ {
		onRoute := false
		for _, rl := range route {
			if rl == l {
				onRoute = true
			}
		}
		if !onRoute && f.LinkRetryCount(l) != 0 {
			t.Errorf("off-route link %d attributed %d retries", l, f.LinkRetryCount(l))
		}
	}
}

// TestRoutedSendNilInjectorAllocs proves the fault-free routed send path
// stays allocation-free: no injector, no downed links, a warm steady state.
func TestRoutedSendNilInjectorAllocs(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 16, topoConfig(TopoMesh2D))
	send := func() {
		f.Send(3, 12, 4096, ClassComposition, func() {})
		f.Send(0, 15, 4096, ClassPrimDist, func() {})
		eng.Run()
	}
	for i := 0; i < 32; i++ {
		send() // warm the free lists and queue capacity
	}
	if avg := testing.AllocsPerRun(100, send); avg > 0 {
		t.Errorf("routed fault-free send path allocates %.2f allocs/op, want 0", avg)
	}
}
