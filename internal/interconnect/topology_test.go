package interconnect

import (
	"testing"

	"chopin/internal/sim"
)

// linkEndpoints decodes a directed link ID back to (from, to) using the
// documented ID schemes, so tests can verify routes chain src→dst.
func linkEndpoints(t *testing.T, topo Topology, n, link int) (int, int) {
	t.Helper()
	switch topo.Kind() {
	case TopoCrossbar:
		return link / n, link % n
	case TopoRing:
		if link < n {
			return link, (link + 1) % n
		}
		at := link - n
		return at, (at - 1 + n) % n
	case TopoMesh2D:
		m := topo.(*mesh2D)
		node, dir := link/4, link%4
		r, c := node/m.cols, node%m.cols
		switch dir {
		case 0:
			c++
		case 1:
			c--
		case 2:
			r++
		case 3:
			r--
		}
		return node, r*m.cols + c
	}
	t.Fatalf("unexpected topology kind %v", topo.Kind())
	return 0, 0
}

// wantHops is the src→dst distance each wiring's routing must realize: one
// hop on the crossbar, the shorter way round a ring, and the Manhattan
// distance on a mesh (dimension-order routing is minimal even when the last
// row is partial).
func wantHops(t *testing.T, topo Topology, src, dst int) int {
	t.Helper()
	switch topo.Kind() {
	case TopoCrossbar:
		return 1
	case TopoRing:
		n := topo.(*ring).n
		d := (dst - src + n) % n
		return min(d, n-d)
	case TopoMesh2D:
		m := topo.(*mesh2D)
		dr, dc := src/m.cols-dst/m.cols, src%m.cols-dst%m.cols
		return max(dr, -dr) + max(dc, -dc)
	}
	t.Fatalf("unexpected topology kind %v", topo.Kind())
	return 0
}

// TestTopologyRoutes checks, for every pair at a spread of GPU counts
// (including partial mesh rows and the full 64-GPU scale), that routes are
// valid link chains from src to dst with link IDs in range, that each route
// has the wiring's shortest length, and that LinkBetween names every first
// hop.
func TestTopologyRoutes(t *testing.T) {
	for _, kind := range []TopologyKind{TopoCrossbar, TopoRing, TopoMesh2D} {
		for _, n := range []int{2, 3, 5, 7, 8, 9, 12, 16, 33, 48, 64} {
			topo, err := NewTopology(kind, n)
			if err != nil {
				t.Fatalf("NewTopology(%v, %d): %v", kind, n, err)
			}
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					route := topo.Route(src, dst, nil)
					if want := wantHops(t, topo, src, dst); len(route) != want {
						t.Fatalf("%v n=%d %d→%d: %d hops, want %d",
							kind, n, src, dst, len(route), want)
					}
					if len(route) > n-1 {
						t.Fatalf("%v n=%d %d→%d: %d hops exceeds the route buffer's %d",
							kind, n, src, dst, len(route), n-1)
					}
					at := src
					for _, l := range route {
						if l < 0 || l >= topo.NumLinks() {
							t.Fatalf("%v n=%d %d→%d: link %d out of range [0,%d)",
								kind, n, src, dst, l, topo.NumLinks())
						}
						from, to := linkEndpoints(t, topo, n, l)
						if from != at {
							t.Fatalf("%v n=%d %d→%d: link %d starts at %d, route is at %d",
								kind, n, src, dst, l, from, at)
						}
						if to < 0 || to >= n {
							t.Fatalf("%v n=%d %d→%d: link %d leads to nonexistent node %d",
								kind, n, src, dst, l, to)
						}
						at = to
					}
					if at != dst {
						t.Fatalf("%v n=%d %d→%d: route ends at %d", kind, n, src, dst, at)
					}
				}
			}
		}
	}
}

// TestTopologyCrossbar pins the crossbar wiring and its timing: every
// ordered pair is its own one-hop link src·n+dst, self pairs name no link,
// a transfer takes tx + LatencyCycles, and a second transfer from the same
// source waits only for the egress port, never for its (private) link.
func TestTopologyCrossbar(t *testing.T) {
	const n = 8
	topo, err := NewTopology(TopoCrossbar, n)
	if err != nil || topo == nil {
		t.Fatalf("NewTopology(crossbar) = (%v, %v), want a topology", topo, err)
	}
	if topo.Kind() != TopoCrossbar || topo.NumLinks() != n*n {
		t.Fatalf("crossbar kind %v with %d links, want %v with %d", topo.Kind(), topo.NumLinks(), TopoCrossbar, n*n)
	}
	for s := 0; s < n; s++ {
		if got := topo.LinkBetween(s, s); got != -1 {
			t.Errorf("LinkBetween(%d, %d) = %d, want -1", s, s, got)
		}
		if nb := topo.Neighbors(s, nil); len(nb) != 0 {
			t.Errorf("Neighbors(%d) = %v, want none (crossbar GPUs relay nothing)", s, nb)
		}
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			route := topo.Route(s, d, nil)
			if len(route) != 1 || route[0] != s*n+d {
				t.Errorf("Route(%d, %d) = %v, want [%d]", s, d, route, s*n+d)
			}
			if got := topo.LinkBetween(s, d); got != s*n+d {
				t.Errorf("LinkBetween(%d, %d) = %d, want %d", s, d, got, s*n+d)
			}
		}
	}
	if got := topo.LinkBetween(0, n); got != -1 {
		t.Errorf("LinkBetween(0, %d) = %d, want -1", n, got)
	}

	eng := sim.New()
	f := newFabric(t, eng, 3, Config{BytesPerCycle: 64, LatencyCycles: 200})
	if f.topo == nil || f.topo.Kind() != TopoCrossbar {
		t.Fatalf("default fabric topology = %v, want the crossbar", f.topo)
	}
	var first, second sim.Cycle
	f.Send(0, 1, 6400, ClassComposition, func() { first = eng.Now() })  // tx 100: starts at 0
	f.Send(0, 2, 6400, ClassComposition, func() { second = eng.Now() }) // queued behind it
	eng.Run()
	if first != 300 {
		t.Errorf("one-hop delivery at %d, want 300 (tx 100 + latency 200)", first)
	}
	if second != 400 {
		t.Errorf("second transfer from GPU 0 delivered at %d, want 400 (egress port frees at 100)", second)
	}
}

// TestRingTiming pins the routed timing model on a 4-GPU ring: a 2-hop
// transfer pays the link latency per hop, and a 1-hop transfer matches the
// crossbar formula exactly.
func TestRingTiming(t *testing.T) {
	cfg := Config{BytesPerCycle: 64, LatencyCycles: 200, Topology: TopoRing}
	eng := sim.New()
	f := newFabric(t, eng, 4, cfg)
	var oneHop, twoHop sim.Cycle
	f.Send(0, 1, 6400, ClassComposition, func() { oneHop = eng.Now() }) // tx=100
	eng.Run()
	eng2 := sim.New()
	f2 := newFabric(t, eng2, 4, cfg)
	f2.Send(0, 2, 6400, ClassComposition, func() { twoHop = eng2.Now() })
	eng2.Run()
	if oneHop != 300 {
		t.Errorf("1-hop ring delivery at %d, want 300 (tx 100 + 1×200 latency)", oneHop)
	}
	if twoHop != 500 {
		t.Errorf("2-hop ring delivery at %d, want 500 (tx 100 + 2×200 latency)", twoHop)
	}
}

// TestRingLinkContention checks that transfers from distinct sources
// contend for a shared ring link: 0→2 and 1→2 both cross link 1→2, so the
// second serializes behind the first's occupancy.
func TestRingLinkContention(t *testing.T) {
	cfg := Config{BytesPerCycle: 64, LatencyCycles: 200, Topology: TopoRing}
	eng := sim.New()
	f := newFabric(t, eng, 4, cfg)
	var first, second sim.Cycle
	f.Send(0, 2, 6400, ClassComposition, func() { first = eng.Now() })  // links 0→1, 1→2
	f.Send(1, 2, 6400, ClassComposition, func() { second = eng.Now() }) // link 1→2 only
	eng.Run()
	if first != 500 {
		t.Errorf("0→2 delivered at %d, want 500", first)
	}
	// 1→2 uncontended would arrive at 300; it must instead wait for 0→2's
	// claim on link 1→2 ([200, 300]) to drain, then pay tx+latency.
	if second != 600 {
		t.Errorf("1→2 delivered at %d, want 600 (serialized behind 0→2 on link 1→2)", second)
	}
	if first == 0 || second == 0 {
		t.Fatal("a delivery callback never fired")
	}
}

// TestMeshPartialRowRouting exercises the Y-first exception: with n=8 on a
// 3×3 grid the corner (row(6), col(7)... ) — concretely, routes from nodes
// in the partial last row must never traverse the missing node (2,2)=8.
func TestMeshPartialRowRouting(t *testing.T) {
	topo, err := NewTopology(TopoMesh2D, 8) // 3 cols × 3 rows, node 8 missing
	if err != nil {
		t.Fatal(err)
	}
	for src := 6; src < 8; src++ { // partial-row sources
		for dst := 0; dst < 8; dst++ {
			if dst == src {
				continue
			}
			at := src
			for _, l := range topo.Route(src, dst, nil) {
				_, to := linkEndpoints(t, topo, 8, l)
				if to >= 8 {
					t.Fatalf("route %d→%d traverses nonexistent node %d", src, dst, to)
				}
				at = to
			}
			if at != dst {
				t.Fatalf("route %d→%d ends at %d", src, dst, at)
			}
		}
	}
}

// TestParseTopologyKind covers the flag-name round trip.
func TestParseTopologyKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TopologyKind
		ok   bool
	}{
		{"crossbar", TopoCrossbar, true},
		{"xbar", TopoCrossbar, true},
		{"ring", TopoRing, true},
		{"mesh", TopoMesh2D, true},
		{"mesh2d", TopoMesh2D, true},
		{"torus", TopoCrossbar, false},
	} {
		got, err := ParseTopologyKind(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseTopologyKind(%q) = (%v, %v), want (%v, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
	for _, k := range []TopologyKind{TopoCrossbar, TopoRing, TopoMesh2D} {
		rt, err := ParseTopologyKind(k.String())
		if err != nil || rt != k {
			t.Errorf("round trip %v: (%v, %v)", k, rt, err)
		}
	}
}

// TestTopologyIdealIgnored pins that Ideal fabrics bypass routing entirely:
// delivery is immediate even with a topology configured.
func TestTopologyIdealIgnored(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 8, Config{Ideal: true, Topology: TopoMesh2D})
	if f.topo != nil {
		t.Fatal("ideal fabric built a routed topology")
	}
	var at sim.Cycle = -1
	f.Send(0, 7, 1<<20, ClassComposition, func() { at = eng.Now() })
	eng.Run()
	if at != 0 {
		t.Fatalf("ideal delivery at %d, want 0", at)
	}
}
