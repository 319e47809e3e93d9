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

// TestTopologyRoutes checks, for every pair at a spread of GPU counts
// (including partial mesh rows and the full 64-GPU scale), that routes are
// valid link chains from src to dst, lengths match Hops, link IDs are in
// range, and hop counts never exceed the diameter.
func TestTopologyRoutes(t *testing.T) {
	for _, kind := range []TopologyKind{TopoRing, TopoMesh2D} {
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
					if len(route) != topo.Hops(src, dst) {
						t.Fatalf("%v n=%d %d→%d: len(route)=%d, Hops=%d",
							kind, n, src, dst, len(route), topo.Hops(src, dst))
					}
					if len(route) > topo.Diameter() {
						t.Fatalf("%v n=%d %d→%d: %d hops exceeds diameter %d",
							kind, n, src, dst, len(route), topo.Diameter())
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

// TestTopologyCrossbarIsNil pins the default contract: the crossbar has no
// routed topology — New returns a nil Topology so the fabric keeps its
// legacy nil-check-only timing path — and diameter 1.
func TestTopologyCrossbarIsNil(t *testing.T) {
	topo, err := NewTopology(TopoCrossbar, 8)
	if err != nil || topo != nil {
		t.Fatalf("NewTopology(crossbar) = (%v, %v), want (nil, nil)", topo, err)
	}
	eng := sim.New()
	f := newFabric(t, eng, 8, DefaultConfig())
	if f.Topology() != nil {
		t.Fatalf("default fabric: topology %v, want nil", f.Topology())
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
	if f.Topology() != nil {
		t.Fatal("ideal fabric built a routed topology")
	}
	var at sim.Cycle = -1
	f.Send(0, 7, 1<<20, ClassComposition, func() { at = eng.Now() })
	eng.Run()
	if at != 0 {
		t.Fatalf("ideal delivery at %d, want 0", at)
	}
}
