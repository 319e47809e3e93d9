package interconnect

import (
	"testing"

	"chopin/internal/sim"
)

// These tests pin mesh2D behaviour on non-square GPU counts, where cols ≠
// rows and (for n=48) the last row is partial. Square grids exercise none of
// the corner cases: the ⌈√n⌉ column fit, the (rows-1)+(cols-1) longest route
// with rows < cols, and the Y-first fallback when the X-first corner falls
// off the grid.

// TestMeshNonSquareShape pins the grid fit, link-space size and longest
// route for GPU counts that don't square: 6 → 3×2, 12 → 4×3, 48 → 7×7 with
// the last row holding only 42..47 (the (6,6) corner, id 48, does not exist).
func TestMeshNonSquareShape(t *testing.T) {
	for _, tc := range []struct {
		n, cols, rows, longest, links int
	}{
		{6, 3, 2, 3, 24},
		{12, 4, 3, 5, 48},
		// The missing (6,6) corner does not shorten the longest route: 6→42,
		// (0,6)→(6,0), still spans (rows-1)+(cols-1) = 12 hops.
		{48, 7, 7, 12, 192},
	} {
		topo, err := NewTopology(TopoMesh2D, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		m := topo.(*mesh2D)
		if m.cols != tc.cols || m.rows != tc.rows {
			t.Errorf("n=%d: grid %d×%d, want %d×%d", tc.n, m.cols, m.rows, tc.cols, tc.rows)
		}
		longest := 0
		for src := 0; src < tc.n; src++ {
			for dst := 0; dst < tc.n; dst++ {
				if src != dst {
					longest = max(longest, len(topo.Route(src, dst, nil)))
				}
			}
		}
		if longest != tc.longest {
			t.Errorf("n=%d: longest route %d hops, want %d", tc.n, longest, tc.longest)
		}
		if topo.NumLinks() != tc.links {
			t.Errorf("n=%d: %d links, want %d", tc.n, topo.NumLinks(), tc.links)
		}
	}
}

// TestMeshNonSquareHopTable pins the full Manhattan-distance table on the
// 3×2 grid and spot-checks the larger counts, including routes into and out
// of the partial last row of the 48-GPU grid.
func TestMeshNonSquareHopTable(t *testing.T) {
	topo6, err := NewTopology(TopoMesh2D, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Grid: 0 1 2 / 3 4 5.
	want := [6][6]int{
		{0, 1, 2, 1, 2, 3},
		{1, 0, 1, 2, 1, 2},
		{2, 1, 0, 3, 2, 1},
		{1, 2, 3, 0, 1, 2},
		{2, 1, 2, 1, 0, 1},
		{3, 2, 1, 2, 1, 0},
	}
	for src := 0; src < 6; src++ {
		for dst := 0; dst < 6; dst++ {
			if src == dst {
				continue
			}
			if got := len(topo6.Route(src, dst, nil)); got != want[src][dst] {
				t.Errorf("n=6 route %d→%d has %d hops, want %d", src, dst, got, want[src][dst])
			}
		}
	}

	topo12, err := NewTopology(TopoMesh2D, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo12.Route(8, 3, nil)); got != 5 { // (2,0)→(0,3): the 4×3 longest route
		t.Errorf("n=12 route 8→3 has %d hops, want 5", got)
	}

	topo48, err := NewTopology(TopoMesh2D, 48)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo48.Route(0, 47, nil)); got != 11 { // (0,0)→(6,5): the partial row's far end
		t.Errorf("n=48 route 0→47 has %d hops, want 11", got)
	}
	if got := len(topo48.Route(44, 6, nil)); got != 10 { // (6,2)→(0,6)
		t.Errorf("n=48 route 44→6 has %d hops, want 10", got)
	}
}

// TestMeshNonSquareRoutes pins exact link-id routes (id = node*4 + direction,
// 0:+x 1:−x 2:+y 3:−y), including the Y-first fallback on the partial
// 48-GPU grid: 44→6 has its X-first corner at (6,6) = node 48, which is off
// the grid, so the route must climb column 2 first and only then walk row 0.
func TestMeshNonSquareRoutes(t *testing.T) {
	for _, tc := range []struct {
		n, src, dst int
		want        []int
	}{
		// n=6: X-first along row 0 (links 0, 4) then down column 2 (link 10).
		{6, 0, 5, []int{0, 4, 10}},
		// n=6: the reverse takes −x along row 1 (21, 17) then −y (15).
		{6, 5, 0, []int{21, 17, 15}},
		// n=12: row 2 eastward (32, 36, 40) then column 3 up (47, 31) — a
		// diameter-length route on the 4×3 grid.
		{12, 8, 3, []int{32, 36, 40, 47, 31}},
		// n=48 Y-first fallback: column 2 up from row 6 to row 0, then row 0
		// eastward to column 6.
		{48, 44, 6, []int{179, 151, 123, 95, 67, 39, 8, 12, 16, 20}},
		// n=48 same-column partial-row source stays a pure Y walk.
		{48, 47, 5, []int{191, 163, 135, 107, 79, 51}},
	} {
		topo, err := NewTopology(TopoMesh2D, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		got := topo.Route(tc.src, tc.dst, nil)
		if len(got) != len(tc.want) {
			t.Errorf("n=%d route %d→%d = %v, want %v", tc.n, tc.src, tc.dst, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("n=%d route %d→%d = %v, want %v", tc.n, tc.src, tc.dst, got, tc.want)
				break
			}
		}
	}
}

// TestMeshNonSquareReroute pins the detour search on the 3×2 grid: with the
// 1↔2 link down, a 0→2 transfer (default 0→1→2) takes the deterministic BFS
// detour 0→1→4→5→2 — four hops through the second row — while unaffected
// pairs keep their default routes.
func TestMeshNonSquareReroute(t *testing.T) {
	eng := sim.New()
	f := newFabric(t, eng, 6, topoConfig(TopoMesh2D))
	if err := f.DownLink(1, 2); err != nil {
		t.Fatal(err)
	}
	var done sim.Cycle = -1
	f.Send(0, 2, 6400, ClassComposition, func() { done = eng.Now() })
	eng.Run()
	// 100 cycles tx + 4 hops × 200 latency, up from the default 2-hop 500.
	if done != 900 {
		t.Errorf("rerouted delivery at %d, want 900", done)
	}
	if f.RerouteCount() != 1 || f.UnroutableCount() != 0 {
		t.Errorf("reroutes=%d unroutable=%d, want 1/0", f.RerouteCount(), f.UnroutableCount())
	}
	// BFS visits neighbours in ascending link order, so the detour is exactly
	// 0→1 (0), 1→4 (6), 4→5 (16), 5→2 (23); the downed 1→2 link stays idle.
	for _, l := range []int{0, 6, 16, 23} {
		if f.linkFree[l] == 0 {
			t.Errorf("detour link %d never claimed", l)
		}
	}
	if f.linkFree[4] != 0 {
		t.Error("downed link 1→2 was claimed")
	}
	// A pair not crossing the hole keeps its 2-hop default route.
	done = -1
	f.Send(3, 5, 6400, ClassComposition, func() { done = eng.Now() })
	start := eng.Now()
	eng.Run()
	if got := done - start; got != 500 {
		t.Errorf("unaffected 3→5 took %d, want 500", got)
	}
}
