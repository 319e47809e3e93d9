package gpu

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/vecmath"
)

// testCosts returns round-number costs so timings are easy to verify.
func testCosts() CostConfig {
	return CostConfig{
		DrawOverheadGeom:      100,
		CyclesPerVertex:       1,
		CyclesPerTriangle:     1,
		DrawOverheadFrag:      100,
		CyclesPerTriSetup:     1,
		CyclesPerFragment:     1,
		CyclesPerFragShaded:   1,
		CyclesPerFragWritten:  1,
		CyclesPerMergePixel:   1,
		ProjCyclesPerTriangle: 2,
		PipelineDepth:         2,
	}
}

func cams(w, h int) (view, proj vecmath.Mat4) {
	return vecmath.Identity(), vecmath.Orthographic(0, float64(w), float64(h), 0, 1, 10)
}

// newTestGPU builds a GPU, failing the test on construction errors.
func newTestGPU(t *testing.T, eng *sim.Engine, costs CostConfig, w, h int) *GPU {
	t.Helper()
	g, err := New(0, eng, costs, w, h, raster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// quad returns a draw covering [x0,x1)×[y0,y1) at object depth z.
func quad(id int, z, x0, y0, x1, y1 float64) primitive.DrawCommand {
	c := colorspace.Opaque(1, 1, 1)
	v := func(x, y float64) primitive.Vertex {
		return primitive.Vertex{Position: vecmath.Vec3{X: x, Y: y, Z: -z}, Color: c}
	}
	return primitive.DrawCommand{
		ID: id,
		Tris: []primitive.Triangle{
			{V: [3]primitive.Vertex{v(x0, y0), v(x1, y0), v(x1, y1)}},
			{V: [3]primitive.Vertex{v(x0, y0), v(x1, y1), v(x0, y1)}},
		},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
}

func TestSubmitDrawTimingAndCallbacks(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)

	var geomDone, done sim.Cycle = -1, -1
	res := g.SubmitDraw(quad(0, 5, 0, 0, 64, 64), view, proj, DrawOpts{
		OnGeomDone: func(*raster.DrawResult) { geomDone = eng.Now() },
		OnDone:     func(*raster.DrawResult) { done = eng.Now() },
	})
	eng.Run()

	// Geometry: 100 + 6 verts + 2 tris = 108 cycles.
	if geomDone != 108 {
		t.Errorf("geometry done at %d, want 108", geomDone)
	}
	// Fragment: 100 + 2 setup + 4096 gen + 4096 shade + 4096 write.
	wantFrag := sim.Cycle(100 + 2 + 3*64*64)
	if done != 108+wantFrag {
		t.Errorf("done at %d, want %d", done, 108+wantFrag)
	}
	if res.FragsGenerated != 64*64 {
		t.Errorf("FragsGenerated = %d", res.FragsGenerated)
	}
	if g.Stats().GeomBusy != 108 || g.Stats().FragBusy != wantFrag {
		t.Errorf("busy: geom=%d frag=%d", g.Stats().GeomBusy, g.Stats().FragBusy)
	}
}

func TestPipelineOverlap(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)

	var done1, done2 sim.Cycle
	// Two identical non-overlapping quads (second not occluded by first).
	g.SubmitDraw(quad(0, 5, 0, 0, 64, 32), view, proj, DrawOpts{
		OnDone: func(*raster.DrawResult) { done1 = eng.Now() },
	})
	g.SubmitDraw(quad(1, 5, 0, 32, 64, 64), view, proj, DrawOpts{
		OnDone: func(*raster.DrawResult) { done2 = eng.Now() },
	})
	eng.Run()
	// geom = 108 each; frag = 100+2+3*2048 = 6246 each.
	// Draw 1: frag 108..6354. Draw 2: geom 108..216, frag starts at 6354.
	if done1 != 108+6246 {
		t.Errorf("done1 = %d, want %d", done1, 108+6246)
	}
	if done2 != done1+6246 {
		t.Errorf("done2 = %d, want %d (fragment-serialized)", done2, done1+6246)
	}
}

func TestPipelineBackpressure(t *testing.T) {
	eng := sim.New()
	costs := testCosts()
	costs.PipelineDepth = 2
	g := newTestGPU(t, eng, costs, 64, 64)
	view, proj := cams(64, 64)

	// Submit 4 heavy-fragment draws; geometry of draw i may start only when
	// the fragment stage has started draw i-2.
	for i := 0; i < 4; i++ {
		g.SubmitDraw(quad(i, 5, 0, 0, 64, 64), view, proj, DrawOpts{})
	}
	eng.Run()
	// With unbounded run-ahead geometry would finish by 4*108. With
	// depth 2, geometry of draw 2 waits for fragment start of draw 0 (108),
	// and draw 3 waits for fragment start of draw 1.
	// Verify geometry progress at an early time is bounded.
	tris := g.ProcessedTriangles(4*108, 1)
	if tris > 6 {
		t.Errorf("geometry ran ahead: %d triangles by cycle %d", tris, 4*108)
	}
	if g.ScheduledTriangles() != 8 {
		t.Errorf("scheduled = %d", g.ScheduledTriangles())
	}
}

func TestProcessedTrianglesInterpolation(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)
	g.SubmitDraw(quad(0, 5, 0, 0, 64, 64), view, proj, DrawOpts{})

	// Geometry runs 0..108 over 2 triangles.
	if got := g.ProcessedTriangles(0, 1); got != 0 {
		t.Errorf("at 0: %d", got)
	}
	if got := g.ProcessedTriangles(54, 1); got != 1 {
		t.Errorf("at 54: %d, want 1", got)
	}
	if got := g.ProcessedTriangles(108, 1); got != 2 {
		t.Errorf("at 108: %d, want 2", got)
	}
	if got := g.ProcessedTriangles(10_000, 1); got != 2 {
		t.Errorf("at 10k: %d, want 2", got)
	}
	eng.Run()
}

func TestProcessedTrianglesQuantized(t *testing.T) {
	eng := sim.New()
	costs := testCosts()
	costs.PipelineDepth = 0 // no backpressure: geometry free-runs
	g := newTestGPU(t, eng, costs, 64, 64)
	view, proj := cams(64, 64)
	for i := 0; i < 50; i++ {
		g.SubmitDraw(quad(i, 5, 0, 0, 8, 8), view, proj, DrawOpts{})
	}
	// 100 triangles total. Quantized to 64: reported progress is 0 or 64.
	mid := g.ProcessedTriangles(3000, 64)
	exact := g.ProcessedTriangles(3000, 1)
	if mid != exact/64*64 {
		t.Errorf("quantized = %d, exact = %d", mid, exact)
	}
	eng.Run()
}

func TestSubmitProjection(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	var done sim.Cycle = -1
	g.SubmitProjection(1000, func() { done = eng.Now() })
	eng.Run()
	if done != 2000 {
		t.Errorf("projection done at %d, want 2000", done)
	}
	if g.Stats().ProjBusy != 2000 {
		t.Errorf("ProjBusy = %d", g.Stats().ProjBusy)
	}
}

func TestSubmitMerge(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	applied := false
	var done sim.Cycle = -1
	g.SubmitMerge(500, func() { applied = true }, func() { done = eng.Now() })
	if !applied {
		t.Error("functional merge not applied at submit")
	}
	eng.Run()
	if done != 500 {
		t.Errorf("merge done at %d, want 500", done)
	}
	if g.Stats().MergeBusy != 500 {
		t.Errorf("MergeBusy = %d", g.Stats().MergeBusy)
	}
}

func TestRenderTargets(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)

	d := quad(0, 5, 0, 0, 64, 64)
	d.State.RenderTarget = 1
	g.SubmitDraw(d, view, proj, DrawOpts{})
	eng.Run()
	if g.Target(1).At(10, 10) != colorspace.Opaque(1, 1, 1) {
		t.Error("draw did not land in render target 1")
	}
	if g.Target(0).At(10, 10) == colorspace.Opaque(1, 1, 1) {
		t.Error("draw leaked into render target 0")
	}
}

func TestOwnershipAppliesToDraws(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 128, 128)
	view, proj := cams(128, 128)
	mask := make([]bool, g.Target(0).TileCount())
	mask[0] = true
	g.SetOwnership(mask)
	res := g.SubmitDraw(quad(0, 5, 0, 0, 128, 128), view, proj, DrawOpts{})
	eng.Run()
	if res.FragsGenerated != 64*64 {
		t.Errorf("FragsGenerated = %d, want one tile", res.FragsGenerated)
	}
	if g.Ownership() == nil {
		t.Error("ownership not recorded")
	}
}

func TestPerDrawTimingRecord(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)
	g.SubmitDraw(quad(7, 5, 0, 0, 64, 64), view, proj, DrawOpts{RecordTiming: true})
	eng.Run()
	pd := g.Stats().PerDraw
	if len(pd) != 1 || pd[0].DrawID != 7 || pd[0].Triangles != 2 {
		t.Fatalf("PerDraw = %+v", pd)
	}
	if pd[0].GeomCycles != 108 || pd[0].PipeCycles <= pd[0].GeomCycles {
		t.Errorf("timing = %+v", pd[0])
	}
}

func TestResetPipeline(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	view, proj := cams(64, 64)
	g.SubmitDraw(quad(0, 5, 0, 0, 8, 8), view, proj, DrawOpts{})
	eng.RunUntil(g.BusyUntil())
	if err := g.ResetPipeline(); err != nil {
		t.Fatalf("idle reset: %v", err)
	}
	if g.ScheduledTriangles() != 2 {
		t.Errorf("scheduled triangles should persist: %d", g.ScheduledTriangles())
	}
	// In-flight reset is refused.
	g.SubmitDraw(quad(1, 5, 0, 0, 8, 8), view, proj, DrawOpts{})
	if err := g.ResetPipeline(); err == nil {
		t.Error("expected error resetting mid-flight")
	}
	eng.Run()
}

func TestBusyUntil(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	if g.BusyUntil() != 0 {
		t.Errorf("fresh GPU busy until %d", g.BusyUntil())
	}
	view, proj := cams(64, 64)
	g.SubmitDraw(quad(0, 5, 0, 0, 64, 64), view, proj, DrawOpts{})
	if g.BusyUntil() <= 0 {
		t.Error("BusyUntil should move after submission")
	}
	eng.Run()
}

func TestFragCyclesDRAMBound(t *testing.T) {
	c := testCosts()
	c.DRAMBytesPerCycle = 1 // starve memory bandwidth
	c.BytesPerFragTested = 4
	c.BytesPerFragWritten = 8
	c.L2HitRate = 0
	c.BytesPerTexMiss = 16
	res := raster.DrawResult{FragsGenerated: 100, FragsShaded: 100, FragsWritten: 100, TexSamples: 100}
	got := c.FragCycles(&res, 1)
	// traffic = 100*4 + 100*8 + 100*16 = 2800 bytes at 1 B/cy + overhead.
	want := c.DrawOverheadFrag + 2800
	if got != want {
		t.Errorf("DRAM-bound FragCycles = %v, want %v", got, want)
	}
	// With ample bandwidth the compute bound dominates instead.
	c.DRAMBytesPerCycle = 1e9
	fast := c.FragCycles(&res, 1)
	if fast >= got {
		t.Errorf("compute-bound (%v) should be below memory-bound (%v)", fast, got)
	}
}

func TestFragCyclesTexSamples(t *testing.T) {
	c := testCosts()
	c.CyclesPerTexSample = 2
	plain := raster.DrawResult{FragsShaded: 10}
	textured := plain
	textured.TexSamples = 10
	if c.FragCycles(&textured, 1) != c.FragCycles(&plain, 1)+20 {
		t.Errorf("TEX cost not charged: %v vs %v", c.FragCycles(&textured, 1), c.FragCycles(&plain, 1))
	}
}

// TestPrepareCommitEquivalence: PrepareDraw+CommitDraw must be
// observationally identical to SubmitDraw — same pixels, same stats, same
// completion times — including when every *distinct* GPU prepares before
// any of them commits (the pattern multigpu.System.BroadcastDraw uses).
func TestPrepareCommitEquivalence(t *testing.T) {
	const w, h = 64, 64
	view, proj := cams(w, h)
	draws := []primitive.DrawCommand{
		quad(0, 5, 0, 0, 48, 48),
		quad(1, 3, 16, 16, 64, 64),
		quad(2, 7, 0, 32, 64, 64),
	}

	run := func(split bool) (*GPU, *GPU, []sim.Cycle) {
		eng := sim.New()
		a, err := New(0, eng, testCosts(), w, h, raster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(1, eng, testCosts(), w, h, raster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var dones []sim.Cycle
		opts := func() DrawOpts {
			return DrawOpts{OnDone: func(*raster.DrawResult) { dones = append(dones, eng.Now()) }}
		}
		for _, d := range draws {
			if split {
				// Prepare both GPUs' functional work first (as a
				// broadcast does), then commit in submission order.
				pa := a.PrepareDraw(d, view, proj, opts())
				pb := b.PrepareDraw(d, view, proj, opts())
				a.CommitDraw(pa)
				b.CommitDraw(pb)
			} else {
				a.SubmitDraw(d, view, proj, opts())
				b.SubmitDraw(d, view, proj, opts())
			}
		}
		eng.Run()
		return a, b, dones
	}

	a1, b1, d1 := run(false)
	a2, b2, d2 := run(true)
	if len(d1) != len(d2) {
		t.Fatalf("completion count: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("completion %d at cycle %d (submit) vs %d (prepare+commit)", i, d1[i], d2[i])
		}
	}
	for _, pair := range []struct{ x, y *GPU }{{a1, a2}, {b1, b2}} {
		rx, ry := &pair.x.Stats().Raster, &pair.y.Stats().Raster
		if rx.FragsGenerated != ry.FragsGenerated || rx.FragsWritten != ry.FragsWritten ||
			rx.TrianglesIn != ry.TrianglesIn || pair.x.Stats().DrawsExecuted != pair.y.Stats().DrawsExecuted {
			t.Fatalf("gpu %d raster stats diverge", pair.x.ID)
		}
		if pair.x.Stats().GeomBusy != pair.y.Stats().GeomBusy || pair.x.Stats().FragBusy != pair.y.Stats().FragBusy {
			t.Fatalf("gpu %d busy cycles diverge", pair.x.ID)
		}
		cx := pair.x.Target(0).Checksum()
		cy := pair.y.Target(0).Checksum()
		if cx != cy {
			t.Fatalf("gpu %d framebuffer checksum %x vs %x", pair.x.ID, cx, cy)
		}
	}
}

// TestTracerDisabledAllocs pins the nil-tracer contract on the submission
// hot paths that now carry category tags: with no tracer attached, the tag
// arguments must never be materialized — 0 allocs/op. (SubmitGeometry is
// excluded only because it legitimately appends to the progress-segment
// slice; its tracing block is the same nil-guarded shape.)
func TestTracerDisabledAllocs(t *testing.T) {
	eng := sim.New()
	g := newTestGPU(t, eng, testCosts(), 64, 64)
	warm := func() {
		g.SubmitProjection(16, nil)
		g.SubmitMerge(16, nil, nil)
		g.Stall(4)
		eng.Run()
	}
	warm()
	if allocs := testing.AllocsPerRun(100, warm); allocs != 0 {
		t.Fatalf("untraced submission paths allocated %.1f allocs/op, want 0", allocs)
	}
}
