package raster

import (
	"math"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
	"chopin/internal/primitive"
	"chopin/internal/vecmath"
)

// orthoCams returns identity-ish camera transforms that map object
// coordinates [0,w]×[0,h] directly onto a w×h screen (z ∈ [-1, -10] visible,
// nearer = smaller depth).
func orthoCams(w, h int) (view, proj vecmath.Mat4) {
	view = vecmath.Identity()
	proj = vecmath.Orthographic(0, float64(w), float64(h), 0, 1, 10)
	return
}

// tri builds a triangle at depth z (object space, in front of the ortho
// camera at -z) with a uniform colour.
func tri(c colorspace.RGBA, z float64, pts ...vecmath.Vec2) primitive.Triangle {
	var t primitive.Triangle
	for i := 0; i < 3; i++ {
		t.V[i] = primitive.Vertex{
			Position: vecmath.Vec3{X: pts[i].X, Y: pts[i].Y, Z: -z},
			Color:    c,
		}
	}
	return t
}

func quadDraw(id int, c colorspace.RGBA, z float64, x0, y0, x1, y1 float64) primitive.DrawCommand {
	return primitive.DrawCommand{
		ID: id,
		Tris: []primitive.Triangle{
			tri(c, z, vecmath.Vec2{X: x0, Y: y0}, vecmath.Vec2{X: x1, Y: y0}, vecmath.Vec2{X: x1, Y: y1}),
			tri(c, z, vecmath.Vec2{X: x0, Y: y0}, vecmath.Vec2{X: x1, Y: y1}, vecmath.Vec2{X: x0, Y: y1}),
		},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
}

func TestFullScreenQuadCoversEveryPixelOnce(t *testing.T) {
	const w, h = 64, 64
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	d := quadDraw(0, colorspace.Opaque(1, 0, 0), 5, 0, 0, w, h)
	res := r.Draw(d, view, proj)

	// The two triangles share a diagonal; the top-left rule must cover each
	// pixel exactly once.
	if res.FragsGenerated != w*h {
		t.Errorf("FragsGenerated = %d, want %d", res.FragsGenerated, w*h)
	}
	if res.FragsWritten != w*h {
		t.Errorf("FragsWritten = %d, want %d", res.FragsWritten, w*h)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if fb.At(x, y) != colorspace.Opaque(1, 0, 0) {
				t.Fatalf("pixel (%d,%d) = %+v", x, y, fb.At(x, y))
			}
		}
	}
}

func TestSharedHorizontalEdgeNoDoubleCover(t *testing.T) {
	// Two triangles sharing an exactly horizontal edge: additive blending
	// would reveal double coverage as a brighter seam.
	const w, h = 32, 32
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	c := colorspace.FromStraight(0.25, 0.25, 0.25, 1)
	d := primitive.DrawCommand{
		Tris: []primitive.Triangle{
			tri(c, 5, vecmath.Vec2{X: 0, Y: 0}, vecmath.Vec2{X: 32, Y: 16}, vecmath.Vec2{X: 0, Y: 16}),
			tri(c, 5, vecmath.Vec2{X: 0, Y: 16}, vecmath.Vec2{X: 32, Y: 16}, vecmath.Vec2{X: 0, Y: 32}),
		},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
	d.State.BlendOp = colorspace.BlendAdd
	d.State.DepthWrite = false
	res := r.Draw(d, view, proj)
	// Every fragment along y=16 must be claimed by exactly one triangle.
	for x := 0; x < w; x++ {
		got := fb.At(x, 16).R
		if got > 0.26 {
			t.Fatalf("double cover at (%d,16): R=%v", x, got)
		}
	}
	if res.FragsGenerated == 0 {
		t.Fatal("nothing rasterized")
	}
}

func TestDepthTestOcclusion(t *testing.T) {
	const w, h = 16, 16
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	near := quadDraw(0, colorspace.Opaque(0, 1, 0), 2, 0, 0, w, h)
	far := quadDraw(1, colorspace.Opaque(1, 0, 0), 8, 0, 0, w, h)

	// Draw near first: the far draw must be fully depth-culled (early-Z).
	r.Draw(near, view, proj)
	res := r.Draw(far, view, proj)
	if res.FragsEarlyPassed != 0 {
		t.Errorf("far draw early-passed %d fragments, want 0", res.FragsEarlyPassed)
	}
	if res.FragsShaded != 0 {
		t.Errorf("early-Z should cull before shading, shaded %d", res.FragsShaded)
	}
	if fb.At(8, 8) != colorspace.Opaque(0, 1, 0) {
		t.Errorf("pixel = %+v, want green", fb.At(8, 8))
	}
}

func TestDepthTestBackToFront(t *testing.T) {
	const w, h = 16, 16
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	// Far first, then near: both pass, near wins.
	r.Draw(quadDraw(0, colorspace.Opaque(1, 0, 0), 8, 0, 0, w, h), view, proj)
	res := r.Draw(quadDraw(1, colorspace.Opaque(0, 1, 0), 2, 0, 0, w, h), view, proj)
	if res.FragsEarlyPassed != w*h {
		t.Errorf("near draw passed %d, want %d", res.FragsEarlyPassed, w*h)
	}
	if fb.At(8, 8) != colorspace.Opaque(0, 1, 0) {
		t.Errorf("pixel = %+v, want green", fb.At(8, 8))
	}
}

func TestLateZWhenEarlyDisabled(t *testing.T) {
	const w, h = 8, 8
	fb := framebuffer.MustNew(w, h)
	cfg := Config{EarlyZ: false}
	r := New(fb, cfg)
	view, proj := orthoCams(w, h)

	r.Draw(quadDraw(0, colorspace.Opaque(0, 1, 0), 2, 0, 0, w, h), view, proj)
	res := r.Draw(quadDraw(1, colorspace.Opaque(1, 0, 0), 8, 0, 0, w, h), view, proj)
	// Without early-Z every fragment is shaded, then fails the late test.
	if res.FragsShaded != w*h {
		t.Errorf("FragsShaded = %d, want %d", res.FragsShaded, w*h)
	}
	if res.FragsLatePassed != 0 {
		t.Errorf("FragsLatePassed = %d, want 0", res.FragsLatePassed)
	}
	if res.FragsWritten != 0 {
		t.Errorf("FragsWritten = %d, want 0", res.FragsWritten)
	}
}

func TestTransparentBlendOver(t *testing.T) {
	const w, h = 8, 8
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	// Opaque white background, then 50% black glass in front.
	r.Draw(quadDraw(0, colorspace.Opaque(1, 1, 1), 8, 0, 0, w, h), view, proj)
	glass := quadDraw(1, colorspace.FromStraight(0, 0, 0, 0.5), 2, 0, 0, w, h)
	glass.State.BlendOp = colorspace.BlendOver
	glass.State.DepthWrite = false
	r.Draw(glass, view, proj)

	want := colorspace.RGBA{R: 0.5, G: 0.5, B: 0.5, A: 1}
	if got := fb.At(4, 4); !got.ApproxEqual(want, 1e-9) {
		t.Errorf("blended pixel = %+v, want %+v", got, want)
	}
	// Depth must be untouched (DepthWrite false): still the background's.
	bgDepth := fb.DepthAt(4, 4)
	if math.Abs(bgDepth-depthFor(8.0)) > 1e-9 {
		t.Errorf("depth = %v, want background depth %v", bgDepth, depthFor(8.0))
	}
}

// depthFor maps an object-space distance z (ortho camera, near=1 far=10) to
// the NDC depth the pipeline writes.
func depthFor(z float64) float64 { return (z - 1) / 9 }

func TestNearPlaneClipping(t *testing.T) {
	const w, h = 16, 16
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view := vecmath.Identity()
	proj := vecmath.Perspective(math.Pi/2, 1, 1, 100)

	// Triangle straddling the near plane: one vertex behind the camera.
	d := primitive.DrawCommand{
		Tris: []primitive.Triangle{{V: [3]primitive.Vertex{
			{Position: vecmath.Vec3{X: -5, Y: -3, Z: -10}, Color: colorspace.Opaque(1, 0, 0)},
			{Position: vecmath.Vec3{X: 5, Y: -3, Z: -10}, Color: colorspace.Opaque(1, 0, 0)},
			{Position: vecmath.Vec3{X: 0, Y: 4, Z: 5}, Color: colorspace.Opaque(1, 0, 0)}, // behind camera
		}}},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
	res := r.Draw(d, view, proj)
	if res.TrianglesRasterized == 0 {
		t.Error("straddling triangle should produce clipped geometry")
	}
	if res.FragsGenerated == 0 {
		t.Error("clipped triangle should still cover pixels")
	}

	// Fully behind the camera: clipped away entirely.
	d.Tris[0].V[0].Position.Z = 5
	d.Tris[0].V[1].Position.Z = 5
	res = r.Draw(d, view, proj)
	if res.TrianglesRasterized != 0 || res.FragsGenerated != 0 {
		t.Errorf("behind-camera triangle rasterized: %+v", res)
	}
}

func TestOwnershipRestrictsFragments(t *testing.T) {
	const w, h = 128, 128 // 2×2 tiles
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)

	own := make([]bool, fb.TileCount())
	own[0] = true // top-left 64×64 tile only
	r.SetOwnership(own)

	res := r.Draw(quadDraw(0, colorspace.Opaque(1, 1, 1), 5, 0, 0, w, h), view, proj)
	if res.FragsGenerated != 64*64 {
		t.Errorf("FragsGenerated = %d, want %d", res.FragsGenerated, 64*64)
	}
	if fb.At(100, 100) != (colorspace.RGBA{}) {
		t.Error("wrote outside owned tile")
	}
	if fb.At(10, 10) != colorspace.Opaque(1, 1, 1) {
		t.Error("did not write inside owned tile")
	}
}

func TestRetainCulledFraction(t *testing.T) {
	const w, h = 32, 32
	fb := framebuffer.MustNew(w, h)
	cfg := DefaultConfig()
	cfg.RetainCulledFraction = 1.0 // retain every culled fragment
	r := New(fb, cfg)
	view, proj := orthoCams(w, h)

	r.Draw(quadDraw(0, colorspace.Opaque(0, 1, 0), 2, 0, 0, w, h), view, proj)
	res := r.Draw(quadDraw(1, colorspace.Opaque(1, 0, 0), 8, 0, 0, w, h), view, proj)
	if res.FragsRetained != w*h {
		t.Errorf("FragsRetained = %d, want %d", res.FragsRetained, w*h)
	}
	// Retained fragments are shaded but must fail the late test and write
	// nothing.
	if res.FragsShaded != w*h {
		t.Errorf("FragsShaded = %d, want %d", res.FragsShaded, w*h)
	}
	if res.FragsWritten != 0 || res.FragsLatePassed != 0 {
		t.Errorf("retained fragments leaked writes: %+v", res)
	}
	if fb.At(16, 16) != colorspace.Opaque(0, 1, 0) {
		t.Error("image corrupted by retained fragments")
	}
}

func TestDrawResultAdd(t *testing.T) {
	a := DrawResult{FragsGenerated: 1}
	b := DrawResult{FragsGenerated: 2, FragsShaded: 3}
	a.Add(b)
	if a.FragsGenerated != 3 || a.FragsShaded != 3 {
		t.Errorf("Add = %+v", a)
	}
	if a.DepthPassed() != 0 {
		t.Errorf("DepthPassed = %d", a.DepthPassed())
	}
}

func TestSetTargetAndMismatchErrors(t *testing.T) {
	fb := framebuffer.MustNew(8, 8)
	r := New(fb, DefaultConfig())
	fb2 := framebuffer.MustNew(8, 8)
	if err := r.SetTarget(fb2); err != nil {
		t.Fatalf("SetTarget same dims: %v", err)
	}
	if r.Target() != fb2 {
		t.Error("SetTarget did not switch")
	}
	if err := r.SetTarget(framebuffer.MustNew(16, 16)); err == nil {
		t.Error("expected error for mismatched target")
	}
}

func TestSetOwnershipLengthErrors(t *testing.T) {
	r := New(framebuffer.MustNew(128, 128), DefaultConfig())
	if err := r.SetOwnership(make([]bool, 3)); err == nil {
		t.Error("expected error for wrong ownership length")
	}
}

func TestProjectBounds(t *testing.T) {
	const w, h = 100, 100
	view, proj := orthoCams(w, h)
	mvp := proj.Mul(view)
	tr := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: 10, Y: 20}, vecmath.Vec2{X: 30, Y: 20}, vecmath.Vec2{X: 10, Y: 40})
	minX, minY, maxX, maxY, ok := ProjectBounds(&tr, &mvp, w, h)
	if !ok {
		t.Fatal("triangle should be visible")
	}
	if math.Abs(minX-10) > 1e-9 || math.Abs(minY-20) > 1e-9 ||
		math.Abs(maxX-30) > 1e-9 || math.Abs(maxY-40) > 1e-9 {
		t.Errorf("bounds = (%v,%v)-(%v,%v)", minX, minY, maxX, maxY)
	}
	// Fully offscreen.
	off := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: -50, Y: -50}, vecmath.Vec2{X: -10, Y: -50}, vecmath.Vec2{X: -50, Y: -10})
	if _, _, _, _, ok := ProjectBounds(&off, &mvp, w, h); ok {
		t.Error("offscreen triangle should not be visible")
	}
}

func TestCoveredTiles(t *testing.T) {
	const w, h = 256, 128 // 4×2 tiles
	view, proj := orthoCams(w, h)
	mvp := proj.Mul(view)

	// Triangle inside tile (0,0) only.
	tr := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: 5, Y: 5}, vecmath.Vec2{X: 60, Y: 5}, vecmath.Vec2{X: 5, Y: 60})
	rect, ok := CoveredTiles(&tr, &mvp, w, h)
	if want := (TileRect{X0: 0, Y0: 0, X1: 0, Y1: 0, TilesX: 4}); !ok || rect != want {
		t.Errorf("tiles = %+v, %v; want %+v", rect, ok, want)
	}
	if got := rect.Tile(rect.X1, rect.Y1); got != 0 {
		t.Errorf("Tile = %d, want 0", got)
	}

	// Triangle spanning all four columns of the top row.
	wide := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: 1, Y: 10}, vecmath.Vec2{X: 255, Y: 10}, vecmath.Vec2{X: 128, Y: 50})
	rect, ok = CoveredTiles(&wide, &mvp, w, h)
	if want := (TileRect{X0: 0, Y0: 0, X1: 3, Y1: 0, TilesX: 4}); !ok || rect != want {
		t.Errorf("tiles = %+v, %v; want top row %+v", rect, ok, want)
	}

	// Triangle in the bottom-right tile: index 7 of the 4×2 grid.
	br := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: 200, Y: 70}, vecmath.Vec2{X: 250, Y: 70}, vecmath.Vec2{X: 200, Y: 120})
	rect, ok = CoveredTiles(&br, &mvp, w, h)
	if !ok || rect.Tile(rect.X0, rect.Y0) != 7 || rect.X0 != rect.X1 || rect.Y0 != rect.Y1 {
		t.Errorf("tiles = %+v, %v; want tile 7 only", rect, ok)
	}

	// Fully offscreen.
	off := tri(colorspace.Opaque(1, 1, 1), 5,
		vecmath.Vec2{X: -50, Y: -50}, vecmath.Vec2{X: -10, Y: -50}, vecmath.Vec2{X: -50, Y: -10})
	if _, ok := CoveredTiles(&off, &mvp, w, h); ok {
		t.Error("offscreen triangle should cover no tiles")
	}
}

func TestDegenerateTriangleSkipped(t *testing.T) {
	const w, h = 16, 16
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view, proj := orthoCams(w, h)
	d := primitive.DrawCommand{
		Tris: []primitive.Triangle{
			tri(colorspace.Opaque(1, 1, 1), 5,
				vecmath.Vec2{X: 1, Y: 1}, vecmath.Vec2{X: 5, Y: 5}, vecmath.Vec2{X: 9, Y: 9}), // collinear
		},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
	res := r.Draw(d, view, proj)
	if res.TrianglesRasterized != 0 || res.FragsGenerated != 0 {
		t.Errorf("degenerate triangle produced work: %+v", res)
	}
}

func TestPerspectiveCorrectDepthOrdering(t *testing.T) {
	// A perspective camera looking at two quads: the nearer one must win
	// regardless of draw order, exercising the depth interpolation path.
	const w, h = 32, 32
	fb := framebuffer.MustNew(w, h)
	r := New(fb, DefaultConfig())
	view := vecmath.LookAt(vecmath.Vec3{Z: 10}, vecmath.Vec3{}, vecmath.Vec3{Y: 1})
	proj := vecmath.Perspective(math.Pi/3, 1, 1, 100)

	mk := func(c colorspace.RGBA, z float64) primitive.DrawCommand {
		s := 6.0
		return primitive.DrawCommand{
			Tris: []primitive.Triangle{
				{V: [3]primitive.Vertex{
					{Position: vecmath.Vec3{X: -s, Y: -s, Z: z}, Color: c},
					{Position: vecmath.Vec3{X: s, Y: -s, Z: z}, Color: c},
					{Position: vecmath.Vec3{X: s, Y: s, Z: z}, Color: c},
				}},
				{V: [3]primitive.Vertex{
					{Position: vecmath.Vec3{X: -s, Y: -s, Z: z}, Color: c},
					{Position: vecmath.Vec3{X: s, Y: s, Z: z}, Color: c},
					{Position: vecmath.Vec3{X: -s, Y: s, Z: z}, Color: c},
				}},
			},
			Model: vecmath.Identity(),
			State: primitive.DefaultState(),
		}
	}
	r.Draw(mk(colorspace.Opaque(1, 0, 0), -5), view, proj) // far
	r.Draw(mk(colorspace.Opaque(0, 1, 0), 5), view, proj)  // near
	if got := fb.At(16, 16); !got.ApproxEqual(colorspace.Opaque(0, 1, 0), 1e-9) {
		t.Errorf("center pixel = %+v, want green (near quad)", got)
	}
}

// TestSelectionCountsMatchCopiedDraw: rasterizing a Selection of a shared
// setup reports exactly what drawing a copy of just the selected triangles
// reports, fragments and pixels included. Triangle 0 straddles the near
// plane and is clipped into two pieces; triangle 1's only piece lies wholly
// off screen, which still counts as rasterized; triangle 2 is on screen;
// triangle 3 is selected by no GPU, so the setup skips it.
func TestSelectionCountsMatchCopiedDraw(t *testing.T) {
	const w, h = 64, 64
	view := vecmath.Identity()
	proj := vecmath.Perspective(math.Pi/2, 1, 1, 100)
	vert := func(x, y, z float64) primitive.Vertex {
		return primitive.Vertex{Position: vecmath.Vec3{X: x, Y: y, Z: z}, Color: colorspace.Opaque(1, 0.5, 0)}
	}
	d := primitive.DrawCommand{
		Tris: []primitive.Triangle{
			{V: [3]primitive.Vertex{vert(-5, -3, -10), vert(5, -3, -10), vert(0, 4, 5)}},
			{V: [3]primitive.Vertex{vert(100, 0, -10), vert(110, 0, -10), vert(105, 5, -10)}},
			{V: [3]primitive.Vertex{vert(-4, 0, -8), vert(4, 0, -8), vert(0, 4, -8)}},
			{V: [3]primitive.Vertex{vert(-4, -4, -6), vert(4, -4, -6), vert(0, 0, -6)}},
		},
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
	masks := []uint64{0b11, 0b01, 0b10, 0}
	for _, c := range []struct {
		bit, lo, hi      int
		wantIn, wantRast int
		wantNoFrags      bool
	}{
		{bit: 0, lo: 0, hi: 4, wantIn: 2, wantRast: 3},
		{bit: 1, lo: 0, hi: 4, wantIn: 2, wantRast: 3},
		{bit: 1, lo: 1, hi: 4, wantIn: 1, wantRast: 1},
		{bit: 0, lo: 1, hi: 3, wantIn: 1, wantRast: 1, wantNoFrags: true},
	} {
		sel := Selection{Masks: masks, Bit: 1 << uint(c.bit)}
		sub := d
		sub.Tris = nil
		for ti := c.lo; ti < c.hi; ti++ {
			if sel.selected(ti) {
				sub.Tris = append(sub.Tris, d.Tris[ti])
			}
		}
		copied := New(framebuffer.MustNew(w, h), DefaultConfig())
		want := copied.Draw(sub, view, proj)

		got := DrawResult{}
		selecting := New(framebuffer.MustNew(w, h), DefaultConfig())
		s := GetSetup()
		s.BuildSelected(&d, c.lo, c.hi, Selection{Masks: masks, Bit: 0b11}, view, proj, w, h)
		for more := true; more; more = s.Next() {
			selecting.Raster(s, sel, &got)
		}
		PutSetup(s)

		if got != want {
			t.Errorf("bit %d [%d,%d): selection gives %+v, copied draw %+v", c.bit, c.lo, c.hi, got, want)
		}
		if want.TrianglesIn != c.wantIn || want.VerticesShaded != 3*c.wantIn || want.TrianglesRasterized != c.wantRast {
			t.Errorf("bit %d [%d,%d): copied draw counts %+v, want %d in and %d rasterized",
				c.bit, c.lo, c.hi, want, c.wantIn, c.wantRast)
		}
		if (want.FragsGenerated == 0) != c.wantNoFrags {
			t.Errorf("bit %d [%d,%d): %d fragments", c.bit, c.lo, c.hi, want.FragsGenerated)
		}
		if gs, ws := selecting.Target().Checksum(), copied.Target().Checksum(); gs != ws {
			t.Errorf("bit %d [%d,%d): target checksum %x, copied draw %x", c.bit, c.lo, c.hi, gs, ws)
		}
	}
}
