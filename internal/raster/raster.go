// Package raster implements the fixed-function middle of the graphics
// pipeline: primitive assembly, near-plane clipping, viewport transform,
// triangle rasterization with the top-left fill rule, the early and late
// depth tests, and framebuffer blending.
//
// A draw is rasterized in two halves. The Setup is everything that does not
// depend on which GPU renders the draw: vertex shading, near clipping, fan
// triangulation, the viewport transform, area and winding, the top-left
// flags and the screen bounding box. It is built once per draw, a bounded
// chunk of triangles at a time, and read, never written, by every Renderer
// that rasterizes it, so the GPUs of a broadcast draw share one. The raster
// pass (Renderer.Raster) is per GPU: it walks each triangle's bounding box in
// row-major order against that GPU's framebuffer, and jumps over every tile
// the GPU does not own before evaluating a single edge function there.
//
// The rasterizer is execution-driven: it really renders, and while doing so
// it counts the quantities the timing model charges cycles for — vertices
// shaded, triangles set up, fragments generated per tile, fragments passing
// the early and late depth/stencil tests, and fragments shaded. This is what
// lets the simulation reproduce workload-dependent effects like the reduced
// depth-cull rates of distributed rendering (paper Fig. 15) without
// estimating them.
package raster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
	"chopin/internal/primitive"
	"chopin/internal/shade"
	"chopin/internal/texture"
	"chopin/internal/vecmath"
)

// Config controls rasterizer behaviour that the experiments vary.
type Config struct {
	// EarlyZ enables the early depth test: fragments failing the depth
	// test are culled before the pixel shader runs. Most modern GPUs and
	// most draws enable this (paper Section VI-B).
	EarlyZ bool
	// RetainCulledFraction artificially retains this fraction of
	// early-depth-culled fragments and processes them through the rest of
	// the fragment pipeline, reproducing the sensitivity study of paper
	// Fig. 16. Zero (the default) disables the mechanism.
	RetainCulledFraction float64
	// RetainSeed seeds the deterministic choice of retained fragments.
	RetainSeed int64
}

// DefaultConfig returns the standard configuration: early-Z on, no
// artificial fragment retention.
func DefaultConfig() Config { return Config{EarlyZ: true} }

// DrawResult reports everything a single draw command did, in the units the
// timing model and the experiments consume.
type DrawResult struct {
	// VerticesShaded is the number of vertex-shader invocations.
	VerticesShaded int
	// TrianglesIn is the number of input triangles.
	TrianglesIn int
	// TrianglesRasterized is the number of triangles that survived clipping
	// and degenerate culling and were set up for rasterization.
	TrianglesRasterized int
	// FragsGenerated is the number of fragments produced inside tiles this
	// renderer owns.
	FragsGenerated int
	// FragsEarlyTested and FragsEarlyPassed count the early depth test.
	FragsEarlyTested, FragsEarlyPassed int
	// FragsShaded is the number of pixel-shader invocations.
	FragsShaded int
	// FragsLateTested and FragsLatePassed count the late depth test (used
	// when early-Z is disabled, and by retained culled fragments).
	FragsLateTested, FragsLatePassed int
	// FragsWritten is the number of framebuffer colour writes.
	FragsWritten int
	// FragsRetained is the number of early-culled fragments artificially
	// kept alive by Config.RetainCulledFraction.
	FragsRetained int
	// TexSamples is the number of texture samples issued by shaded
	// fragments of textured draws (TEX unit work + memory traffic).
	TexSamples int
}

// Add accumulates o into r.
func (r *DrawResult) Add(o DrawResult) {
	r.VerticesShaded += o.VerticesShaded
	r.TrianglesIn += o.TrianglesIn
	r.TrianglesRasterized += o.TrianglesRasterized
	r.FragsGenerated += o.FragsGenerated
	r.FragsEarlyTested += o.FragsEarlyTested
	r.FragsEarlyPassed += o.FragsEarlyPassed
	r.FragsShaded += o.FragsShaded
	r.FragsLateTested += o.FragsLateTested
	r.FragsLatePassed += o.FragsLatePassed
	r.FragsWritten += o.FragsWritten
	r.FragsRetained += o.FragsRetained
	r.TexSamples += o.TexSamples
}

// DepthPassed returns the total fragments that passed a depth/stencil test
// (early plus late), the quantity plotted in paper Fig. 15.
func (r *DrawResult) DepthPassed() int { return r.FragsEarlyPassed + r.FragsLatePassed }

// Renderer rasterizes draw commands into a framebuffer, optionally
// restricted to an owned subset of its tiles (split-frame rendering).
type Renderer struct {
	fb      *framebuffer.Buffer
	own     []bool // nil means the renderer owns every tile
	cfg     Config
	retain  *rand.Rand
	tileCnt int
	texs    []*texture.Texture
	curTex  *texture.Texture // texture bound by the draw in flight
}

// New returns a renderer targeting fb.
func New(fb *framebuffer.Buffer, cfg Config) *Renderer {
	r := &Renderer{
		fb:      fb,
		cfg:     cfg,
		tileCnt: fb.TileCount(),
	}
	if cfg.RetainCulledFraction > 0 {
		r.retain = rand.New(rand.NewSource(cfg.RetainSeed))
	}
	return r
}

// Target returns the framebuffer the renderer draws into.
func (r *Renderer) Target() *framebuffer.Buffer { return r.fb }

// SetTarget redirects subsequent draws into fb, which must have the same
// dimensions as the current target (render-target switches preserve screen
// geometry in this model).
func (r *Renderer) SetTarget(fb *framebuffer.Buffer) error {
	if fb.Width() != r.fb.Width() || fb.Height() != r.fb.Height() {
		return fmt.Errorf("raster: SetTarget dimension mismatch: %d×%d vs %d×%d",
			fb.Width(), fb.Height(), r.fb.Width(), r.fb.Height())
	}
	r.fb = fb
	return nil
}

// SetTextures installs the frame's texture table (indexed 1-based by
// DrawCommand.TextureID).
func (r *Renderer) SetTextures(texs []*texture.Texture) { r.texs = texs }

// SetOwnership restricts rasterization to tiles t with own[t] true; nil
// removes the restriction. The slice length must equal the target's tile
// count.
func (r *Renderer) SetOwnership(own []bool) error {
	if own != nil && len(own) != r.tileCnt {
		return fmt.Errorf("raster: ownership length mismatch: %d masks for %d tiles",
			len(own), r.tileCnt)
	}
	r.own = own
	return nil
}

// clipVert is a clip-space vertex with attributes, as the vertex shader
// emits it and clipping interpolates it.
type clipVert = shade.VertexOut

func lerpVert(a, b *clipVert, t float64) clipVert {
	return clipVert{
		ClipPos: a.ClipPos.Lerp(b.ClipPos, t),
		Color: colorspace.RGBA{
			R: a.Color.R + (b.Color.R-a.Color.R)*t,
			G: a.Color.G + (b.Color.G-a.Color.G)*t,
			B: a.Color.B + (b.Color.B-a.Color.B)*t,
			A: a.Color.A + (b.Color.A-a.Color.A)*t,
		},
		UV: vecmath.Vec2{
			X: a.UV.X + (b.UV.X-a.UV.X)*t,
			Y: a.UV.Y + (b.UV.Y-a.UV.Y)*t,
		},
	}
}

// clipNear clips a triangle against the near plane z ≥ 0 in clip space
// (DirectX convention: visible z ∈ [0, w]), returning 0–4 vertices.
func clipNear(in *[3]clipVert, out []clipVert) []clipVert {
	out = out[:0]
	for i := 0; i < 3; i++ {
		cur, nxt := &in[i], &in[(i+1)%3]
		curIn, nxtIn := cur.ClipPos.Z >= 0, nxt.ClipPos.Z >= 0
		if curIn {
			out = append(out, *cur)
		}
		if curIn != nxtIn {
			t := cur.ClipPos.Z / (cur.ClipPos.Z - nxt.ClipPos.Z)
			out = append(out, lerpVert(cur, nxt, t))
		}
	}
	return out
}

// shadeAndClip runs the vertex shader on tri's three vertices and clips the
// result against the near plane into buf, returning the clipped polygon
// (fewer than 3 vertices when the triangle is fully clipped). A triangle
// wholly in front of the near plane is its own polygon, uncopied.
func shadeAndClip(tri *primitive.Triangle, mvp *vecmath.Mat4, buf *[7]clipVert) []clipVert {
	for i := range tri.V {
		shade.TransformVertex(&buf[i], &tri.V[i], mvp)
	}
	if buf[0].ClipPos.Z >= 0 && buf[1].ClipPos.Z >= 0 && buf[2].ClipPos.Z >= 0 {
		return buf[:3]
	}
	in := [3]clipVert{buf[0], buf[1], buf[2]}
	return clipNear(&in, buf[:0])
}

// screenVert is a post-viewport vertex ready for rasterization.
type screenVert struct {
	x, y float64 // pixel coordinates
	z    float64 // NDC depth in [0, 1]
	invW float64 // 1/w for perspective-correct interpolation
	colW colorspace.RGBA
	uW   float64 // u/w
	vW   float64 // v/w
}

// toScreen applies the perspective divide and the viewport transform to v,
// writing the result to sv. It reports false, leaving sv unspecified, for a
// vertex on or behind the eye plane (w ≈ 0).
func toScreen(sv *screenVert, vp *vecmath.Mat4, v *clipVert) bool {
	if v.ClipPos.W <= 1e-12 {
		return false
	}
	s := vp.MulPoint(v.ClipPos.PerspectiveDivide())
	invW := 1 / v.ClipPos.W
	sv.x, sv.y, sv.z = s.X, s.Y, s.Z
	sv.invW = invW
	sv.colW = v.Color.Scale(invW)
	sv.uW = v.UV.X * invW
	sv.vW = v.UV.Y * invW
	return true
}

// edge returns twice the signed area of (a, b, p); positive when p is to the
// interior side for our clockwise-normalized winding.
func edge(ax, ay, bx, by, px, py float64) float64 {
	return (bx-ax)*(py-ay) - (by-ay)*(px-ax)
}

// topLeft reports whether the directed edge a→b is a top or left edge under
// the y-down, positive-area winding convention, implementing the top-left
// fill rule so adjacent triangles never double-cover a pixel.
func topLeft(ax, ay, bx, by float64) bool {
	if ay == by {
		return bx > ax // horizontal top edge
	}
	return by < ay // left edge (going up in y-down space)
}

// setupTri is one set-up triangle: screen vertices with positive winding,
// the reciprocal of its doubled area, its top-left edge flags, and its
// pixel bounding box clamped to the screen (never empty).
type setupTri struct {
	v0, v1, v2       screenVert
	invArea          float64
	x0, x1, y0, y1   int
	tl01, tl12, tl20 bool
}

// setupChunk bounds the set-up triangles a Setup holds at once. A draw is
// set up and rasterized in chunks of at most this many triangles, so a
// setup's storage stays under 20 KB however large the draw. The pool that
// holds idle setups is emptied by garbage collections, so every setup
// costs an allocation now and then; keeping it small keeps that cost
// below what sharing the setup saves.
const setupChunk = 64

// Setup is the GPU-independent half of one draw's rasterization: the draw
// command and the current chunk of its set-up triangles, in raster order.
// Build sets up the first chunk and Next each further one. Between those
// calls any number of Renderers may Raster the chunk, since rasterizing
// only reads it. A Setup is scratch: take one with
// GetSetup, Build it for as many draws as needed, and hand it back with
// PutSetup.
type Setup struct {
	draw          primitive.DrawCommand
	mvp, vp       vecmath.Mat4
	width, height int
	// next is the first input triangle not yet set up; in counts the input
	// triangles of the current chunk, and trisRast those of its triangles
	// that survived clipping and degenerate culling, including any whose
	// bounding box misses the screen.
	next, in, trisRast int
	tris               []setupTri
}

// setupPool holds idle Setups for the whole process. Renderers, GPUs and
// systems take one per draw or batch and return it, so no GPU or simulation
// keeps setup storage of its own, and nothing holds it between draws.
var setupPool = sync.Pool{New: func() any { return new(Setup) }}

// GetSetup returns an idle Setup from the process-wide pool.
func GetSetup() *Setup { return setupPool.Get().(*Setup) }

// PutSetup returns s to the pool. Nothing may read s afterwards.
func PutSetup(s *Setup) {
	s.draw = primitive.DrawCommand{} // the pool must not keep a frame alive
	setupPool.Put(s)
}

// Draw returns the draw command the setup was built from.
func (s *Setup) Draw() *primitive.DrawCommand { return &s.draw }

// Build starts setting up draw d, viewed through view and proj, for a
// width×height screen, and sets up its first chunk: every vertex is shaded,
// every triangle near-clipped and fan-triangulated, and every piece
// projected, culled if degenerate, wound positively and bounded.
func (s *Setup) Build(d *primitive.DrawCommand, view, proj vecmath.Mat4, width, height int) {
	s.draw = *d
	s.mvp = proj.Mul(view).Mul(d.Model)
	s.vp = vecmath.Viewport(width, height)
	s.width, s.height = width, height
	s.next = 0
	// Reserve the whole chunk once; addTri fills it in place.
	if cap(s.tris) < setupChunk {
		s.tris = make([]setupTri, 0, setupChunk)
	}
	s.fill()
}

// Next sets up the draw's next chunk. It reports false, leaving an empty
// chunk that rasterizes to nothing, once every triangle has been set up.
func (s *Setup) Next() bool {
	if s.next == len(s.draw.Tris) {
		s.in, s.trisRast, s.tris = 0, 0, s.tris[:0]
		return false
	}
	s.fill()
	return true
}

// fill sets up input triangles from s.next on until the chunk is full or
// the draw is done. Each input triangle yields at most two pieces, so the
// chunk never exceeds setupChunk.
func (s *Setup) fill() {
	s.tris = s.tris[:0]
	s.trisRast = 0
	start := s.next
	var buf [7]clipVert
	for ; s.next < len(s.draw.Tris) && len(s.tris) < setupChunk-1; s.next++ {
		poly := shadeAndClip(&s.draw.Tris[s.next], &s.mvp, &buf)
		// Fan-triangulate the clipped polygon (empty when fully clipped).
		for k := 1; k+1 < len(poly); k++ {
			s.addTri(&poly[0], &poly[k], &poly[k+1])
		}
	}
	s.in = s.next - start
}

// addTri sets up one clipped triangle. It is filled in place in the next
// element of s.tris, within the chunk's reserved capacity, and dropped
// again if the triangle is culled or misses the screen: building it on the
// stack would copy it.
func (s *Setup) addTri(a, b, c *clipVert) {
	n := len(s.tris)
	s.tris = s.tris[:n+1]
	t := &s.tris[n]
	if !toScreen(&t.v0, &s.vp, a) || !toScreen(&t.v1, &s.vp, b) || !toScreen(&t.v2, &s.vp, c) {
		s.tris = s.tris[:n]
		return
	}
	v0, v1, v2 := &t.v0, &t.v1, &t.v2
	area := edge(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
	if area == 0 {
		s.tris = s.tris[:n]
		return
	}
	if area < 0 { // normalize winding so interior edge values are positive
		*v1, *v2 = *v2, *v1
		area = -area
	}
	s.trisRast++

	minX := math.Min(v0.x, math.Min(v1.x, v2.x))
	maxX := math.Max(v0.x, math.Max(v1.x, v2.x))
	minY := math.Min(v0.y, math.Min(v1.y, v2.y))
	maxY := math.Max(v0.y, math.Max(v1.y, v2.y))
	t.x0 = max(0, int(math.Ceil(minX-0.5)))
	t.x1 = min(s.width-1, int(math.Floor(maxX-0.5)))
	t.y0 = max(0, int(math.Ceil(minY-0.5)))
	t.y1 = min(s.height-1, int(math.Floor(maxY-0.5)))
	if t.x0 > t.x1 || t.y0 > t.y1 {
		s.tris = s.tris[:n]
		return
	}
	t.invArea = 1 / area
	t.tl01 = topLeft(v0.x, v0.y, v1.x, v1.y)
	t.tl12 = topLeft(v1.x, v1.y, v2.x, v2.y)
	t.tl20 = topLeft(v2.x, v2.y, v0.x, v0.y)
}

// Draw renders one draw command with the given camera transforms and returns
// its workload statistics: the draw is set up in a pooled Setup, and each
// chunk rasterized in turn.
func (r *Renderer) Draw(d primitive.DrawCommand, view, proj vecmath.Mat4) DrawResult {
	var res DrawResult
	s := GetSetup()
	s.Build(&d, view, proj, r.fb.Width(), r.fb.Height())
	for more := true; more; more = s.Next() {
		r.Raster(s, &res)
	}
	PutSetup(s)
	return res
}

// Raster runs the per-GPU raster pass over the setup's current chunk
// against the current target, ownership mask and depth state, and adds the
// chunk's workload statistics to res. Rasterizing every chunk of a draw into one zero DrawResult yields
// the draw's statistics. s must be built for the target's dimensions; it is
// only read. The vertex and triangle counters come from the setup, so every
// renderer of a shared setup reports (and is charged for) the full
// geometry work.
func (r *Renderer) Raster(s *Setup, res *DrawResult) {
	d := &s.draw
	res.VerticesShaded += 3 * s.in
	res.TrianglesIn += s.in
	res.TrianglesRasterized += s.trisRast
	r.curTex = nil
	if d.TextureID > 0 && d.TextureID <= len(r.texs) {
		r.curTex = r.texs[d.TextureID-1]
	}
	for i := range s.tris {
		r.rasterTri(res, d, &s.tris[i])
	}
}

// rasterTri walks t's bounding box in row-major order. Whole tile rows and
// row spans over tiles this renderer does not own are skipped before any
// edge evaluation; the owned pixels are visited in the same order as a
// plain row-major walk, which the Fig. 16 retain RNG depends on.
func (r *Renderer) rasterTri(res *DrawResult, d *primitive.DrawCommand, t *setupTri) {
	const ts = framebuffer.TileSize
	v0, v1, v2 := &t.v0, &t.v1, &t.v2
	// The edge functions edge(a, b, p) = (bx-ax)*(py-ay) - (by-ay)*(px-ax),
	// with the per-triangle differences and the per-row product hoisted:
	// the same operations in the same order, so the same bits.
	dx01, dy01 := v1.x-v0.x, v1.y-v0.y // edge v0→v1, opposite v2
	dx12, dy12 := v2.x-v1.x, v2.y-v1.y // edge v1→v2, opposite v0
	dx20, dy20 := v0.x-v2.x, v0.y-v2.y // edge v2→v0, opposite v1
	tilesX := r.fb.TilesX()
	tx0, tx1 := t.x0/ts, t.x1/ts
	for ty := t.y0 / ts; ty <= t.y1/ts; ty++ {
		rowTiles := ty * tilesX
		if r.own != nil && !anyOwned(r.own[rowTiles+tx0:rowTiles+tx1+1]) {
			continue
		}
		for y := max(t.y0, ty*ts); y <= min(t.y1, ty*ts+ts-1); y++ {
			py := float64(y) + 0.5
			r01, r12, r20 := dx01*(py-v0.y), dx12*(py-v1.y), dx20*(py-v2.y)
			for tx := tx0; tx <= tx1; tx++ {
				tile := rowTiles + tx
				if r.own != nil && !r.own[tile] {
					continue
				}
				for x := max(t.x0, tx*ts); x <= min(t.x1, tx*ts+ts-1); x++ {
					px := float64(x) + 0.5
					e01 := r01 - dy01*(px-v0.x)
					e12 := r12 - dy12*(px-v1.x)
					e20 := r20 - dy20*(px-v2.x)
					if !(e01 > 0 || (e01 == 0 && t.tl01)) ||
						!(e12 > 0 || (e12 == 0 && t.tl12)) ||
						!(e20 > 0 || (e20 == 0 && t.tl20)) {
						continue
					}
					w0 := e12 * t.invArea
					w1 := e20 * t.invArea
					w2 := e01 * t.invArea
					depth := w0*v0.z + w1*v1.z + w2*v2.z
					if depth < 0 || depth > 1 {
						continue // beyond the far plane (near is handled by clipping)
					}
					res.FragsGenerated++
					r.processFragment(res, d, x, y, depth, w0, w1, w2, v0, v1, v2)
				}
			}
		}
	}
}

// anyOwned reports whether any tile of the span is owned.
func anyOwned(span []bool) bool {
	for _, o := range span {
		if o {
			return true
		}
	}
	return false
}

func (r *Renderer) processFragment(res *DrawResult, d *primitive.DrawCommand, x, y int, depth, w0, w1, w2 float64, v0, v1, v2 *screenVert) {
	state := &d.State
	earlyCulled := false
	if r.cfg.EarlyZ {
		res.FragsEarlyTested++
		if colorspace.Compare(state.DepthFunc, depth, r.fb.DepthAt(x, y)) {
			res.FragsEarlyPassed++
		} else {
			if r.retain == nil || r.retain.Float64() >= r.cfg.RetainCulledFraction {
				return
			}
			// Artificially retained fragment (Fig. 16 study): shade it and
			// run the late test, which it will fail.
			res.FragsRetained++
			earlyCulled = true
		}
	}

	// Perspective-correct attribute interpolation.
	invW := w0*v0.invW + w1*v1.invW + w2*v2.invW
	var col colorspace.RGBA
	var u, v float64
	if invW > 0 {
		wInv := 1 / invW
		col = colorspace.RGBA{
			R: (w0*v0.colW.R + w1*v1.colW.R + w2*v2.colW.R) * wInv,
			G: (w0*v0.colW.G + w1*v1.colW.G + w2*v2.colW.G) * wInv,
			B: (w0*v0.colW.B + w1*v1.colW.B + w2*v2.colW.B) * wInv,
			A: (w0*v0.colW.A + w1*v1.colW.A + w2*v2.colW.A) * wInv,
		}
		u = (w0*v0.uW + w1*v1.uW + w2*v2.uW) * wInv
		v = (w0*v0.vW + w1*v1.vW + w2*v2.vW) * wInv
	}
	// Fixed-function texturing: modulate the interpolated colour with the
	// bilinear texture sample (the TEX-unit work of the paper's SMs). The
	// result is the fragment's shaded colour.
	if r.curTex != nil {
		col = col.Mul(r.curTex.Sample(u, v, texture.Bilinear))
		res.TexSamples++
	}
	res.FragsShaded++

	if !r.cfg.EarlyZ || earlyCulled {
		res.FragsLateTested++
		if !colorspace.Compare(state.DepthFunc, depth, r.fb.DepthAt(x, y)) {
			return
		}
		res.FragsLatePassed++
	}

	if state.DepthWrite {
		r.fb.SetDepth(x, y, depth)
	}
	r.fb.Set(x, y, colorspace.Blend(state.BlendOp, col, r.fb.At(x, y)))
	res.FragsWritten++
}

// ProjectBounds computes the clipped screen-space bounding box of a triangle
// under the given transform without rasterizing it. ok is false when the
// triangle is fully clipped. This is the "preliminary transformation"
// sort-first schemes like GPUpd run to find each primitive's destination
// GPUs (paper Section III-A). It shades and clips like Setup.Build, and
// bounds the whole clipped polygon.
func ProjectBounds(tri *primitive.Triangle, mvp *vecmath.Mat4, width, height int) (minX, minY, maxX, maxY float64, ok bool) {
	var buf [7]clipVert
	poly := shadeAndClip(tri, mvp, &buf)
	if len(poly) < 3 {
		return 0, 0, 0, 0, false
	}
	vp := vecmath.Viewport(width, height)
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	var s screenVert
	for i := range poly {
		if !toScreen(&s, &vp, &poly[i]) {
			return 0, 0, 0, 0, false
		}
		minX = math.Min(minX, s.x)
		maxX = math.Max(maxX, s.x)
		minY = math.Min(minY, s.y)
		maxY = math.Max(maxY, s.y)
	}
	if maxX < 0 || maxY < 0 || minX >= float64(width) || minY >= float64(height) {
		return 0, 0, 0, 0, false
	}
	return minX, minY, maxX, maxY, true
}

// TileRect is an inclusive rectangle of screen tiles: columns X0..X1 and
// rows Y0..Y1 of a screen TilesX tiles wide.
type TileRect struct {
	X0, Y0, X1, Y1 int
	TilesX         int
}

// Tile returns the index of the tile at column tx, row ty.
func (t TileRect) Tile(tx, ty int) int { return ty*t.TilesX + tx }

// CoveredTiles returns the rectangle of tiles of a width×height screen that
// a triangle's bounding box overlaps; ok is false if the triangle is fully
// clipped. Sort-first primitive distribution sends the triangle to the
// owners of these tiles.
func CoveredTiles(tri *primitive.Triangle, mvp *vecmath.Mat4, width, height int) (rect TileRect, ok bool) {
	minX, minY, maxX, maxY, ok := ProjectBounds(tri, mvp, width, height)
	if !ok {
		return TileRect{}, false
	}
	const ts = framebuffer.TileSize
	tilesX := (width + ts - 1) / ts
	tilesY := (height + ts - 1) / ts
	return TileRect{
		X0:     max(0, int(minX)/ts),
		Y0:     max(0, int(minY)/ts),
		X1:     min(tilesX-1, int(maxX)/ts),
		Y1:     min(tilesY-1, int(maxY)/ts),
		TilesX: tilesX,
	}, true
}
