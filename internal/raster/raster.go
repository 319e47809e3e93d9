// Package raster implements the fixed-function middle of the graphics
// pipeline: primitive assembly, near-plane clipping, viewport transform,
// triangle rasterization with the top-left fill rule, the early and late
// depth tests, and framebuffer blending.
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
	// TileFrags is the per-tile count of generated fragments, indexed by
	// tile. Only owned tiles accumulate counts.
	TileFrags []int32
}

// Add accumulates o into r (TileFrags are summed element-wise; both results
// must come from buffers with the same tile count, or either may be nil).
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
	if o.TileFrags != nil {
		if r.TileFrags == nil {
			r.TileFrags = make([]int32, len(o.TileFrags))
		}
		for i, v := range o.TileFrags {
			r.TileFrags[i] += v
		}
	}
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
	prog    shade.Program
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
		prog:    shade.DefaultProgram(),
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

// SetProgram binds the shader program used by subsequent draws.
func (r *Renderer) SetProgram(p shade.Program) { r.prog = p }

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

// clipVert is a clip-space vertex with attributes, used during clipping.
type clipVert struct {
	pos vecmath.Vec4
	col colorspace.RGBA
	uv  vecmath.Vec2
}

func lerpVert(a, b clipVert, t float64) clipVert {
	return clipVert{
		pos: a.pos.Lerp(b.pos, t),
		col: colorspace.RGBA{
			R: a.col.R + (b.col.R-a.col.R)*t,
			G: a.col.G + (b.col.G-a.col.G)*t,
			B: a.col.B + (b.col.B-a.col.B)*t,
			A: a.col.A + (b.col.A-a.col.A)*t,
		},
		uv: vecmath.Vec2{
			X: a.uv.X + (b.uv.X-a.uv.X)*t,
			Y: a.uv.Y + (b.uv.Y-a.uv.Y)*t,
		},
	}
}

// clipNear clips a triangle against the near plane z ≥ 0 in clip space
// (DirectX convention: visible z ∈ [0, w]), returning 0–4 vertices.
func clipNear(in [3]clipVert, out []clipVert) []clipVert {
	out = out[:0]
	for i := 0; i < 3; i++ {
		cur, nxt := in[i], in[(i+1)%3]
		curIn, nxtIn := cur.pos.Z >= 0, nxt.pos.Z >= 0
		if curIn {
			out = append(out, cur)
		}
		if curIn != nxtIn {
			t := cur.pos.Z / (cur.pos.Z - nxt.pos.Z)
			out = append(out, lerpVert(cur, nxt, t))
		}
	}
	return out
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

// Draw renders one draw command with the given camera transforms and returns
// its workload statistics.
func (r *Renderer) Draw(d primitive.DrawCommand, view, proj vecmath.Mat4) DrawResult {
	res := DrawResult{TileFrags: make([]int32, r.tileCnt)}
	r.curTex = nil
	if d.TextureID > 0 && d.TextureID <= len(r.texs) {
		r.curTex = r.texs[d.TextureID-1]
	}
	mvp := proj.Mul(view).Mul(d.Model)
	vp := vecmath.Viewport(r.fb.Width(), r.fb.Height())

	var clipBuf [7]clipVert
	for ti := range d.Tris {
		res.TrianglesIn++
		tri := &d.Tris[ti]

		var cv [3]clipVert
		for i := 0; i < 3; i++ {
			out := r.prog.Vertex(tri.V[i], mvp)
			res.VerticesShaded++
			cv[i] = clipVert{pos: out.ClipPos, col: out.Color, uv: out.UV}
		}

		poly := clipNear(cv, clipBuf[:0])
		if len(poly) < 3 {
			continue
		}
		// Fan-triangulate the clipped polygon and rasterize each piece.
		for k := 1; k+1 < len(poly); k++ {
			r.rasterTri(&res, &d, &vp, &poly[0], &poly[k], &poly[k+1])
		}
	}
	return res
}

func (r *Renderer) rasterTri(res *DrawResult, d *primitive.DrawCommand, vp *vecmath.Mat4, a, b, c *clipVert) {
	toScreen := func(v *clipVert) (screenVert, bool) {
		if v.pos.W <= 1e-12 {
			return screenVert{}, false
		}
		ndc := v.pos.PerspectiveDivide()
		s := vp.MulPoint(ndc)
		invW := 1 / v.pos.W
		return screenVert{
			x: s.X, y: s.Y, z: s.Z,
			invW: invW,
			colW: v.col.Scale(invW),
			uW:   v.uv.X * invW,
			vW:   v.uv.Y * invW,
		}, true
	}
	v0, ok0 := toScreen(a)
	v1, ok1 := toScreen(b)
	v2, ok2 := toScreen(c)
	if !ok0 || !ok1 || !ok2 {
		return
	}

	area := edge(v0.x, v0.y, v1.x, v1.y, v2.x, v2.y)
	if area == 0 {
		return
	}
	if area < 0 { // normalize winding so interior edge values are positive
		v1, v2 = v2, v1
		area = -area
	}
	res.TrianglesRasterized++

	minX := math.Min(v0.x, math.Min(v1.x, v2.x))
	maxX := math.Max(v0.x, math.Max(v1.x, v2.x))
	minY := math.Min(v0.y, math.Min(v1.y, v2.y))
	maxY := math.Max(v0.y, math.Max(v1.y, v2.y))
	x0 := max(0, int(math.Ceil(minX-0.5)))
	x1 := min(r.fb.Width()-1, int(math.Floor(maxX-0.5)))
	y0 := max(0, int(math.Ceil(minY-0.5)))
	y1 := min(r.fb.Height()-1, int(math.Floor(maxY-0.5)))
	if x0 > x1 || y0 > y1 {
		return
	}

	tl01 := topLeft(v0.x, v0.y, v1.x, v1.y)
	tl12 := topLeft(v1.x, v1.y, v2.x, v2.y)
	tl20 := topLeft(v2.x, v2.y, v0.x, v0.y)
	invArea := 1 / area
	state := d.State

	for y := y0; y <= y1; y++ {
		py := float64(y) + 0.5
		for x := x0; x <= x1; x++ {
			px := float64(x) + 0.5
			e01 := edge(v0.x, v0.y, v1.x, v1.y, px, py) // opposite v2
			e12 := edge(v1.x, v1.y, v2.x, v2.y, px, py) // opposite v0
			e20 := edge(v2.x, v2.y, v0.x, v0.y, px, py) // opposite v1
			if !(e01 > 0 || (e01 == 0 && tl01)) ||
				!(e12 > 0 || (e12 == 0 && tl12)) ||
				!(e20 > 0 || (e20 == 0 && tl20)) {
				continue
			}
			tile := r.fb.TileOf(x, y)
			if r.own != nil && !r.own[tile] {
				continue
			}
			w0 := e12 * invArea
			w1 := e20 * invArea
			w2 := e01 * invArea
			depth := w0*v0.z + w1*v1.z + w2*v2.z
			if depth < 0 || depth > 1 {
				continue // beyond the far plane (near is handled by clipping)
			}
			res.FragsGenerated++
			res.TileFrags[tile]++
			r.processFragment(res, state, d.ID, x, y, depth, w0, w1, w2, &v0, &v1, &v2)
		}
	}
}

func (r *Renderer) processFragment(res *DrawResult, state primitive.RenderState, drawID, x, y int, depth, w0, w1, w2 float64, v0, v1, v2 *screenVert) {
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
	// bilinear texture sample (the TEX-unit work of the paper's SMs).
	if r.curTex != nil {
		col = col.Mul(r.curTex.Sample(u, v, texture.Bilinear))
		res.TexSamples++
	}
	shaded := r.prog.Pixel(shade.PixelIn{X: x, Y: y, Depth: depth, Color: col, U: u, V: v})
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
	r.fb.Set(x, y, colorspace.Blend(state.BlendOp, shaded, r.fb.At(x, y)))
	res.FragsWritten++
}

// ProjectBounds computes the clipped screen-space bounding box of a triangle
// under the given transform without rasterizing it. ok is false when the
// triangle is fully clipped. This is the "preliminary transformation"
// sort-first schemes like GPUpd run to find each primitive's destination
// GPUs (paper Section III-A).
func ProjectBounds(tri primitive.Triangle, mvp vecmath.Mat4, width, height int) (minX, minY, maxX, maxY float64, ok bool) {
	var cv [3]clipVert
	for i := 0; i < 3; i++ {
		cv[i] = clipVert{pos: mvp.MulVec4(vecmath.FromVec3(tri.V[i].Position, 1))}
	}
	var buf [7]clipVert
	poly := clipNear(cv, buf[:0])
	if len(poly) < 3 {
		return 0, 0, 0, 0, false
	}
	vp := vecmath.Viewport(width, height)
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, v := range poly {
		if v.pos.W <= 1e-12 {
			return 0, 0, 0, 0, false
		}
		s := vp.MulPoint(v.pos.PerspectiveDivide())
		minX = math.Min(minX, s.X)
		maxX = math.Max(maxX, s.X)
		minY = math.Min(minY, s.Y)
		maxY = math.Max(maxY, s.Y)
	}
	if maxX < 0 || maxY < 0 || minX >= float64(width) || minY >= float64(height) {
		return 0, 0, 0, 0, false
	}
	return minX, minY, maxX, maxY, true
}

// CoveredTiles returns the tiles of a width×height screen whose bounding box
// a triangle overlaps, or nil if it is fully clipped. Sort-first primitive
// distribution sends the triangle to the owners of these tiles.
func CoveredTiles(tri primitive.Triangle, mvp vecmath.Mat4, width, height int) []int {
	minX, minY, maxX, maxY, ok := ProjectBounds(tri, mvp, width, height)
	if !ok {
		return nil
	}
	tilesX := (width + framebuffer.TileSize - 1) / framebuffer.TileSize
	tilesY := (height + framebuffer.TileSize - 1) / framebuffer.TileSize
	tx0 := max(0, int(minX)/framebuffer.TileSize)
	ty0 := max(0, int(minY)/framebuffer.TileSize)
	tx1 := min(tilesX-1, int(maxX)/framebuffer.TileSize)
	ty1 := min(tilesY-1, int(maxY)/framebuffer.TileSize)
	var out []int
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			out = append(out, ty*tilesX+tx)
		}
	}
	return out
}
