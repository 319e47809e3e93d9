// Package trace defines the benchmark workloads: single-frame draw-command
// traces matching the characteristics of the paper's Table III.
//
// The paper uses eight real-world game traces captured for the ATTILA
// simulator (DirectX 9 era). Those traces are not redistributable, so this
// package synthesizes frames with the same published characteristics — draw
// count, triangle count, resolution — and the workload properties the
// experiments are sensitive to:
//
//   - a bimodal draw-size distribution (a few very large draws plus many
//     small ones, Section VI-E),
//   - a small fraction of transparent draw commands rendered back-to-front
//     at the end of the frame (Section IV-C),
//   - mostly front-to-back opaque ordering, which makes early-Z effective
//     (Section VI-B),
//   - periodic render-state changes that create the composition-group
//     boundaries of Section IV-A (render-target switches, depth-write
//     toggles, depth-function changes, blend-operator changes).
//
// Generation is fully deterministic per benchmark seed.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"chopin/internal/colorspace"
	"chopin/internal/primitive"
	"chopin/internal/scene"
	"chopin/internal/texture"
	"chopin/internal/vecmath"
)

// Benchmark describes one Table III workload plus the shape parameters the
// generator uses.
type Benchmark struct {
	// Name is the paper's abbreviation (cod2, cry, ...).
	Name string
	// Title is the full game title.
	Title string
	// Width, Height are the screen resolution.
	Width, Height int
	// Draws is the target draw-command count.
	Draws int
	// Triangles is the target total triangle count.
	Triangles int

	// TransparentFrac is the fraction of draws that blend.
	TransparentFrac float64
	// Groups is the approximate number of large opaque composition groups.
	Groups int
	// PxPerTri is the target generated fragments per triangle (controls
	// triangle screen size and overdraw).
	PxPerTri float64
	// LargeDrawFrac is the fraction of draws that are "large" (the upper
	// mode of the bimodal size distribution).
	LargeDrawFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// Benchmarks lists the eight paper workloads with Table III parameters.
var Benchmarks = []Benchmark{
	{Name: "cod2", Title: "Call of Duty 2", Width: 640, Height: 480, Draws: 1005, Triangles: 219950,
		TransparentFrac: 0.08, Groups: 6, PxPerTri: 4.0, LargeDrawFrac: 0.10, Seed: 0xc0d2},
	{Name: "cry", Title: "Crysis", Width: 800, Height: 600, Draws: 1427, Triangles: 800948,
		TransparentFrac: 0.06, Groups: 7, PxPerTri: 1.8, LargeDrawFrac: 0.14, Seed: 0xc47},
	{Name: "grid", Title: "GRID", Width: 1280, Height: 1024, Draws: 2623, Triangles: 466806,
		TransparentFrac: 0.05, Groups: 8, PxPerTri: 9.0, LargeDrawFrac: 0.16, Seed: 0x641d},
	{Name: "mirror", Title: "Mirror's Edge", Width: 1280, Height: 1024, Draws: 1257, Triangles: 381422,
		TransparentFrac: 0.07, Groups: 6, PxPerTri: 6.0, LargeDrawFrac: 0.12, Seed: 0x3144},
	{Name: "nfs", Title: "Need for Speed: Undercover", Width: 1280, Height: 1024, Draws: 1858, Triangles: 534121,
		TransparentFrac: 0.09, Groups: 7, PxPerTri: 5.0, LargeDrawFrac: 0.12, Seed: 0x9f5},
	{Name: "stal", Title: "S.T.A.L.K.E.R.: Call of Pripyat", Width: 1280, Height: 1024, Draws: 1086, Triangles: 546733,
		TransparentFrac: 0.06, Groups: 6, PxPerTri: 4.5, LargeDrawFrac: 0.15, Seed: 0x57a1},
	{Name: "ut3", Title: "Unreal Tournament 3", Width: 1280, Height: 1024, Draws: 1944, Triangles: 630302,
		TransparentFrac: 0.10, Groups: 7, PxPerTri: 4.0, LargeDrawFrac: 0.11, Seed: 0x073},
	{Name: "wolf", Title: "Wolfenstein", Width: 640, Height: 480, Draws: 1697, Triangles: 243052,
		TransparentFrac: 0.08, Groups: 6, PxPerTri: 3.0, LargeDrawFrac: 0.08, Seed: 0x301f},
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Benchmarks {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Names returns the benchmark abbreviations in paper order.
func Names() []string {
	out := make([]string, len(Benchmarks))
	for i, b := range Benchmarks {
		out[i] = b.Name
	}
	return out
}

// Generate builds the benchmark's single-frame trace at the given scale.
// scale 1.0 reproduces the Table III draw and triangle counts; smaller
// scales shrink the draw count, triangle count and resolution together (for
// fast tests). The result is deterministic.
func Generate(b Benchmark, scale float64) *primitive.Frame {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	g := &generator{
		b:   b,
		rng: rand.New(rand.NewSource(b.Seed)),
	}
	g.width, g.height = b.Width, b.Height
	if scale < 1 {
		s := math.Sqrt(scale)
		g.width = max(128, int(float64(b.Width)*s))
		g.height = max(128, int(float64(b.Height)*s))
	}
	g.targetDraws = max(24, int(float64(b.Draws)*scale))
	g.targetTris = max(2000, int(float64(b.Triangles)*scale))
	return g.run()
}

// ScaledThreshold converts a triangle-denominated paper parameter (e.g. the
// 4096-triangle composition-group threshold) to its proportional equivalent
// on a trace generated at scale, never below 16 triangles.
func ScaledThreshold(tris int, scale float64) int {
	return max(16, int(float64(tris)*scale))
}

// GenerateSequence builds a short animation: frames consecutive frames of
// the same scene viewed from a camera translating and yawing slightly each
// frame. Consecutive frames share geometry and textures (real games exhibit
// exactly this temporal coherence); only the view transform changes.
//
// Multi-frame sequences drive the alternate-frame-rendering (AFR)
// comparison: AFR improves the average frame rate but not the frame
// latency, causing the micro-stuttering the paper's introduction discusses.
func GenerateSequence(b Benchmark, scale float64, frames int) []*primitive.Frame {
	if frames < 1 {
		frames = 1
	}
	base := Generate(b, scale)
	cam := scene.DefaultCamera()
	aspect := float64(base.Width) / float64(base.Height)
	out := make([]*primitive.Frame, frames)
	for i := range out {
		c := cam
		t := float64(i)
		c.Eye = c.Eye.Add(vecmath.Vec3{X: 0.4 * t, Z: -0.8 * t})
		c.Center = c.Eye.Add(vecmath.Vec3{X: 0.02 * t, Z: -1})
		fr := *base
		fr.View = c.View()
		fr.Proj = c.Proj(aspect)
		out[i] = &fr
	}
	return out
}

type generator struct {
	b             Benchmark
	rng           *rand.Rand
	width, height int
	targetDraws   int
	targetTris    int

	cam      scene.Camera
	draws    []primitive.DrawCommand
	textures []*texture.Texture
}

// frustumPos picks a random position inside the view frustum at a random
// distance, leaving margin so objects stay mostly on screen.
func (g *generator) frustumPos(minDist, maxDist float64) (vecmath.Vec3, float64) {
	dist := minDist + (maxDist-minDist)*math.Pow(g.rng.Float64(), 1.5)
	tanHalf := math.Tan(g.cam.FovY / 2)
	aspect := float64(g.width) / float64(g.height)
	y := (g.rng.Float64()*2 - 1) * dist * tanHalf * 0.85
	x := (g.rng.Float64()*2 - 1) * dist * tanHalf * aspect * 0.85
	return vecmath.Vec3{X: x, Y: y, Z: -dist}, dist
}

// worldRadiusFor converts a desired screen radius in pixels at distance dist
// into a world-space radius.
func (g *generator) worldRadiusFor(screenPx, dist float64) float64 {
	tanHalf := math.Tan(g.cam.FovY / 2)
	return screenPx * dist * tanHalf * 2 / float64(g.height)
}

func (g *generator) randColor() colorspace.RGBA {
	return colorspace.Opaque(0.2+0.8*g.rng.Float64(), 0.2+0.8*g.rng.Float64(), 0.2+0.8*g.rng.Float64())
}

func (g *generator) run() *primitive.Frame {
	g.cam = scene.DefaultCamera()
	g.makeTextures()

	nTransparent := int(float64(g.targetDraws) * g.b.TransparentFrac)
	nBackground := 2                      // sky + backdrop, drawn once each
	nSmallRT := max(2, g.targetDraws/400) // tiny render-target passes (below threshold)
	nOpaque := g.targetDraws - nTransparent - nBackground - nSmallRT

	// Transparent draws are budgeted in FRAGMENTS (~8% of the opaque
	// fragment load): particles and glass are numerous but cheap in real
	// games, and fragment-heavy transparent draws cannot be load-balanced
	// (they are distributed as contiguous ranges).
	transPlan := g.transparentPlan(nTransparent, 0.08*g.b.PxPerTri*float64(g.targetTris))
	transTris := 0
	for _, q := range transPlan {
		transTris += 2 * q.quads
	}
	bgTris := nBackground * 8
	rtTris := nSmallRT * 2
	opaqueTris := g.targetTris - transTris - bgTris - rtTris

	g.background(nBackground)
	g.opaqueObjects(nOpaque, opaqueTris)
	g.smallRTPasses(nSmallRT)
	g.transparent(transPlan)

	// Assign final IDs in stream order.
	for i := range g.draws {
		g.draws[i].ID = i
	}
	aspect := float64(g.width) / float64(g.height)
	return &primitive.Frame{
		Draws:    g.draws,
		View:     g.cam.View(),
		Proj:     g.cam.Proj(aspect),
		Width:    g.width,
		Height:   g.height,
		Textures: g.textures,
	}
}

// makeTextures builds the frame's texture table: the kinds of surface maps
// a DX9-era game binds (diffuse checkers, detail noise, gradients).
func (g *generator) makeTextures() {
	mk := []*texture.Texture{
		texture.Checkerboard("checker-a", 64, 8,
			colorspace.Opaque(0.9, 0.85, 0.8), colorspace.Opaque(0.35, 0.3, 0.3)),
		texture.Checkerboard("checker-b", 32, 4,
			colorspace.Opaque(0.6, 0.7, 0.9), colorspace.Opaque(0.2, 0.25, 0.4)),
		texture.Noise("detail-1", 64, g.b.Seed),
		texture.Noise("detail-2", 32, g.b.Seed*3+1),
		texture.Gradient("gradient", 64,
			colorspace.Opaque(1, 0.9, 0.7), colorspace.Opaque(0.4, 0.5, 0.8)),
	}
	for i, t := range mk {
		t.ID = i + 1
	}
	g.textures = mk
}

// background emits full-screen far-plane sky/backdrop draws (the paper's
// example of draw commands that "cut a rectangle screen into two triangles"
// and should revert to duplication).
func (g *generator) background(n int) {
	tanHalf := math.Tan(g.cam.FovY / 2)
	aspect := float64(g.width) / float64(g.height)
	dist := g.cam.Far * 0.85
	halfH := dist * tanHalf * 1.1
	halfW := halfH * aspect
	for i := 0; i < n; i++ {
		col := colorspace.Opaque(0.2, 0.3, 0.5+0.3*g.rng.Float64())
		tris := scene.GridPatch(-halfW, -halfH, halfW, halfH, -dist+float64(i), 2, 2, col)
		// Sky passes use a less-or-equal depth test, which both matches how
		// engines draw full-screen backdrops and creates an Event-4 group
		// boundary before the object draws — the background then forms its
		// own tiny composition group that CHOPIN reverts to duplication
		// (exactly the paper's Fig. 7 example).
		state := primitive.DefaultState()
		state.DepthFunc = colorspace.CmpLessEqual
		d := primitive.DrawCommand{
			Tris:       tris,
			Model:      vecmath.Identity(),
			State:      state,
			VertexCost: 1,
			PixelCost:  0.5,
		}
		g.draws = append(g.draws, d)
	}
}

// drawSizes samples a bimodal draw-size distribution summing to totalTris.
func (g *generator) drawSizes(n, totalTris int) []int {
	if n <= 0 {
		return nil
	}
	sizes := make([]float64, n)
	sum := 0.0
	for i := range sizes {
		if g.rng.Float64() < g.b.LargeDrawFrac {
			// Large mode: lognormal around ~60× the small mode.
			sizes[i] = 60 * math.Exp(g.rng.NormFloat64()*0.8)
		} else {
			sizes[i] = math.Exp(g.rng.NormFloat64() * 0.9)
		}
		sum += sizes[i]
	}
	// Cap any single draw at ~2% of the budget: real frames put at most a
	// few thousand triangles in one draw call, and an unsplittable giant
	// draw would dominate any scheduler. The cap relaxes when there are too
	// few draws to hold the budget under it.
	capTris := max(32, totalTris/50, 5*totalTris/(2*n))
	// Water-fill proportionally to the sampled weights so capping the large
	// mode re-spreads its excess by weight (preserving bimodality) rather
	// than uniformly.
	out := make([]int, n)
	assigned := 0
	// Every draw gets at least one triangle up front.
	for i := range out {
		if assigned < totalTris {
			out[i] = 1
			assigned++
		}
	}
	for iter := 0; iter < 32 && assigned < totalTris; iter++ {
		wsum := 0.0
		for i := range out {
			if out[i] < capTris {
				wsum += sizes[i]
			}
		}
		if wsum == 0 {
			break
		}
		remaining := totalTris - assigned
		progress := false
		for i := range out {
			if out[i] >= capTris {
				continue
			}
			add := min(capTris-out[i], max(1, int(sizes[i]/wsum*float64(remaining))))
			if assigned+add > totalTris {
				add = totalTris - assigned
			}
			if add > 0 {
				out[i] += add
				assigned += add
				progress = true
			}
			if assigned == totalTris {
				break
			}
		}
		if !progress {
			break
		}
	}
	// Whatever rounding leaves over goes one-by-one to uncapped draws.
	for i := 0; assigned < totalTris; i = (i + 1) % n {
		if out[i] < capTris {
			out[i]++
			assigned++
		}
	}
	for assigned > totalTris {
		i := g.rng.Intn(n)
		if out[i] > 1 {
			out[i]--
			assigned--
		}
	}
	return out
}

type placedDraw struct {
	draw primitive.DrawCommand
	dist float64
}

// opaqueObjects emits the main object draws, split into g.b.Groups
// composition groups by periodic state changes, each group mostly
// front-to-back ordered.
func (g *generator) opaqueObjects(n, totalTris int) {
	if n <= 0 {
		return
	}
	sizes := g.drawSizes(n, totalTris)
	perGroup := (n + g.b.Groups - 1) / g.b.Groups
	idx := 0
	for grp := 0; grp < g.b.Groups && idx < n; grp++ {
		state := primitive.DefaultState()
		// Alternate a harmless depth-function change (Event 4) between
		// adjacent groups so each forms its own composition group.
		if grp%2 == 1 {
			state.DepthFunc = colorspace.CmpLessEqual
		}
		var placed []placedDraw
		for k := 0; k < perGroup && idx < n; k, idx = k+1, idx+1 {
			placed = append(placed, g.objectDraw(sizes[idx], state))
		}
		// Mostly front-to-back: sort by distance, then lightly shuffle.
		sort.Slice(placed, func(i, j int) bool { return placed[i].dist < placed[j].dist })
		for i := range placed {
			if g.rng.Float64() < 0.15 && i+1 < len(placed) {
				placed[i], placed[i+1] = placed[i+1], placed[i]
			}
		}
		for _, p := range placed {
			g.draws = append(g.draws, p.draw)
		}
	}
}

// objectDraw builds one opaque object draw with the given triangle budget.
func (g *generator) objectDraw(tris int, state primitive.RenderState) placedDraw {
	pos, dist := g.frustumPos(8, g.cam.Far*0.5)
	// Both faces of a sphere rasterize (no backface culling), so the
	// generated fragments are ~2× the projected disk area.
	screenR := math.Sqrt(g.b.PxPerTri * float64(tris) / (2 * math.Pi))
	maxR := float64(g.height) / 3
	if screenR > maxR {
		screenR = maxR
	}
	radius := g.worldRadiusFor(screenR, dist)
	col := g.randColor()

	var geom []primitive.Triangle
	switch {
	case tris <= 12:
		geom = scene.Box(pos, vecmath.Vec3{X: radius, Y: radius, Z: radius}, col)
		if tris < 12 {
			geom = geom[:tris]
		}
	case g.rng.Float64() < 0.25:
		nx := max(1, int(math.Sqrt(float64(tris)/2)))
		ny := max(1, (tris+2*nx-1)/(2*nx))
		geom = scene.GridPatch(pos.X-radius, pos.Y-radius, pos.X+radius, pos.Y+radius, pos.Z, nx, ny, col)
	default:
		lat, lon := scene.SphereSegmentsFor(tris)
		geom = scene.Sphere(pos, radius, lat, lon, col)
	}
	// Trim to the exact triangle budget so Table III totals hold.
	if len(geom) > tris {
		geom = geom[:tris]
	}
	texID := 0
	if g.rng.Float64() < 0.6 {
		texID = 1 + g.rng.Intn(len(g.textures))
	}
	return placedDraw{
		draw: primitive.DrawCommand{
			Tris:       geom,
			Model:      vecmath.Identity(),
			State:      state,
			VertexCost: 0.75 + 0.75*g.rng.Float64(),
			PixelCost:  0.75 + 0.75*g.rng.Float64(),
			TextureID:  texID,
		},
		dist: dist,
	}
}

// smallRTPasses emits tiny draws into an intermediate render target
// (post-processing setup): Event 2 boundaries with trivial triangle counts,
// the groups that fall under CHOPIN's primitive threshold.
func (g *generator) smallRTPasses(n int) {
	tanHalf := math.Tan(g.cam.FovY / 2)
	aspect := float64(g.width) / float64(g.height)
	for i := 0; i < n; i++ {
		state := primitive.DefaultState()
		state.RenderTarget = 1 + i%2
		state.DepthBuffer = state.RenderTarget
		// A small effect quad (~1/4 of the screen edge): intermediate
		// passes render downscaled buffers, not full frames.
		dist := 50.0
		half := dist * tanHalf / 4
		off := (g.rng.Float64()*2 - 1) * dist * tanHalf / 2
		tris := scene.GridPatch(off-half*aspect, off-half, off+half*aspect, off+half, -dist, 1, 1, g.randColor())
		g.draws = append(g.draws, primitive.DrawCommand{
			Tris:       tris,
			Model:      vecmath.Identity(),
			State:      state,
			VertexCost: 1,
			PixelCost:  0.5,
		})
	}
}

// transQuota is one planned transparent draw: a particle/glass cluster of
// quads quads with the given on-screen half-size in pixels.
type transQuota struct {
	quads  int
	halfPx float64
}

// transparentPlan allocates quad counts to n transparent draws so their
// total generated fragments stay near fragBudget.
func (g *generator) transparentPlan(n int, fragBudget float64) []transQuota {
	if n <= 0 {
		return nil
	}
	plan := make([]transQuota, n)
	weights := make([]float64, n)
	sum := 0.0
	for i := range plan {
		plan[i].halfPx = 3 + 9*g.rng.Float64()
		weights[i] = math.Exp(g.rng.NormFloat64() * 0.7)
		sum += weights[i]
	}
	for i := range plan {
		share := fragBudget * weights[i] / sum
		perQuad := 4 * plan[i].halfPx * plan[i].halfPx
		plan[i].quads = max(1, int(share/perQuad))
	}
	return plan
}

// transparent emits the blended draws at the end of the frame: glass panes
// and particle clusters, strictly back-to-front, with a small additive
// sub-group to exercise the blend-operator boundary (Event 5).
func (g *generator) transparent(plan []transQuota) {
	n := len(plan)
	if n == 0 {
		return
	}
	nAdd := n / 4 // trailing additive group (e.g. fire/glow particles)
	if nAdd == 0 && n >= 2 {
		nAdd = 1
	}
	nOver := n - nAdd

	emit := func(count int, op colorspace.BlendOp, off int) {
		var placed []placedDraw
		for i := 0; i < count; i++ {
			q := plan[off+i]
			pos, dist := g.frustumPos(10, g.cam.Far*0.35)
			var geom []primitive.Triangle
			alpha := 0.2 + 0.5*g.rng.Float64()
			col := colorspace.FromStraight(0.3+0.7*g.rng.Float64(), 0.3+0.7*g.rng.Float64(), 0.9, alpha)
			half := g.worldRadiusFor(q.halfPx, dist)
			spread := half * 6
			for k := 0; k < q.quads; k++ {
				offv := vecmath.Vec3{
					X: (g.rng.Float64()*2 - 1) * spread,
					Y: (g.rng.Float64()*2 - 1) * spread,
					Z: (g.rng.Float64()*2 - 1) * half,
				}
				geom = append(geom, scene.FacingQuad(pos.Add(offv), half, col)...)
			}
			state := primitive.DefaultState()
			state.BlendOp = op
			state.DepthWrite = false
			placed = append(placed, placedDraw{
				draw: primitive.DrawCommand{
					Tris:       geom,
					Model:      vecmath.Identity(),
					State:      state,
					VertexCost: 1,
					PixelCost:  0.5 + g.rng.Float64(),
				},
				dist: dist,
			})
		}
		// Strict back-to-front ordering for correct blending.
		sort.Slice(placed, func(i, j int) bool { return placed[i].dist > placed[j].dist })
		for _, p := range placed {
			g.draws = append(g.draws, p.draw)
		}
	}
	emit(nOver, colorspace.BlendOver, 0)
	emit(nAdd, colorspace.BlendAdd, nOver)
}
