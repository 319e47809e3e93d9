// Package gpu is the per-GPU timing model: a pipelined graphics processor
// with a geometry stage (PolyMorph engines + vertex shading on the SMs) and
// a fragment stage (raster engines, pixel shading, ROPs), matching the
// scaled-down Table II configuration of the paper (8 SMs and 8 ROPs per
// GPU at 1 GHz).
//
// The model is execution-driven: when a draw command is submitted, the
// functional rasterizer really renders it against this GPU's current
// framebuffer and depth state, and the resulting vertex/triangle/fragment
// counts are converted to stage cycles. Consecutive draws overlap across
// stages like a real pipeline, with a finite run-ahead window providing
// backpressure so geometry progress tracks whole-pipeline progress (the
// property paper Fig. 9 observes and the draw-command scheduler relies on).
package gpu

import (
	"fmt"

	"chopin/internal/framebuffer"
	"chopin/internal/obs"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/texture"
	"chopin/internal/vecmath"
)

// CostConfig holds the cycle costs of the pipeline stages. All per-item
// costs are aggregate per GPU (the parallelism of the 8 SMs / 8 ROPs is
// folded in).
type CostConfig struct {
	// DrawOverheadGeom is the fixed geometry-stage cost of one draw command
	// (command processing, state setup, vertex fetch startup).
	DrawOverheadGeom float64
	// CyclesPerVertex is the vertex-shading cost per vertex (scaled by each
	// draw's VertexCost factor).
	CyclesPerVertex float64
	// CyclesPerTriangle is the primitive assembly/cull/clip cost per
	// triangle.
	CyclesPerTriangle float64

	// DrawOverheadFrag is the fixed fragment-stage cost of one draw.
	DrawOverheadFrag float64
	// CyclesPerTriSetup is the raster-engine triangle setup cost.
	CyclesPerTriSetup float64
	// CyclesPerFragment is the coverage/early-Z cost per generated fragment.
	CyclesPerFragment float64
	// CyclesPerFragShaded is the pixel-shader cost per shaded fragment
	// (scaled by each draw's PixelCost factor).
	CyclesPerFragShaded float64
	// CyclesPerFragWritten is the ROP blend/write cost per framebuffer
	// write.
	CyclesPerFragWritten float64
	// CyclesPerTexSample is the TEX-unit cost per texture sample.
	CyclesPerTexSample float64

	// DRAMBytesPerCycle is the per-GPU off-chip memory bandwidth (Table II:
	// 2 TB/s across the 8-GPU system at 1 GHz = 256 bytes/cycle per GPU).
	// The fragment stage is additionally bounded by its memory traffic.
	DRAMBytesPerCycle float64
	// L2HitRate is the fraction of texture traffic served by the 6 MB L2.
	L2HitRate float64
	// BytesPerTexMiss is the DRAM traffic of one L2-missing texture sample
	// (a filtered block fetch).
	BytesPerTexMiss float64
	// BytesPerFragTested is the depth read traffic per generated fragment.
	BytesPerFragTested float64
	// BytesPerFragWritten is the colour+depth write traffic per write.
	BytesPerFragWritten float64

	// CyclesPerMergePixel is the ROP cost of composing one incoming pixel
	// during image composition.
	CyclesPerMergePixel float64
	// ProjCyclesPerTriangle is the cost of the projection-only pre-pass
	// sort-first schemes run (position transform + bounding, no shading).
	ProjCyclesPerTriangle float64

	// PipelineDepth is how many draws the geometry stage may run ahead of
	// the fragment stage before stalling (inter-stage buffering).
	PipelineDepth int
}

// DefaultCosts returns the calibrated cost model. The values are chosen so
// that on the paper's trace shapes a single GPU spends roughly 30% of its
// pipeline cycles in geometry (paper Fig. 2 at 1 GPU), which makes redundant
// geometry dominate as GPU count grows, as in the paper.
func DefaultCosts() CostConfig {
	return CostConfig{
		DrawOverheadGeom:      400,
		CyclesPerVertex:       1.0,
		CyclesPerTriangle:     1.0,
		DrawOverheadFrag:      400,
		CyclesPerTriSetup:     0.5,
		CyclesPerFragment:     1.0,
		CyclesPerFragShaded:   1.5,
		CyclesPerFragWritten:  0.75,
		CyclesPerTexSample:    0.5,
		CyclesPerMergePixel:   0.125,
		ProjCyclesPerTriangle: 2.0,
		PipelineDepth:         4,
		DRAMBytesPerCycle:     256,
		L2HitRate:             0.8,
		BytesPerTexMiss:       16,
		BytesPerFragTested:    4,
		BytesPerFragWritten:   8,
	}
}

// GeomCycles returns the geometry-stage cost of a draw with the given
// vertex/triangle counts and vertex-shader cost factor.
func (c *CostConfig) GeomCycles(verts, tris int, vertexCost float64) float64 {
	if vertexCost <= 0 {
		vertexCost = 1
	}
	return c.DrawOverheadGeom + float64(verts)*c.CyclesPerVertex*vertexCost + float64(tris)*c.CyclesPerTriangle
}

// FragCycles returns the fragment-stage cost of a draw given its
// rasterization result and pixel-shader cost factor. The stage is bounded
// both by compute (raster, shading, TEX, ROP) and by its DRAM traffic
// (depth reads, colour+depth writes, texture misses past the L2).
func (c *CostConfig) FragCycles(res *raster.DrawResult, pixelCost float64) float64 {
	if pixelCost <= 0 {
		pixelCost = 1
	}
	compute := c.DrawOverheadFrag +
		float64(res.TrianglesRasterized)*c.CyclesPerTriSetup +
		float64(res.FragsGenerated)*c.CyclesPerFragment +
		float64(res.FragsShaded)*c.CyclesPerFragShaded*pixelCost +
		float64(res.TexSamples)*c.CyclesPerTexSample +
		float64(res.FragsWritten)*c.CyclesPerFragWritten
	if c.DRAMBytesPerCycle <= 0 {
		return compute
	}
	traffic := float64(res.FragsGenerated)*c.BytesPerFragTested +
		float64(res.FragsWritten)*c.BytesPerFragWritten +
		float64(res.TexSamples)*(1-c.L2HitRate)*c.BytesPerTexMiss
	if mem := c.DrawOverheadFrag + traffic/c.DRAMBytesPerCycle; mem > compute {
		return mem
	}
	return compute
}

// DrawTiming records one executed draw for per-draw analyses (paper Fig. 9).
type DrawTiming struct {
	DrawID    int
	Triangles int
	// GeomCycles is the geometry-stage service time.
	GeomCycles sim.Cycle
	// PipeCycles is the total pipeline service time (geometry + fragment).
	PipeCycles sim.Cycle
}

// Stats accumulates a GPU's activity.
type Stats struct {
	// GeomBusy, FragBusy are stage busy-cycle totals for draw processing.
	GeomBusy, FragBusy sim.Cycle
	// ProjBusy is time spent in sort-first primitive projection pre-passes.
	ProjBusy sim.Cycle
	// MergeBusy is ROP time spent composing incoming sub-images.
	MergeBusy sim.Cycle
	// DrawsExecuted counts draw commands run on this GPU.
	DrawsExecuted int
	// Raster aggregates the functional rasterization counters.
	Raster raster.DrawResult
	// PerDraw holds per-draw timings when recording is enabled.
	PerDraw []DrawTiming
	// StallCycles is injected stall time (fault plans); not counted as busy.
	StallCycles sim.Cycle
}

// geomSegment records a completed scheduling decision of the geometry stage,
// used to answer "how many triangles has geometry processed by cycle t".
type geomSegment struct {
	start, end sim.Cycle
	tris       int
	cumBefore  int // triangles completed before this segment
}

// DrawOpts customizes a single draw submission.
type DrawOpts struct {
	// OnGeomDone fires when the draw's geometry-stage processing completes.
	OnGeomDone func(res *raster.DrawResult)
	// OnDone fires when the draw fully drains from the pipeline.
	OnDone func(res *raster.DrawResult)
	// RecordTiming appends a DrawTiming entry to the GPU's stats.
	RecordTiming bool
	// GeomFree charges only the fixed draw overhead in the geometry stage:
	// the vertices arrive already transformed (sort-middle rendering
	// receives post-geometry primitives from their transforming GPU).
	GeomFree bool
}

// drawEvent carries one submitted draw's functional result to its completion
// callbacks. A single allocation per draw backs the returned
// *raster.DrawResult and both scheduled events: geomFire and doneFire are
// conversion views of the same struct, so scheduling them through
// sim.Engine.AtCall allocates nothing further.
type drawEvent struct {
	res    raster.DrawResult
	onGeom func(res *raster.DrawResult)
	onDone func(res *raster.DrawResult)
}

// geomFire fires the geometry-stage completion callback.
type geomFire drawEvent

// Fire implements sim.Callback.
func (e *geomFire) Fire() { e.onGeom(&e.res) }

// doneFire fires the pipeline-drain completion callback.
type doneFire drawEvent

// Fire implements sim.Callback.
func (e *doneFire) Fire() { e.onDone(&e.res) }

// GPU models one GPU's pipeline timing and functional state.
type GPU struct {
	// ID is the GPU's index in the system.
	ID int

	eng   *sim.Engine
	costs CostConfig

	width, height int
	rasterCfg     raster.Config
	rend          *raster.Renderer
	targets       map[int]*framebuffer.Buffer
	ownership     []bool

	geomFree   sim.Cycle
	fragFree   sim.Cycle
	fragStarts []sim.Cycle // fragment start time of each submitted draw
	segments   []geomSegment
	trisDone   int // cumulative triangles through geometry (scheduled)

	// tr is the optional timeline tracer; nil (the default) disables
	// tracing, and every submission hot path guards on that nil.
	tr             *obs.Tracer
	trGeom, trFrag obs.Track
	cumFragsGen    int64 // cumulative generated fragments, for the probe

	failed   bool
	failedAt sim.Cycle
	stats    Stats
}

// New returns a GPU with a cleared framebuffer for render target 0.
func New(id int, eng *sim.Engine, costs CostConfig, width, height int, rcfg raster.Config) (*GPU, error) {
	// Distinct GPUs must make independent retained-fragment choices.
	rcfg.RetainSeed += int64(id) * 7919
	g := &GPU{
		ID:        id,
		eng:       eng,
		costs:     costs,
		width:     width,
		height:    height,
		rasterCfg: rcfg,
		targets:   map[int]*framebuffer.Buffer{},
	}
	fb, err := framebuffer.New(width, height)
	if err != nil {
		return nil, fmt.Errorf("gpu %d: %w", id, err)
	}
	g.targets[0] = fb
	g.rend = raster.New(fb, rcfg)
	return g, nil
}

// Stats returns the GPU's accumulated statistics.
func (g *GPU) Stats() *Stats { return &g.stats }

// SetTracer attaches a timeline tracer (nil disables tracing): draws emit
// geometry- and fragment-stage spans on this GPU's tracks, early-Z culling
// emits instants, and the stage backlogs plus cumulative fragment output are
// registered as sampled counters.
func (g *GPU) SetTracer(tr *obs.Tracer) {
	g.tr = tr
	if tr == nil {
		return
	}
	pid := obs.PidGPU(g.ID)
	proc := obs.GPUProcName(g.ID)
	g.trGeom = tr.Track(pid, proc, obs.TidGeometry, "geometry")
	g.trFrag = tr.Track(pid, proc, obs.TidFragment, "fragment/ROP")
	tr.Probe(pid, "geom_backlog_cycles", func() int64 {
		if b := g.geomFree - g.eng.Now(); b > 0 {
			return b
		}
		return 0
	})
	tr.Probe(pid, "frag_backlog_cycles", func() int64 {
		if b := g.fragFree - g.eng.Now(); b > 0 {
			return b
		}
		return 0
	})
	tr.Probe(pid, "frags_generated", func() int64 { return g.cumFragsGen })
}

// Costs returns the GPU's cost configuration.
func (g *GPU) Costs() *CostConfig { return &g.costs }

// Target returns the framebuffer for render target rt, creating it (cleared,
// with clean dirty flags) on first use.
func (g *GPU) Target(rt int) *framebuffer.Buffer {
	fb, ok := g.targets[rt]
	if !ok {
		// The GPU's dimensions were validated at construction, so this
		// cannot fail.
		fb = framebuffer.MustNew(g.width, g.height)
		g.targets[rt] = fb
	}
	return fb
}

// SetTarget installs an externally created buffer (e.g. a transparent
// sub-image render target) as render target rt. The buffer's dimensions
// must match the GPU's.
func (g *GPU) SetTarget(rt int, fb *framebuffer.Buffer) error {
	if fb.Width() != g.width || fb.Height() != g.height {
		return fmt.Errorf("gpu %d: SetTarget rt %d dimension mismatch: %d×%d vs %d×%d",
			g.ID, rt, fb.Width(), fb.Height(), g.width, g.height)
	}
	g.targets[rt] = fb
	return nil
}

// SetTextures installs the frame texture table on the GPU's rasterizer.
func (g *GPU) SetTextures(texs []*texture.Texture) { g.rend.SetTextures(texs) }

// SetOwnership restricts rasterization to the given tile mask (nil = all
// tiles). The mask applies to every render target. The mask length must
// equal the screen tile count.
func (g *GPU) SetOwnership(mask []bool) error {
	if err := g.rend.SetOwnership(mask); err != nil {
		return err
	}
	g.ownership = mask
	return nil
}

// Ownership returns the current tile mask (nil = all tiles).
func (g *GPU) Ownership() []bool { return g.ownership }

// BusyUntil returns the cycle at which all currently submitted work drains.
func (g *GPU) BusyUntil() sim.Cycle {
	if g.geomFree > g.fragFree {
		return g.geomFree
	}
	return g.fragFree
}

// PreparedDraw is the functional half of a draw submission: the draw's
// timing inputs, its rasterization result, and the submission options,
// ready to be committed to the timing pipeline. The backing allocation
// doubles as the completion-event carrier, so a prepare+commit pair
// allocates exactly as much as SubmitDraw does.
type PreparedDraw struct {
	id                    int
	vertexCost, pixelCost float64
	opts                  DrawOpts
	ev                    drawEvent
}

// PrepareDraw sets d up in a pooled raster.Setup and prepares every chunk
// of it: the single-GPU form of a submission.
func (g *GPU) PrepareDraw(d primitive.DrawCommand, view, proj vecmath.Mat4, opts DrawOpts) *PreparedDraw {
	s := raster.GetSetup()
	s.Build(&d, view, proj, g.width, g.height)
	p := g.PrepareSetup(s, opts)
	for s.Next() {
		g.RasterChunk(p, s)
	}
	raster.PutSetup(s)
	return p
}

// PrepareSetup starts the prepared submission of a set-up draw: it switches
// to the draw's render target and rasterizes the setup's current chunk
// against this GPU's framebuffer/depth state and ownership mask. Each
// further chunk of the draw goes through RasterChunk before this GPU
// prepares anything else. s must be built for the GPU's screen; it is only
// read, so every GPU that receives a broadcast draw shares one setup.
// Prepares on the same GPU must stay in submission order (rasterization
// order is semantically meaningful). Prepares on *distinct* GPUs write
// disjoint state — renderer, render targets, the prepared result — so a
// caller may prepare a draw on several GPUs, chunk by chunk, and then
// commit in the original order. That split is how
// multigpu.System.BroadcastDraw sets a draw up once for every GPU it goes
// to without perturbing event order.
func (g *GPU) PrepareSetup(s *raster.Setup, opts DrawOpts) *PreparedDraw {
	d := s.Draw()
	// Targets are all built to the GPU's own dimensions, so the switch
	// cannot fail.
	_ = g.rend.SetTarget(g.Target(d.State.RenderTarget))
	p := &PreparedDraw{id: d.ID, vertexCost: d.VertexCost, pixelCost: d.PixelCost, opts: opts}
	p.ev.onGeom = opts.OnGeomDone
	p.ev.onDone = opts.OnDone
	g.rend.Raster(s, &p.ev.res)
	return p
}

// RasterChunk rasterizes the setup's current chunk into p, the submission
// PrepareSetup started for the same draw on this GPU.
func (g *GPU) RasterChunk(p *PreparedDraw, s *raster.Setup) { g.rend.Raster(s, &p.ev.res) }

// CommitDraw charges a prepared draw to the timing pipeline and schedules
// its completion callbacks: the ordered half of a submission. Commits must
// happen in global submission order.
func (g *GPU) CommitDraw(p *PreparedDraw) *raster.DrawResult {
	opts := p.opts
	res := &p.ev.res
	g.stats.Raster.Add(*res)
	g.stats.DrawsExecuted++

	geomCycles := sim.Cycle(g.costs.GeomCycles(res.VerticesShaded, res.TrianglesIn, p.vertexCost))
	if opts.GeomFree {
		geomCycles = sim.Cycle(g.costs.DrawOverheadGeom)
	}
	fragCycles := sim.Cycle(g.costs.FragCycles(res, p.pixelCost))

	now := g.eng.Now()
	geomStart := max(now, g.geomFree)
	// Backpressure: geometry may run at most PipelineDepth draws ahead of
	// the fragment stage.
	if depth := g.costs.PipelineDepth; depth > 0 && len(g.fragStarts) >= depth {
		if gate := g.fragStarts[len(g.fragStarts)-depth]; gate > geomStart {
			geomStart = gate
		}
	}
	geomEnd := geomStart + geomCycles
	fragStart := max(geomEnd, g.fragFree)
	fragEnd := fragStart + fragCycles

	g.geomFree = geomEnd
	g.fragFree = fragEnd
	g.fragStarts = append(g.fragStarts, fragStart)

	g.stats.GeomBusy += geomCycles
	g.stats.FragBusy += fragCycles

	g.segments = append(g.segments, geomSegment{
		start: geomStart, end: geomEnd,
		tris: res.TrianglesIn, cumBefore: g.trisDone,
	})
	g.trisDone += res.TrianglesIn

	if opts.RecordTiming {
		g.stats.PerDraw = append(g.stats.PerDraw, DrawTiming{
			DrawID:     p.id,
			Triangles:  res.TrianglesIn,
			GeomCycles: geomCycles,
			PipeCycles: geomCycles + fragCycles,
		})
	}

	if g.tr != nil {
		g.cumFragsGen += int64(res.FragsGenerated)
		name := fmt.Sprintf("draw %d", p.id)
		// The shared "draw" arg links the two stage spans of one draw so the
		// causal graph can add the geometry→fragment pipeline edge.
		g.tr.Span(g.trGeom, name, geomStart, geomCycles,
			obs.CatArg(obs.CatGeometry),
			obs.Arg{Key: "draw", Val: int64(p.id)},
			obs.Arg{Key: "triangles", Val: int64(res.TrianglesIn)},
			obs.Arg{Key: "vertices", Val: int64(res.VerticesShaded)})
		g.tr.Span(g.trFrag, name, fragStart, fragCycles,
			obs.CatArg(obs.CatRaster),
			obs.Arg{Key: "draw", Val: int64(p.id)},
			obs.Arg{Key: "frags_generated", Val: int64(res.FragsGenerated)},
			obs.Arg{Key: "frags_shaded", Val: int64(res.FragsShaded)})
		if culled := res.FragsEarlyTested - res.FragsEarlyPassed; culled > 0 {
			g.tr.Instant(g.trFrag, "early-z cull", fragStart,
				obs.Arg{Key: "culled", Val: int64(culled)})
		}
	}

	ev := &p.ev
	if opts.OnGeomDone != nil {
		g.eng.AtCall(geomEnd, (*geomFire)(ev))
	}
	if opts.OnDone != nil {
		g.eng.AtCall(fragEnd, (*doneFire)(ev))
	}
	return &ev.res
}

// SubmitDraw schedules a draw command for execution. The draw is functionally
// rasterized immediately (submission order is execution order); its timing
// occupies the geometry and fragment stages behind previously submitted
// work. Completion callbacks fire at the simulated completion times.
// SubmitDraw is exactly PrepareDraw followed by CommitDraw.
func (g *GPU) SubmitDraw(d primitive.DrawCommand, view, proj vecmath.Mat4, opts DrawOpts) *raster.DrawResult {
	return g.CommitDraw(g.PrepareDraw(d, view, proj, opts))
}

// SubmitGeometry schedules geometry-only processing of a draw (vertex
// shading + primitive assembly, no rasterization) — the transforming half
// of sort-middle rendering. The work occupies the geometry stage and counts
// toward the GPU's processed-triangle progress.
func (g *GPU) SubmitGeometry(verts, tris int, vertexCost float64, onDone func()) {
	cycles := sim.Cycle(g.costs.GeomCycles(verts, tris, vertexCost))
	start := max(g.eng.Now(), g.geomFree)
	end := start + cycles
	g.geomFree = end
	g.stats.GeomBusy += cycles
	g.segments = append(g.segments, geomSegment{
		start: start, end: end, tris: tris, cumBefore: g.trisDone,
	})
	g.trisDone += tris
	if g.tr != nil {
		g.tr.Span(g.trGeom, "geometry", start, cycles,
			obs.CatArg(obs.CatGeometry),
			obs.Arg{Key: "triangles", Val: int64(tris)})
	}
	if onDone != nil {
		g.eng.At(end, onDone)
	}
}

// SubmitProjection schedules a projection-only pre-pass over tris triangles
// (sort-first phase 1). It occupies the geometry stage.
func (g *GPU) SubmitProjection(tris int, onDone func()) {
	cycles := sim.Cycle(float64(tris) * g.costs.ProjCyclesPerTriangle)
	start := max(g.eng.Now(), g.geomFree)
	end := start + cycles
	g.geomFree = end
	g.stats.ProjBusy += cycles
	if g.tr != nil {
		g.tr.Span(g.trGeom, "projection", start, cycles,
			obs.CatArg(obs.CatGeometry),
			obs.Arg{Key: "triangles", Val: int64(tris)})
	}
	if onDone != nil {
		g.eng.At(end, onDone)
	}
}

// SubmitMerge schedules a composition merge of the given pixel count on the
// ROPs (fragment stage). apply, if non-nil, performs the functional merge
// and runs immediately (submission order defines merge order); onDone fires
// when the merge's cycles drain.
func (g *GPU) SubmitMerge(pixels int, apply func(), onDone func()) {
	if apply != nil {
		apply()
	}
	cycles := sim.Cycle(float64(pixels) * g.costs.CyclesPerMergePixel)
	start := max(g.eng.Now(), g.fragFree)
	end := start + cycles
	g.fragFree = end
	g.stats.MergeBusy += cycles
	if g.tr != nil {
		g.tr.Span(g.trFrag, "merge", start, cycles,
			obs.CatArg(obs.CatComposition),
			obs.Arg{Key: "pixels", Val: int64(pixels)})
	}
	if onDone != nil {
		g.eng.At(end, onDone)
	}
}

// ProcessedTriangles reports how many triangles the geometry stage has
// finished by cycle t, quantized down to a multiple of quantum (the draw
// scheduler's update interval — coarser intervals mean staler information,
// paper Fig. 18). quantum <= 1 reports exact progress.
func (g *GPU) ProcessedTriangles(t sim.Cycle, quantum int) int {
	done := 0
	for i := len(g.segments) - 1; i >= 0; i-- {
		s := g.segments[i]
		if t >= s.end {
			done = s.cumBefore + s.tris
			break
		}
		if t <= s.start {
			continue
		}
		frac := float64(t-s.start) / float64(s.end-s.start)
		done = s.cumBefore + int(frac*float64(s.tris))
		break
	}
	if quantum > 1 {
		done = done / quantum * quantum
	}
	return done
}

// ScheduledTriangles returns the total triangles submitted to this GPU's
// geometry stage so far.
func (g *GPU) ScheduledTriangles() int { return g.trisDone }

// Stall pushes both pipeline stages back by the given cycles, modeling an
// injected hiccup (thermal throttle, preemption, ECC scrub). Stall time is
// recorded in Stats.StallCycles, not as busy time. The hook costs nothing
// when unused: no per-draw state is consulted on the submission hot paths.
func (g *GPU) Stall(cycles sim.Cycle) {
	if cycles <= 0 {
		return
	}
	now := g.eng.Now()
	geomStart := max(now, g.geomFree)
	fragStart := max(now, g.fragFree)
	g.geomFree = geomStart + cycles
	g.fragFree = fragStart + cycles
	g.stats.StallCycles += cycles
	if g.tr != nil {
		g.tr.Span(g.trGeom, "stall", geomStart, cycles, obs.CatArg(obs.CatQueueing))
		g.tr.Span(g.trFrag, "stall", fragStart, cycles, obs.CatArg(obs.CatQueueing))
	}
}

// Fail declares the GPU failed (fail-stop) at the current cycle. The model
// is detection-at-checkpoint: work already in flight is treated as flushed,
// and schemes with degraded-mode support reassign the GPU's screen tiles or
// frames to survivors at their next checkpoint. Fail is idempotent.
func (g *GPU) Fail() {
	if g.failed {
		return
	}
	g.failed = true
	g.failedAt = g.eng.Now()
	if g.tr != nil {
		g.tr.Instant(g.trGeom, "gpu failed", g.failedAt)
	}
}

// DropTargets resets every render target to the cleared state, modeling the
// loss of a failed GPU's local memory. Recovery calls this before survivors
// re-render the reassigned tiles so stale content can never be scanned out.
func (g *GPU) DropTargets() {
	for _, fb := range g.targets {
		fb.Reset()
	}
}

// Failed reports whether the GPU has been declared failed.
func (g *GPU) Failed() bool { return g.failed }

// FailedAt returns the cycle Fail was called (0 if the GPU is healthy).
func (g *GPU) FailedAt() sim.Cycle { return g.failedAt }

// ResetPipeline clears pipeline bookkeeping between frames while keeping
// functional state and statistics. It returns an error if work is still in
// flight.
func (g *GPU) ResetPipeline() error {
	if g.eng.Now() < g.BusyUntil() {
		return fmt.Errorf("gpu %d: ResetPipeline with work in flight (busy until cycle %d, now %d)",
			g.ID, g.BusyUntil(), g.eng.Now())
	}
	g.fragStarts = g.fragStarts[:0]
	g.segments = g.segments[:0]
	return nil
}
