package sfr

import (
	"chopin/internal/exec"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// PostGeomBytesPerTriangle is the size of one transformed primitive in the
// sort-middle exchange: three shaded vertices with clip-space position,
// colour and texture coordinates plus assembly metadata. The large size of
// post-geometry attributes is exactly why the paper notes sort-middle "is
// rarely adopted" (Section III-A).
const PostGeomBytesPerTriangle = 288

// SortMiddle completes the Molnar sorting taxonomy the paper classifies SFR
// schemes by (Section III-A): geometry processing is split evenly across
// GPUs (no redundancy, like sort-last), but the *transformed* primitives
// are then redistributed to the owners of the screen tiles they cover,
// before rasterization. Unlike sort-first only one GPU transforms each
// primitive; unlike sort-last no image composition is needed. The cost is
// the exchange itself: post-geometry attributes are an order of magnitude
// larger than the primitive IDs GPUpd ships, so the scheme is
// bandwidth-bound — the reason the paper dismisses it.
type SortMiddle struct{}

// Name implements Scheme.
func (SortMiddle) Name() string { return "SortMiddle" }

// Run implements Scheme.
func (SortMiddle) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	r := exec.New("SortMiddle", sys, fr)
	r.OwnTiles()
	eng := sys.Eng
	n := sys.Cfg.NumGPUs

	// Destination owners per triangle, shared with the GPUpd approach.
	destMask := destMasks(sys, fr)

	r.RunSegments(func(seg exec.Segment, done func()) {
		segStart := eng.Now()

		var tGeomDone, tExchangeDone sim.Cycle

		// Phase 2: rasterize received primitives, in original draw order,
		// each GPU restricted to its owned tiles. Each draw is set up once;
		// every GPU it was sent to rasterizes the triangles it received.
		bar := r.TracedBarrier("segment draws", func() {
			r.AttributePhases(segStart, []exec.Mark{
				{Tag: stats.PhaseProjection, At: tGeomDone},
				{Tag: stats.PhaseDistribution, At: tExchangeDone},
			}, stats.PhaseNormal)
			done()
		})
		opts := gpu.DrawOpts{
			GeomFree: true, // vertices arrive already transformed
			OnDone:   func(*raster.DrawResult) { bar.Done() },
		}
		var reqs []multigpu.DrawReq
		rasterize := func() {
			for i := seg.Start; i < seg.End; i++ {
				d := &fr.Draws[i]
				reqs = selectionReqs(reqs[:0], destMask(i), 0, len(d.Tris), n, opts)
				if len(reqs) == 0 {
					continue
				}
				bar.Add(len(reqs))
				sys.BroadcastDraw(d, fr.View, fr.Proj, reqs)
			}
			// If everything in the segment was clipped away the barrier is
			// already drained; finish from a fresh event.
			bar.SealDeferred(eng)
		}

		// Each segment chains three barriers. The exchange barrier counts
		// the primitive transfers; the geometry barrier seals it once every
		// draw is transformed, since only then are all transfers
		// registered; the exchange's release rasterizes into bar.
		exchange := exec.NewBarrier(func() {
			tExchangeDone = eng.Now()
			rasterize()
		})
		geometry := exec.NewBarrier(func() {
			tGeomDone = eng.Now()
			exchange.Seal()
		})

		// Phase 1: each draw is transformed by one GPU (round-robin), and
		// the transformed primitives ship to their tile owners.
		for i := seg.Start; i < seg.End; i++ {
			d := &fr.Draws[i]
			src := (i - seg.Start) % n
			counts := make([]int64, n)
			for _, m := range destMask(i) {
				for dst := 0; dst < n; dst++ {
					if m&(1<<uint(dst)) != 0 && dst != src {
						counts[dst]++
					}
				}
			}
			geometry.Add(1)
			sys.GPUs[src].SubmitGeometry(d.VertexCount(), d.TriangleCount(), d.VertexCost, func() {
				for dst := 0; dst < n; dst++ {
					if counts[dst] == 0 {
						continue
					}
					exchange.Add(1)
					sys.Fabric.Send(src, dst, counts[dst]*PostGeomBytesPerTriangle,
						interconnect.ClassPrimDist, exchange.Done)
				}
				geometry.Done()
			})
		}
		geometry.Seal()
	})
	return finishRun(r, sys, fr)
}
