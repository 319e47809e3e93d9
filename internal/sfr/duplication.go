package sfr

import (
	"chopin/internal/exec"
	"chopin/internal/gpu"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/stats"
)

// Duplication is the conventional GPU sort-first SFR baseline (paper
// Section III-A): every draw command is issued to every GPU, each GPU
// geometry-processes all primitives, and the raster stage drops fragments
// outside the GPU's owned screen tiles. No primitive exchange is needed,
// but the geometry work is fully redundant — the scalability wall of
// paper Fig. 2.
type Duplication struct{}

// Name implements Scheme.
func (Duplication) Name() string { return "Duplication" }

// Run implements Scheme.
func (Duplication) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	r := exec.New("Duplication", sys, fr)
	r.OwnTiles()
	n := sys.Cfg.NumGPUs

	// The all-GPU broadcast goes through BroadcastDraw so each draw is set
	// up once on the host for all N GPUs, the dominant cost of this scheme;
	// every observable equals a per-GPU SubmitDraw loop.
	reqs := make([]multigpu.DrawReq, n)
	r.RunSegments(func(seg exec.Segment, done func()) {
		phase := r.StartPhase(stats.PhaseNormal)
		bar := r.TracedBarrier("segment draws", func() {
			phase.Stop()
			done()
		})
		bar.Add((seg.End - seg.Start) * n)
		bar.Seal()
		r.IssueDraws(seg.Start, seg.End, func(i int) {
			for g := 0; g < n; g++ {
				reqs[g] = multigpu.DrawReq{GPU: g, Opts: gpu.DrawOpts{
					RecordTiming: sys.Cfg.RecordPerDraw && g == 0,
					OnDone:       func(*raster.DrawResult) { bar.Done() },
				}}
			}
			sys.BroadcastDraw(&fr.Draws[i], fr.View, fr.Proj, reqs)
		})
	})
	return finishRun(r, sys, fr)
}
