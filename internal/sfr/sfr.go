// Package sfr implements the split-frame rendering schemes the paper
// compares (Sections III–IV):
//
//   - [Duplication]: the conventional GPU sort-first baseline, where every
//     GPU redundantly geometry-processes all primitives and rasterizes only
//     its own screen tiles;
//   - [GPUpd]: the prior state of the art (Kim et al., MICRO 2017) — a
//     cooperative projection pre-pass followed by sequential inter-GPU
//     primitive distribution, with the batching and runahead optimizations,
//     plus an idealized variant;
//   - [CHOPIN]: the paper's contribution — draw commands distributed across
//     GPUs and sub-images composed in parallel, with the draw-command
//     scheduler, the image-composition scheduler, and an idealized variant.
//
// Every scheme runs the same execution-driven simulation: real draw
// commands rasterized against real per-GPU framebuffers, with cycle costs
// and inter-GPU traffic modelled by packages gpu and interconnect. A
// scheme's final image (System.AssembleImage) can therefore be compared
// pixel-by-pixel against the single-GPU reference.
//
// Schemes run on the shared frame-execution runtime of package exec: the
// segment walk, completion barriers, phase accounting, and render-target
// broadcasts are declared through exec, so each scheme's file contains only
// its distinctive pipeline orchestration.
package sfr

import (
	"fmt"

	"chopin/internal/check"
	"chopin/internal/exec"
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/stats"
)

// Scheme is a split-frame rendering implementation.
type Scheme interface {
	// Name identifies the scheme in reports ("Duplication", "GPUpd", ...).
	Name() string
	// Run simulates one frame on the system and returns its statistics.
	// The system must be freshly constructed for the frame's resolution.
	// On a fatal simulation error (watchdog trip, cancellation, lost
	// transfer, unsupported degraded mode) the returned statistics are
	// partial and the error is non-nil.
	Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error)
}

// An UnsupportedDegradedError reports that a GPU fail-stopped during a frame
// under a scheme with no degraded-mode recovery: the frame's image is
// incomplete and cannot be repaired. CHOPIN and AFR recover instead of
// returning this.
type UnsupportedDegradedError struct {
	// Scheme is the scheme that cannot recover.
	Scheme string
	// Failed lists the fail-stopped GPUs, ascending.
	Failed []int
}

func (e *UnsupportedDegradedError) Error() string {
	return fmt.Sprintf("sfr: scheme %s has no degraded-mode recovery for failed GPU(s) %v",
		e.Scheme, e.Failed)
}

// ReferenceImages renders the frame functionally on a single GPU and
// returns the resulting buffer per render target — the golden images
// distributed schemes must reproduce.
func ReferenceImages(fr *primitive.Frame, cfg raster.Config) map[int]*framebuffer.Buffer {
	targets := map[int]*framebuffer.Buffer{}
	// Frame dimensions were validated when the system was built.
	rend := raster.New(framebuffer.MustNew(fr.Width, fr.Height), cfg)
	rend.SetTextures(fr.Textures)
	get := func(rt int) *framebuffer.Buffer {
		fb, ok := targets[rt]
		if !ok {
			fb = framebuffer.MustNew(fr.Width, fr.Height)
			targets[rt] = fb
		}
		return fb
	}
	// Seed target 0 so the loop below can switch freely.
	targets[0] = rend.Target()
	for _, d := range fr.Draws {
		// All targets share the frame's dimensions; the switch cannot fail.
		_ = rend.SetTarget(get(d.State.RenderTarget))
		rend.Draw(d, fr.View, fr.Proj)
	}
	return targets
}

// finishStats captures per-GPU summaries and traffic into st at the end of
// a run. On verified systems it additionally closes out the invariant
// checker: fabric conservation, and composition order-independence of every
// render target against the sequential single-GPU reference.
func finishStats(st *stats.FrameStats, sys *multigpu.System, fr *primitive.Frame) {
	sys.FinishTrace()
	for _, g := range sys.GPUs {
		st.CaptureGPU(g)
	}
	fs := sys.Fabric.Stats()
	st.CompositionBytes = fs.BytesFor(interconnect.ClassComposition)
	st.PrimDistBytes = fs.BytesFor(interconnect.ClassPrimDist)
	st.SyncBytes = fs.BytesFor(interconnect.ClassSync)
	st.ControlBytes = fs.BytesFor(interconnect.ClassControl)
	fc := fs.TotalFaults()
	st.Faults = stats.FaultStats{
		Drops: fc.Drops, Corrupts: fc.Corrupts, Duplicates: fc.Duplicates,
		Delays: fc.Delays, Retries: fc.Retries, Timeouts: fc.Timeouts, Lost: fc.Lost,
	}
	st.GPUsFailed = len(sys.Failed())
	st.RecoveryCycles = st.Phase(stats.PhaseRecovery)
	st.LinksDowned = int64(len(sys.Fabric.DownedLinks()))
	st.Reroutes = sys.Fabric.RerouteCount()
	st.Unroutable = sys.Fabric.UnroutableCount()
	if lt := sys.Fabric.LinkTelemetry(); lt != nil {
		s := lt.Summarize()
		fb := &stats.FabricStats{
			Links:        s.Links,
			ActiveLinks:  s.ActiveLinks,
			Transfers:    s.Transfers,
			MaxLink:      s.MaxLink,
			MaxLinkBusy:  s.MaxLinkBusy,
			MeanHops:     s.MeanHops,
			LatencyP50:   s.LatencyP50,
			LatencyP90:   s.LatencyP90,
			LatencyP99:   s.LatencyP99,
			QueuedCycles: s.QueuedCycles,
		}
		if st.TotalCycles > 0 {
			fb.MaxLinkUtil = float64(s.MaxLinkBusy) / float64(st.TotalCycles)
			fb.LinkUtil = make([]float64, len(s.LinkBusy))
			for l, b := range s.LinkBusy {
				fb.LinkUtil[l] = float64(b) / float64(st.TotalCycles)
			}
		}
		st.Fabric = fb
	}

	if ck := sys.Check; ck != nil {
		ck.VerifyConservation()
		if fr != nil {
			for rt, ref := range ReferenceImages(fr, sys.Cfg.Raster) {
				name := fmt.Sprintf("%s rt%d", st.Scheme, rt)
				ck.VerifyImage(name, sys.AssembleImage(rt), ref, check.DefaultImageEps)
			}
		}
		st.Violations = ck.Violations()
	}
}

// finishRun is the common tail of a scheme without degraded-mode recovery:
// drain the engine, capture statistics, and surface the frame's fatal error —
// from the runtime, the fabric, or a GPU failure the scheme cannot absorb.
func finishRun(r *exec.Runtime, sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	err := r.Run()
	finishStats(r.St, sys, fr)
	if err == nil {
		err = sys.Fabric.Err()
	}
	if err == nil {
		if failed := sys.Failed(); len(failed) > 0 {
			err = &UnsupportedDegradedError{Scheme: r.St.Scheme, Failed: failed}
		}
	}
	return r.St, err
}
