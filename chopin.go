// Package chopin is a from-scratch reproduction of CHOPIN — "Scalable
// Graphics Rendering in Multi-GPU Systems via Parallel Image Composition"
// (Ren and Lis, HPCA 2021) — as a reusable Go library.
//
// The library contains a complete execution-driven, cycle-level multi-GPU
// rendering simulator: a software graphics pipeline (vertex shading,
// rasterization, early/late depth testing, blending), an inter-GPU link
// fabric with bandwidth/latency/port contention, synthetic game-frame
// workloads matching the paper's Table III, three split-frame rendering
// schemes (primitive duplication, GPUpd, and CHOPIN itself with its
// draw-command and image-composition schedulers), a standalone parallel
// image-composition library (direct-send, binary-swap, radix-k), and
// runners that regenerate every table and figure in the paper's evaluation.
//
// # Quick start
//
//	fr, _ := chopin.GenerateTrace("cry", 0.25)
//	base, _ := chopin.Simulate(chopin.Config{Scheme: chopin.SchemeDuplication}, fr)
//	fast, _ := chopin.Simulate(chopin.Config{Scheme: chopin.SchemeCHOPIN}, fr)
//	fmt.Printf("CHOPIN speedup: %.2fx\n", fast.SpeedupOver(base))
//
// Simulations are deterministic: the same configuration and trace always
// produce bit-identical cycle counts and images. A distributed run's final
// image equals the single-GPU reference image, which the test suite checks
// pixel-by-pixel.
package chopin

import (
	"fmt"

	"chopin/internal/core"
	"chopin/internal/framebuffer"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/sfr"
	"chopin/internal/sim"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// Frame is a single-frame rendering workload: an ordered draw-command
// stream plus camera and screen configuration.
type Frame = primitive.Frame

// Image is a rendered framebuffer (colour + depth planes with
// 64×64-pixel tile granularity).
type Image = framebuffer.Buffer

// Scheme selects a split-frame rendering implementation.
type Scheme string

// The available rendering schemes.
const (
	// SchemeDuplication is conventional SFR: every GPU geometry-processes
	// all primitives and rasterizes only its own screen tiles.
	SchemeDuplication Scheme = "duplication"
	// SchemeGPUpd is the prior state of the art: cooperative primitive
	// projection followed by sequential order-preserving distribution.
	SchemeGPUpd Scheme = "gpupd"
	// SchemeCHOPIN is the paper's contribution with both schedulers
	// enabled.
	SchemeCHOPIN Scheme = "chopin"
	// SchemeCHOPINNaive is CHOPIN without the image-composition scheduler
	// (naive direct-send exchange).
	SchemeCHOPINNaive Scheme = "chopin-naive"
	// SchemeCHOPINRoundRobin is CHOPIN with naive round-robin draw
	// scheduling instead of the least-remaining-triangles scheduler.
	SchemeCHOPINRoundRobin Scheme = "chopin-rr"
	// SchemeSortMiddle is sort-middle SFR: split geometry processing, then
	// redistribute transformed primitives to tile owners (the
	// taxonomy-completing scheme the paper dismisses as bandwidth-bound).
	SchemeSortMiddle Scheme = "sort-middle"
)

// Config selects the simulated system. The zero value means: CHOPIN on the
// paper's 8-GPU Table II system with real links.
type Config struct {
	// Scheme is the rendering scheme (default SchemeCHOPIN).
	Scheme Scheme
	// GPUs is the GPU count (default 8).
	GPUs int
	// IdealLinks removes all link bandwidth/latency constraints (the
	// paper's Ideal* variants).
	IdealLinks bool
	// BandwidthGBps overrides the per-link bandwidth (default 64).
	BandwidthGBps float64
	// LatencyCycles overrides the link latency (default 200).
	LatencyCycles int
	// GroupThreshold overrides the composition-group primitive threshold
	// (default 4096, Fig. 7/22). It is denominated in trace triangles; for
	// scaled traces pass a proportionally scaled value.
	GroupThreshold int
	// UpdateInterval overrides the draw-scheduler status-update interval in
	// triangles (default 1, Fig. 18).
	UpdateInterval int
	// CustomScheduler plugs a user-defined draw-command scheduler into the
	// CHOPIN schemes (see package documentation for the interface).
	CustomScheduler DrawScheduler
	// Verify runs the simulation with the runtime invariant checker
	// attached: composition order-independence (the distributed image must
	// equal the sequential single-GPU reference pixel-by-pixel), fragment
	// conservation across the inter-GPU fabric, per-pixel depth-test
	// monotonicity at every composition merge, and event-time monotonicity
	// in the discrete-event engine. Violations are reported through
	// Report.Violations and as an error from Simulate. Verified runs are
	// slower (the reference image is re-rendered and merges are snapshotted).
	Verify bool
}

// DrawScheduler decides which GPU executes each draw command; implement it
// to experiment with custom CHOPIN scheduling policies.
type DrawScheduler = core.DrawScheduler

// Report is the outcome of simulating one frame.
type Report struct {
	// Scheme and GPUs echo the configuration.
	Scheme Scheme
	GPUs   int
	// Cycles is the frame's simulated execution time in GPU cycles.
	Cycles int64
	// Stats exposes the full measurement record (phases, traffic,
	// fragment counters, per-GPU summaries).
	Stats *stats.FrameStats

	sys *multigpu.System
}

// SpeedupOver returns base.Cycles / r.Cycles.
func (r *Report) SpeedupOver(base *Report) float64 {
	return float64(base.Cycles) / float64(r.Cycles)
}

// Image assembles the display image (each GPU's owned tiles of render
// target 0).
func (r *Report) Image() *Image { return r.sys.AssembleImage(0) }

// Benchmarks returns the names of the built-in Table III workloads.
func Benchmarks() []string { return trace.Names() }

// GenerateTrace synthesizes the named benchmark's single-frame trace at the
// given scale (1.0 reproduces the paper's draw/triangle counts; smaller
// values shrink the workload proportionally for quick runs).
func GenerateTrace(name string, scale float64) (*Frame, error) {
	b, err := trace.ByName(name)
	if err != nil {
		return nil, err
	}
	return trace.Generate(b, scale), nil
}

// systemConfig converts a public Config to the internal system config.
func systemConfig(cfg Config) (multigpu.Config, sfr.Scheme, error) {
	mc := multigpu.DefaultConfig()
	if cfg.GPUs > 0 {
		mc.NumGPUs = cfg.GPUs
	}
	if cfg.IdealLinks {
		mc.Link.Ideal = true
	}
	if cfg.BandwidthGBps > 0 {
		mc.Link.BytesPerCycle = cfg.BandwidthGBps // GB/s at 1 GHz
	}
	if cfg.LatencyCycles > 0 {
		mc.Link.LatencyCycles = sim.Cycle(cfg.LatencyCycles)
	}
	if cfg.GroupThreshold > 0 {
		mc.GroupThreshold = cfg.GroupThreshold
	}
	if cfg.UpdateInterval > 0 {
		mc.SchedulerQuantum = cfg.UpdateInterval
	}
	mc.Verify = cfg.Verify
	var s sfr.Scheme
	switch cfg.Scheme {
	case SchemeDuplication:
		s = sfr.Duplication{}
	case SchemeGPUpd:
		s = sfr.GPUpd{}
	case SchemeCHOPIN, "":
		s = sfr.CHOPIN{Scheduler: cfg.CustomScheduler}
	case SchemeCHOPINNaive:
		mc.UseCompScheduler = false
		s = sfr.CHOPIN{Scheduler: cfg.CustomScheduler}
	case SchemeCHOPINRoundRobin:
		mc.UseCompScheduler = false
		s = sfr.CHOPIN{RoundRobin: true}
	case SchemeSortMiddle:
		s = sfr.SortMiddle{}
	default:
		return mc, nil, fmt.Errorf("chopin: unknown scheme %q", cfg.Scheme)
	}
	return mc, s, nil
}

// Simulate runs one frame under the configured scheme and returns its
// report. The frame is not modified and may be shared across simulations.
//
// With Config.Verify set, the run is validated by the invariant checker;
// if any invariant is violated the report is still returned (so the
// violations and statistics can be inspected) together with a non-nil error.
func Simulate(cfg Config, fr *Frame) (*Report, error) {
	mc, scheme, err := systemConfig(cfg)
	if err != nil {
		return nil, err
	}
	sys, err := multigpu.New(mc, fr.Width, fr.Height)
	if err != nil {
		return nil, err
	}
	st, err := scheme.Run(sys, fr)
	rep := &Report{
		Scheme: cfg.Scheme,
		GPUs:   mc.NumGPUs,
		Cycles: int64(st.TotalCycles),
		Stats:  st,
		sys:    sys,
	}
	if err != nil {
		return rep, err
	}
	if len(st.Violations) > 0 {
		return rep, fmt.Errorf("chopin: %d invariant violation(s) in verified %s run: %s",
			len(st.Violations), scheme.Name(), st.Violations[0])
	}
	return rep, nil
}

// Violations returns the invariant violations detected when the run was
// verified (Config.Verify). It is empty for unverified and clean runs.
func (r *Report) Violations() []string { return r.Stats.Violations }

// ReferenceImage renders the frame functionally on a single GPU — the
// golden image every distributed scheme must reproduce.
func ReferenceImage(fr *Frame) *Image {
	return sfr.ReferenceImages(fr, multigpu.DefaultConfig().Raster)[0]
}

// ScaledThreshold converts a paper triangle threshold (e.g. the 4096-
// primitive group threshold) to a scaled trace's proportional equivalent.
func ScaledThreshold(paperValue int, scale float64) int {
	return trace.ScaledThreshold(paperValue, scale)
}
