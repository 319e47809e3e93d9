package sfr

import (
	"fmt"

	"chopin/internal/colorspace"
	"chopin/internal/exec"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
)

// SequenceStats reports a multi-frame run: the per-frame latencies and
// display times that distinguish average frame rate from instantaneous
// frame rate (the micro-stuttering discussion of the paper's introduction).
type SequenceStats struct {
	// Scheme identifies the run.
	Scheme string
	// IssueStart[i] is when frame i's first draw was submitted.
	IssueStart []sim.Cycle
	// Complete[i] is when frame i finished rendering.
	Complete []sim.Cycle
	// Display[i] is when frame i reached the screen (in order: a frame
	// cannot display before its predecessor).
	Display []sim.Cycle
	// TotalCycles is when the last frame displayed.
	TotalCycles sim.Cycle
	// FrameGPU[i] is the GPU that rendered frame i — after failover, the
	// surviving GPU that re-rendered it (AFR only; nil for SFR sequences).
	FrameGPU []int
	// GPUsFailed counts GPUs that fail-stopped during the run;
	// FramesReissued counts frames re-rendered on a survivor because their
	// renderer failed mid-frame.
	GPUsFailed     int
	FramesReissued int
}

// Frames returns the sequence length.
func (s *SequenceStats) Frames() int { return len(s.Complete) }

// AvgFrameInterval returns the mean display-to-display gap — the inverse of
// the average frame rate.
func (s *SequenceStats) AvgFrameInterval() float64 {
	if len(s.Display) < 2 {
		return float64(s.TotalCycles)
	}
	return float64(s.Display[len(s.Display)-1]-s.Display[0]) / float64(len(s.Display)-1)
}

// MaxFrameInterval returns the worst display-to-display gap — the inverse
// of the worst instantaneous frame rate (micro-stutter).
func (s *SequenceStats) MaxFrameInterval() sim.Cycle {
	var worst sim.Cycle
	for i := 1; i < len(s.Display); i++ {
		if gap := s.Display[i] - s.Display[i-1]; gap > worst {
			worst = gap
		}
	}
	return worst
}

// AvgLatency returns the mean issue-to-complete latency per frame.
func (s *SequenceStats) AvgLatency() float64 {
	if len(s.Complete) == 0 {
		return 0
	}
	var sum sim.Cycle
	for i := range s.Complete {
		sum += s.Complete[i] - s.IssueStart[i]
	}
	return float64(sum) / float64(len(s.Complete))
}

// RunAFR simulates alternate frame rendering: frame i is rendered entirely
// by GPU i mod N. The CPU submits frames one at a time (a frame's draws are
// issued back-to-back at the driver rate), so successive frames pipeline
// across GPUs. AFR needs no inter-GPU synchronization at all — but a
// frame's latency is always a full single-GPU render, and display intervals
// bunch up: better average frame rate, no better instantaneous frame rate
// (paper Section I).
//
// AFR recovers from GPU fail-stop naturally: frames not yet issued route to
// a surviving GPU at issue time, and a frame in flight on the failed GPU is
// re-rendered from scratch on a survivor (the frame's state is just its own
// command stream). SequenceStats records the failover activity.
func RunAFR(sys *multigpu.System, frames []*primitive.Frame) (*SequenceStats, error) {
	st := &SequenceStats{
		Scheme:     "AFR",
		IssueStart: make([]sim.Cycle, len(frames)),
		Complete:   make([]sim.Cycle, len(frames)),
		Display:    make([]sim.Cycle, len(frames)),
		FrameGPU:   make([]int, len(frames)),
	}
	if len(frames) == 0 {
		return st, nil
	}
	eng := sys.Eng
	n := sys.Cfg.NumGPUs
	driver := multigpu.DriverCyclesPerDraw
	for _, gp := range sys.GPUs {
		_ = gp.SetOwnership(nil) // AFR renders whole frames per GPU
		gp.SetTextures(frames[0].Textures)
	}

	var failErr error
	done := make([]bool, len(frames))
	issued := make([]bool, len(frames))
	gen := make([]int, len(frames)) // reissue generation; stale completions are ignored

	pickAlive := func(prefer int) int {
		for off := 0; off < n; off++ {
			if g := (prefer + off) % n; sys.Alive(g) {
				return g
			}
		}
		return -1
	}

	// render issues frame fi's full command stream on GPU g, starting from a
	// cleared framebuffer (also the re-render path after a failover).
	render := func(fi, g int) {
		fr := frames[fi]
		st.FrameGPU[fi] = g
		issued[fi] = true
		if len(fr.Draws) == 0 {
			// Nothing to render: Complete keeps its zero value.
			done[fi] = true
			return
		}
		myGen := gen[fi]
		gp := sys.GPUs[g]
		bar := exec.NewBarrier(func() {
			if gen[fi] != myGen {
				return // superseded by a failover re-render
			}
			done[fi] = true
			st.Complete[fi] = eng.Now()
		})
		bar.Add(len(fr.Draws))
		bar.Seal()
		gp.Target(0).Clear(colorspace.Transparent, framebuffer.ClearDepth)
		// Draws issue back-to-back at the driver rate.
		for i := range fr.Draws {
			eng.After(sim.Cycle(i)*driver, func() {
				gp.SubmitDraw(fr.Draws[i], fr.View, fr.Proj, gpu.DrawOpts{
					OnDone: func(*raster.DrawResult) { bar.Done() },
				})
			})
		}
	}

	sys.OnGPUFail(func(g int) {
		st.GPUsFailed++
		for fi := range frames {
			if !issued[fi] || done[fi] || st.FrameGPU[fi] != g {
				continue
			}
			// The frame in flight on the failed GPU is lost; re-render it on
			// a survivor.
			target := pickAlive((g + 1) % n)
			if target < 0 {
				if failErr == nil {
					failErr = fmt.Errorf("sfr: all %d GPUs failed; cannot re-render frame %d", n, fi)
				}
				eng.Halt()
				return
			}
			gen[fi]++
			st.FramesReissued++
			fi := fi
			eng.After(0, func() { render(fi, target) })
		}
	})

	issue := sim.Cycle(0)
	for fi, fr := range frames {
		fi := fi
		st.IssueStart[fi] = issue
		eng.At(issue, func() {
			// Route to a live GPU at issue time: the preferred round-robin
			// GPU may have failed since the schedule was laid out.
			g := pickAlive(fi % n)
			if g < 0 {
				if failErr == nil {
					failErr = fmt.Errorf("sfr: all %d GPUs failed; cannot issue frame %d", n, fi)
				}
				eng.Halt()
				return
			}
			render(fi, g)
		})
		// The CPU can begin submitting the next frame once this frame's
		// command stream has been issued.
		issue += sim.Cycle(len(fr.Draws)) * driver
	}
	eng.Run()

	// Frames display in order.
	var prev sim.Cycle
	for i := range st.Complete {
		d := st.Complete[i]
		if d < prev {
			d = prev
		}
		st.Display[i] = d
		prev = d
	}
	st.TotalCycles = prev
	if failErr == nil && eng.Canceled() {
		failErr = &exec.CanceledError{At: eng.Now()}
	}
	if failErr == nil {
		failErr = sys.Fabric.Err()
	}
	return st, failErr
}

// RunSFRSequence renders the frames one after another under any
// single-frame SFR scheme, accumulating the per-frame times: SFR's frame
// latency equals its frame interval, so instantaneous and average frame
// rates coincide. It stops at the first frame whose simulation fails, or
// whose verified run (multigpu.Config.Verify) reports invariant violations,
// returning the partial sequence alongside the error.
func RunSFRSequence(cfg multigpu.Config, scheme Scheme, frames []*primitive.Frame) (*SequenceStats, error) {
	st := &SequenceStats{
		Scheme:     scheme.Name(),
		IssueStart: make([]sim.Cycle, len(frames)),
		Complete:   make([]sim.Cycle, len(frames)),
		Display:    make([]sim.Cycle, len(frames)),
	}
	var clock sim.Cycle
	for i, fr := range frames {
		sys, err := multigpu.New(cfg, fr.Width, fr.Height)
		if err != nil {
			return st, err
		}
		fs, err := scheme.Run(sys, fr)
		if err != nil {
			return st, fmt.Errorf("frame %d: %w", i, err)
		}
		if len(fs.Violations) > 0 {
			return st, fmt.Errorf("frame %d: %d invariant violation(s): %s",
				i, len(fs.Violations), fs.Violations[0])
		}
		st.IssueStart[i] = clock
		clock += fs.TotalCycles
		st.Complete[i] = clock
		st.Display[i] = clock
	}
	st.TotalCycles = clock
	return st, nil
}
