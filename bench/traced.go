package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/experiments"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sfr"
	"chopin/internal/sim"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	// better is "lower" or "higher".
	better string
}

// layerMetrics lists every metric a traced repetition reports, on every
// workload.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"trace.generate_ms", "ms", "lower"},
		{"multigpu.new_ms", "ms", "lower"},
		{"multigpu.new_alloc_mb", "MB", "lower"},
		{"multigpu.assemble_ms", "ms", "lower"},
		{"framebuffer.new_clear_us", "us", "lower"},
		{"framebuffer.bytes_per_px", "B/px", "lower"},
		{"framebuffer.dirty_tile_frac", "ratio", "lower"},
		{"raster.ns_per_frag", "ns", "lower"},
		{"raster.masked_ns_per_frag", "ns", "lower"},
		{"raster.alloc_b_per_draw", "B", "lower"},
		{"gpu.prepare_us_per_draw", "us", "lower"},
		{"gpu.commit_us_per_draw", "us", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.parallel_windows", "count", "higher"},
		{"sim.sequential_windows", "count", "lower"},
		{"interconnect.transfers", "count", "lower"},
		{"interconnect.max_link_util", "ratio", "lower"},
		{"interconnect.mean_hops", "hops", "lower"},
		{"interconnect.queued_kcycles", "kcycles", "lower"},
		{"interconnect.p99_latency_cycles", "cycles", "lower"},
		{"composite.depth_merge_ns_per_px", "ns", "lower"},
		{"composite.merge_rows_ns_per_px", "ns", "lower"},
		{"sfr.run_ms", "ms", "lower"},
		{"sfr.run_alloc_mb", "MB", "lower"},
		{"sfr.run_gc", "count", "lower"},
		{"experiments.sim_ms_p50", "ms", "lower"},
		{"experiments.sim_ms_p75", "ms", "lower"},
		{"experiments.sims", "count", "higher"},
	}
	for _, l := range hostLayers {
		ms = append(ms, layerMetric{"host_pct." + l, "%", "lower"})
	}
	return append(ms, layerMetric{"trace_overhead_pct", "%", "lower"})
}()

const mib = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// profiled runs body under the CPU profiler and stores the profile's layer
// shares in L as host_pct.<layer>.
func profiled(L map[string]float64, body func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	err := body()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return err
	}
	shares, err := p.layerShares()
	if err != nil {
		return err
	}
	for l, v := range shares {
		L["host_pct."+l] = v
	}
	return nil
}

// tracedRep renders the frame once under the CPU profiler with a timer
// around each layer call, then measures the remaining layers on the same
// trace.
func (f frameSpec) tracedRep(seed int64) (*repResult, error) {
	L := map[string]float64{}
	r := &repResult{Layers: L}
	var fr *primitive.Frame
	err := profiled(L, func() error {
		cpu0 := cpuTime()
		t0 := time.Now()
		var err error
		if fr, err = f.generate(seed); err != nil {
			return err
		}
		L["trace.generate_ms"] = ms(time.Since(t0))
		if err := f.timedRun(fr, L, r); err != nil {
			return err
		}
		r.BodyCPUS = (cpuTime() - cpu0).Seconds()
		r.SetupS = (L["trace.generate_ms"] + L["multigpu.new_ms"]) / 1e3
		L["experiments.sim_ms_p50"] = L["multigpu.new_ms"] + L["sfr.run_ms"]
		L["experiments.sim_ms_p75"] = L["experiments.sim_ms_p50"]
		L["experiments.sims"] = 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := f.layers(fr, r.Cycles, L); err != nil {
		return nil, err
	}
	return r, nil
}

// tracedRep runs the sweep once, single-worker so that the gaps between
// progress callbacks are per-simulation times, under the CPU profiler. It
// then measures the layers on the sweep's representative simulation.
func (s *sweep) tracedRep() (*repResult, error) {
	L := map[string]float64{}
	opt := s.opt
	opt.Workers = 1
	var mu sync.Mutex
	var done []time.Time
	opt.Progress = func(experiments.ProgressEvent) {
		mu.Lock()
		done = append(done, time.Now())
		mu.Unlock()
	}
	var r *repResult
	if err := profiled(L, func() error {
		var err error
		r, err = s.rep(opt)
		return err
	}); err != nil {
		return nil, err
	}
	L["trace.generate_ms"] = r.SetupS * 1e3
	r.Layers = L
	// The first gap also covers the sweep's own trace generation; drop it.
	var gaps []float64
	for i := 1; i < len(done); i++ {
		gaps = append(gaps, ms(done[i].Sub(done[i-1])))
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("%s: too few simulations to time", s.exp)
	}
	sum := summarize(gaps)
	L["experiments.sim_ms_p50"] = sum.Median
	L["experiments.sim_ms_p75"] = sum.Q3
	L["experiments.sims"] = float64(sum.N)

	fr, err := s.cell.generate(0)
	if err != nil {
		return nil, err
	}
	cell := &repResult{}
	if err := s.cell.timedRun(fr, L, cell); err != nil {
		return nil, err
	}
	if err := s.cell.layers(fr, cell.Cycles, L); err != nil {
		return nil, err
	}
	return r, nil
}

// timedRun builds the system and renders fr with a timer around each layer
// call, recording the frame's outputs in r.
func (f frameSpec) timedRun(fr *primitive.Frame, L map[string]float64, r *repResult) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	sys, err := multigpu.New(f.config(), fr.Width, fr.Height)
	if err != nil {
		return err
	}
	L["multigpu.new_ms"] = ms(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	L["multigpu.new_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib

	ms0 = ms1
	t0 = time.Now()
	st, err := sfr.CHOPIN{}.Run(sys, fr)
	if err != nil {
		return err
	}
	L["sfr.run_ms"] = ms(time.Since(t0))
	runtime.ReadMemStats(&ms1)
	L["sfr.run_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	L["sfr.run_gc"] = float64(ms1.NumGC - ms0.NumGC)
	L["sim.parallel_windows"] = float64(sys.Eng.ParallelWindows())
	L["sim.sequential_windows"] = float64(sys.Eng.SequentialWindows())

	t0 = time.Now()
	img := sys.AssembleImage(0)
	L["multigpu.assemble_ms"] = ms(time.Since(t0))

	dirty := 0
	for _, g := range sys.GPUs {
		dirty += len(g.Target(0).DirtyTiles())
	}
	L["framebuffer.dirty_tile_frac"] = float64(dirty) / float64(len(sys.GPUs)*sys.TileCount())

	r.Cycles = st.TotalCycles
	r.CompBytes = st.CompositionBytes
	r.Frags = int64(st.Raster.FragsGenerated)
	r.Checksum = img.Checksum()
	return nil
}

// eventCounter is a sim.Probe that counts dispatched events.
type eventCounter struct{ n int64 }

func (c *eventCounter) EventFired(sim.Cycle, int) { c.n++ }

// layers measures, on the trace fr, the layers timedRun cannot time from
// outside: it re-renders the frame with an event probe and fabric telemetry
// on, both observe-only (the re-run must reproduce wantCycles), and replays
// merges, draws and buffer allocation in isolation.
func (f frameSpec) layers(fr *primitive.Frame, wantCycles int64, L map[string]float64) error {
	// The timed run's system is garbage now; collect it before building a
	// second one, or the heap holds both.
	runtime.GC()
	debug.FreeOSMemory()

	cfg := f.config()
	cfg.FabricTelemetry = true
	sys, err := multigpu.New(cfg, fr.Width, fr.Height)
	if err != nil {
		return err
	}
	probe := &eventCounter{}
	// A probe makes the engine drain every window sequentially, which is why
	// the window counts come from the unprobed timed run.
	sys.Eng.SetProbe(probe)
	st, err := sfr.CHOPIN{}.Run(sys, fr)
	if err != nil {
		return err
	}
	if st.TotalCycles != wantCycles {
		return fmt.Errorf("observed re-run simulated %d cycles, the timed run %d", st.TotalCycles, wantCycles)
	}
	L["sim.events"] = float64(probe.n)
	fs := st.Fabric
	if fs == nil {
		return errors.New("fabric telemetry produced no digest")
	}
	L["interconnect.transfers"] = float64(fs.Transfers)
	L["interconnect.max_link_util"] = fs.MaxLinkUtil
	L["interconnect.mean_hops"] = fs.MeanHops
	L["interconnect.queued_kcycles"] = float64(fs.QueuedCycles) / 1e3
	L["interconnect.p99_latency_cycles"] = float64(fs.LatencyP99)

	if err := mergeReplay(sys, L); err != nil {
		return err
	}
	// Release the observed system before the replays allocate their own.
	runtime.GC()
	debug.FreeOSMemory()

	replayFramebuffer(fr, L)
	if err := replayRaster(fr, cfg, L); err != nil {
		return err
	}
	return replayGPU(fr, cfg, L)
}

// replays is how many times a sub-millisecond operation is repeated; the
// median repetition is reported.
const replays = 5

// medianTime returns the median duration of replays calls of fn.
func medianTime(fn func() time.Duration) time.Duration {
	ts := make([]float64, replays)
	for i := range ts {
		ts[i] = float64(fn())
	}
	return time.Duration(summarize(ts).Median)
}

// mergeReplay times the two composition merges on post-run render targets:
// GPU 0's target 0 absorbs the target of the GPU with the most dirty tiles,
// as a whole-tile DepthMerge (direct-send) and as a full-height
// DepthMergeRegion (the exchange-plan row merge).
func mergeReplay(sys *multigpu.System, L map[string]float64) error {
	dst := sys.GPUs[0].Target(0)
	src, most := dst, -1
	for _, g := range sys.GPUs[1:] {
		if n := len(g.Target(0).DirtyTiles()); n > most {
			src, most = g.Target(0), n
		}
	}
	if most <= 0 {
		return errors.New("no dirty tiles to merge")
	}
	var px int
	d := medianTime(func() time.Duration {
		work := dst.Clone()
		t0 := time.Now()
		px = composite.DepthMerge(work, src, colorspace.CmpLess, nil)
		return time.Since(t0)
	})
	L["composite.depth_merge_ns_per_px"] = float64(d) / float64(px)
	d = medianTime(func() time.Duration {
		work := dst.Clone()
		t0 := time.Now()
		px = composite.DepthMergeRegion(work, src, colorspace.CmpLess, 0, dst.Height(), nil)
		return time.Since(t0)
	})
	L["composite.merge_rows_ns_per_px"] = float64(d) / float64(px)
	return nil
}

// replayFramebuffer times one cleared framebuffer at the frame's resolution.
func replayFramebuffer(fr *primitive.Frame, L map[string]float64) {
	var bytes uint64
	d := medianTime(func() time.Duration {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		framebuffer.MustNew(fr.Width, fr.Height)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		bytes = ms1.TotalAlloc - ms0.TotalAlloc
		return d
	})
	L["framebuffer.new_clear_us"] = float64(d) / float64(time.Microsecond)
	L["framebuffer.bytes_per_px"] = float64(bytes) / float64(fr.Width*fr.Height)
}

// replayRaster draws the whole frame through one renderer, first owning
// every tile, then with GPU 0's ownership mask at the workload's GPU count.
func replayRaster(fr *primitive.Frame, cfg multigpu.Config, L map[string]float64) error {
	d, frags, alloc, err := drawAll(fr, cfg.Raster, nil)
	if err != nil {
		return err
	}
	L["raster.ns_per_frag"] = float64(d) / float64(frags)
	L["raster.alloc_b_per_draw"] = float64(alloc) / float64(len(fr.Draws))

	ts := framebuffer.TileSize
	mask := make([]bool, ((fr.Width+ts-1)/ts)*((fr.Height+ts-1)/ts))
	for t := range mask {
		mask[t] = framebuffer.OwnerOf(t, cfg.NumGPUs) == 0
	}
	d, frags, _, err = drawAll(fr, cfg.Raster, mask)
	if err != nil {
		return err
	}
	L["raster.masked_ns_per_frag"] = float64(d) / float64(frags)
	return nil
}

// drawAll renders every draw of fr, restricted to the tiles in own (nil
// owns all), and returns the time spent in Renderer.Draw, the fragments it
// generated and the bytes it allocated.
func drawAll(fr *primitive.Frame, rcfg raster.Config, own []bool) (time.Duration, int, uint64, error) {
	targets := map[int]*framebuffer.Buffer{}
	for _, d := range fr.Draws {
		if targets[d.State.RenderTarget] == nil {
			targets[d.State.RenderTarget] = framebuffer.MustNew(fr.Width, fr.Height)
		}
	}
	rend := raster.New(targets[fr.Draws[0].State.RenderTarget], rcfg)
	rend.SetTextures(fr.Textures)
	if err := rend.SetOwnership(own); err != nil {
		return 0, 0, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	frags := 0
	t0 := time.Now()
	for _, d := range fr.Draws {
		// Every target has the frame's dimensions; the switch cannot fail.
		_ = rend.SetTarget(targets[d.State.RenderTarget])
		frags += rend.Draw(d, fr.View, fr.Proj).FragsGenerated
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if frags == 0 {
		return 0, 0, 0, errors.New("raster replay generated no fragments")
	}
	return elapsed, frags, ms1.TotalAlloc - ms0.TotalAlloc, nil
}

// replayGPU submits every draw to a standalone GPU, timing the functional
// half (PrepareDraw) and the timing half (CommitDraw) apart.
func replayGPU(fr *primitive.Frame, cfg multigpu.Config, L map[string]float64) error {
	eng := sim.New()
	g, err := gpu.New(0, eng, cfg.Costs, fr.Width, fr.Height, cfg.Raster)
	if err != nil {
		return err
	}
	g.SetTextures(fr.Textures)
	var prep, commit time.Duration
	for _, d := range fr.Draws {
		t0 := time.Now()
		p := g.PrepareDraw(d, fr.View, fr.Proj, gpu.DrawOpts{})
		t1 := time.Now()
		g.CommitDraw(p)
		commit += time.Since(t1)
		prep += t1.Sub(t0)
	}
	eng.Run()
	n := float64(len(fr.Draws)) * float64(time.Microsecond)
	L["gpu.prepare_us_per_draw"] = float64(prep) / n
	L["gpu.commit_us_per_draw"] = float64(commit) / n
	return nil
}
