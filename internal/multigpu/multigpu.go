// Package multigpu assembles the simulated system: N GPUs (paper Table II),
// the inter-GPU link fabric, the split-frame screen ownership, and the
// consistency-synchronization machinery shared by all SFR schemes.
//
// The system presents itself to a rendering scheme as a set of GPU timing
// models plus a fabric; schemes (package sfr) orchestrate who renders what
// and how sub-images are exchanged.
package multigpu

import (
	"fmt"
	"hash/fnv"

	"chopin/internal/check"
	"chopin/internal/composite/plan"
	"chopin/internal/fault"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/obs"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/vecmath"
)

// DriverCyclesPerDraw is the command-processor cost of issuing one draw:
// the driver issues a scheme's draws this many cycles apart.
const DriverCyclesPerDraw sim.Cycle = 50

// Config is the simulated architecture configuration (paper Table II plus
// the scheme parameters the sensitivity studies sweep).
type Config struct {
	// NumGPUs is the GPU count (Table II default: 8).
	NumGPUs int
	// Costs is the per-GPU pipeline cost model (8 SMs + 8 ROPs per GPU
	// folded into aggregate rates).
	Costs gpu.CostConfig
	// Raster configures the functional rasterizer (early-Z and the Fig. 16
	// retention knob).
	Raster raster.Config
	// Link configures the inter-GPU fabric (64 GB/s, 200 cycles default).
	Link interconnect.Config

	// GroupThreshold is the composition-group primitive threshold below
	// which CHOPIN reverts to duplication (Table II default: 4096).
	GroupThreshold int
	// SchedulerQuantum is the draw-command scheduler's update interval in
	// triangles (Fig. 18; default 1 = per-triangle updates).
	SchedulerQuantum int
	// UseCompScheduler enables CHOPIN's image-composition scheduler.
	UseCompScheduler bool
	// RecordPerDraw enables per-draw timing capture (Fig. 9).
	RecordPerDraw bool
	// Verify attaches the runtime invariant checker (package check) to the
	// system: fabric conservation, event-time monotonicity, depth-merge
	// monotonicity, and final-image order-independence are validated during
	// the run and reported in FrameStats.Violations. Verified runs are
	// slower — the checker snapshots merge inputs and re-renders the
	// sequential reference image.
	Verify bool
	// Tracer, when non-nil, threads the observability layer through the
	// system: the engine, the fabric, every GPU, and the exec runtime record
	// timeline spans and counter samples into it (see package obs and
	// DESIGN.md §6). Export what it gathered after the run with
	// Tracer.WriteJSON / Tracer.WriteCSV. A nil Tracer (the default) keeps
	// every hot path on a bare nil-check with zero allocations.
	Tracer *obs.Tracer
	// FabricTelemetry attaches the fabric's link-telemetry collector
	// (interconnect.LinkTelemetry): per-link busy cycles, bytes, queueing,
	// reroute attribution, and per-transfer latency/hop histograms, digested
	// into FrameStats.Fabric at the end of the run. Like Tracer it observes
	// without perturbing — a telemetry-enabled run simulates byte-identically
	// — and it is excluded from Fingerprint. Ignored on ideal fabrics, which
	// have no links to meter. The default keeps the fabric's hot paths on a
	// bare nil check with zero allocations.
	FabricTelemetry bool

	// Faults, when non-nil and non-empty, installs the deterministic
	// fault-injection plan (package fault): the fabric gets the compiled
	// injector and the plan's GPU stalls/fail-stops are scheduled on the
	// engine. New also enables the exec watchdog (unless Watchdog was set
	// explicitly) and, when Link.Retry is zero, the default retry protocol.
	// A nil plan keeps every hot path on a bare nil-check with zero
	// allocations — the same contract as Tracer.
	Faults *fault.Plan
	// Watchdog controls the exec runtime's deadlock/stuck-progress watchdog:
	// 0 disables it, a negative value enables it with the default check
	// interval, and a positive value is the interval in cycles.
	Watchdog sim.Cycle
	// Cancel, when non-nil, is polled periodically by the engine; returning
	// true halts the simulation, which surfaces as an exec.CanceledError
	// with partial statistics. Wire a context through this (see
	// internal/experiments and chopinsim -timeout).
	Cancel func() bool

	// EngineWorkers is ignored: every simulation runs on one goroutine.
	//
	// Deprecated: ignored.
	EngineWorkers int

	// CompAlg selects the exchange plan opaque composition groups execute
	// (DESIGN.md §10). The zero value, plan.AlgDirectSend, keeps the
	// paper's direct-send composition path — naive or arbitrated per
	// UseCompScheduler — bit-for-bit. Any other value routes opaque groups
	// through the plan executor (binary-swap or radix-k). Transparent
	// groups always keep the ordered adjacent-merge chain: multi-round
	// swap plans reorder merges, which a non-commutative blend forbids.
	CompAlg plan.Algorithm
	// RadixK is the radix for CompAlg == plan.AlgRadixK; 0 uses
	// plan.DefaultK for the GPU count.
	RadixK int
}

// DefaultConfig returns the paper's Table II system.
func DefaultConfig() Config {
	return Config{
		NumGPUs:          8,
		Costs:            gpu.DefaultCosts(),
		Raster:           raster.DefaultConfig(),
		Link:             interconnect.DefaultConfig(),
		GroupThreshold:   4096,
		SchedulerQuantum: 1,
		UseCompScheduler: true,
	}
}

// fpLink and fpConfig mirror the field sets Fingerprint has always hashed,
// frozen at their pre-topology shape. Fingerprint formats these mirrors
// with %+v instead of the live structs so that adding Config fields cannot
// silently re-key every existing run record: new architecture axes must be
// appended explicitly below, and only when they deviate from the legacy
// default — a default-configured system fingerprints exactly as it always
// has (pinned by TestFingerprintDefaultPinned). The former Config fields
// DriverCyclesPerDraw and BatchSize hold their constants' values there.
type fpLink struct {
	BytesPerCycle float64
	LatencyCycles sim.Cycle
	Ideal         bool
	Retry         interconnect.RetryConfig
}

type fpConfig struct {
	NumGPUs             int
	Costs               gpu.CostConfig
	Raster              raster.Config
	Link                fpLink
	GroupThreshold      int
	SchedulerQuantum    int
	UseCompScheduler    bool
	DriverCyclesPerDraw float64
	BatchSize           int
	RecordPerDraw       bool
	Verify              bool
	Tracer              *obs.Tracer
	Faults              *fault.Plan
	Watchdog            sim.Cycle
	Cancel              func() bool
	EngineWorkers       int
}

// Fingerprint returns a stable 16-hex-digit digest of the architectural
// configuration: the fields that determine simulated timing and output
// (GPU count, cost model, rasterizer knobs, link parameters, topology,
// composition algorithm, scheme thresholds). Attachments that observe or
// perturb a run from outside the modelled architecture — Tracer, Cancel,
// Faults, Verify, RecordPerDraw — are excluded, so a traced or verified
// re-run of the same architecture fingerprints identically. The frozen
// fpConfig keeps its EngineWorkers member, always zero, because its %+v
// shape is what is hashed. Run records (package runrec) key rows on it.
func (c Config) Fingerprint() string {
	fp := fpConfig{
		NumGPUs: c.NumGPUs,
		Costs:   c.Costs,
		Raster:  c.Raster,
		Link: fpLink{
			BytesPerCycle: c.Link.BytesPerCycle,
			LatencyCycles: c.Link.LatencyCycles,
			Ideal:         c.Link.Ideal,
			Retry:         c.Link.Retry,
		},
		GroupThreshold:      c.GroupThreshold,
		SchedulerQuantum:    c.SchedulerQuantum,
		UseCompScheduler:    c.UseCompScheduler,
		DriverCyclesPerDraw: float64(DriverCyclesPerDraw),
		BatchSize:           192, // sfr.GPUpdBatchSize; sfr imports multigpu
		Watchdog:            c.Watchdog,
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", fp)
	if c.Link.Topology != interconnect.TopoCrossbar || c.CompAlg != plan.AlgDirectSend || c.RadixK != 0 {
		fmt.Fprintf(h, "|topo=%d comp=%d k=%d", c.Link.Topology, c.CompAlg, c.RadixK)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// System is an N-GPU rendering system for one simulated frame.
type System struct {
	Cfg    Config
	Eng    *sim.Engine
	Fabric *interconnect.Fabric
	GPUs   []*gpu.GPU
	// Check is the runtime invariant checker, non-nil when Cfg.Verify is
	// set. Schemes route depth merges through it and the end-of-run capture
	// asks it to validate conservation and the final image.
	Check *check.Checker
	// Tracer is the observability layer, non-nil when Cfg.Tracer was set.
	Tracer *obs.Tracer

	engProbe *obs.EngineProbe

	width, height int
	tileCount     int
	masks         [][]bool

	// owners maps each tile to its owning GPU. It starts as the round-robin
	// interleave and is remapped by ReassignTiles during degraded-mode
	// recovery.
	owners []int
	// alive tracks fail-stopped GPUs; numAlive counts the survivors.
	alive    []bool
	numAlive int
	// failHandlers are scheme callbacks invoked when a GPU is declared
	// failed, in registration order.
	failHandlers []func(g int)

	// prep is BroadcastDraw's scratch, reused across draws so the steady
	// state allocates only the prepared draws themselves.
	prep []*gpu.PreparedDraw
}

// New builds a system for a width×height screen.
func New(cfg Config, width, height int) (*System, error) {
	if cfg.NumGPUs <= 0 {
		return nil, fmt.Errorf("multigpu: invalid GPU count %d", cfg.NumGPUs)
	}
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("multigpu: invalid screen dimensions %d×%d", width, height)
	}
	haveFaults := cfg.Faults != nil && !cfg.Faults.Empty()
	if haveFaults {
		// Faulted runs get the recovery machinery by default: the retry
		// protocol masks transfer faults, and the watchdog bounds anything
		// it cannot mask.
		if cfg.Link.Retry.Timeout == 0 {
			cfg.Link.Retry = interconnect.DefaultRetry()
		}
		if cfg.Watchdog == 0 {
			cfg.Watchdog = -1
		}
	}
	if cfg.Link.Retry.Timeout < 0 {
		// An explicitly negative timeout opts out of the retry protocol
		// even under a fault plan: a dropped or corrupted transfer is then
		// never delivered, and the scheme waiting on it fails with an
		// exec.DeadlockError (fault.TestChaosUnprotected runs this path).
		cfg.Link.Retry = interconnect.RetryConfig{}
	}
	eng := sim.New()
	fabric, err := interconnect.New(eng, cfg.NumGPUs, cfg.Link)
	if err != nil {
		return nil, err
	}
	if cfg.FabricTelemetry {
		fabric.EnableLinkTelemetry()
	}
	s := &System{
		Cfg:    cfg,
		Eng:    eng,
		Fabric: fabric,
		width:  width,
		height: height,
	}
	if cfg.Verify {
		s.Check = check.New()
		s.Fabric.SetObserver(s.Check)
	}
	if cfg.Tracer != nil {
		s.Tracer = cfg.Tracer
		s.engProbe = obs.NewEngineProbe(cfg.Tracer)
		eng.SetProbe(s.engProbe)
		s.Fabric.SetTracer(cfg.Tracer)
	}
	// Compose the engine watcher: the invariant checker's event-time
	// monotonicity watch and the tracer's periodic counter sampling both
	// ride the same hook.
	var watchers []func(at sim.Cycle)
	if s.Check != nil {
		watchers = append(watchers, s.Check.EventWatcher())
	}
	if s.Tracer != nil {
		tr := s.Tracer
		watchers = append(watchers, func(at sim.Cycle) { tr.Tick(at) })
	}
	switch len(watchers) {
	case 0:
	case 1:
		eng.SetWatcher(watchers[0])
	default:
		ws := watchers
		eng.SetWatcher(func(at sim.Cycle) {
			for _, w := range ws {
				w(at)
			}
		})
	}
	for i := 0; i < cfg.NumGPUs; i++ {
		g, err := gpu.New(i, eng, cfg.Costs, width, height, cfg.Raster)
		if err != nil {
			return nil, err
		}
		g.SetTracer(cfg.Tracer)
		s.GPUs = append(s.GPUs, g)
	}
	s.tileCount = s.GPUs[0].Target(0).TileCount()
	s.owners = make([]int, s.tileCount)
	for t := range s.owners {
		s.owners[t] = framebuffer.OwnerOf(t, cfg.NumGPUs)
	}
	s.alive = make([]bool, cfg.NumGPUs)
	for i := range s.alive {
		s.alive[i] = true
	}
	s.numAlive = cfg.NumGPUs
	s.rebuildMasks()
	if haveFaults {
		inj, err := fault.NewInjector(eng, cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.Fabric.SetInjector(inj)
		for _, gf := range cfg.Faults.GPUs {
			if gf.GPU >= cfg.NumGPUs {
				return nil, fmt.Errorf("multigpu: fault plan targets GPU %d of %d", gf.GPU, cfg.NumGPUs)
			}
			gf := gf
			if gf.Fail {
				eng.At(gf.At, func() { s.markFailed(gf.GPU) })
			} else {
				eng.At(gf.At, func() { s.GPUs[gf.GPU].Stall(gf.Stall) })
			}
		}
		for _, lf := range cfg.Faults.LinkFails {
			if lf.A >= cfg.NumGPUs || lf.B >= cfg.NumGPUs {
				return nil, fmt.Errorf("multigpu: fault plan downs link %d-%d of %d GPUs", lf.A, lf.B, cfg.NumGPUs)
			}
			lf := lf
			// DownLink errors when the endpoints name no physical link of
			// this topology (a mesh pair without a shared grid edge): the
			// fault simply cannot materialize, mirroring a degrade window
			// past frame end.
			eng.At(lf.At, func() { _ = s.Fabric.DownLink(lf.A, lf.B) })
		}
	}
	if cfg.Cancel != nil {
		eng.SetCancel(cfg.Cancel)
	}
	return s, nil
}

// DrawReq is one GPU's share of a broadcast draw.
type DrawReq struct {
	// GPU is the target GPU index.
	GPU int
	// Sel picks the triangles the GPU renders; the zero Selection picks
	// every triangle. Every non-zero Sel of one broadcast shares one Masks
	// slice.
	Sel raster.Selection
	// Opts are the per-submission options.
	Opts gpu.DrawOpts
}

// PrepareBroadcast is the functional half of a broadcast: it sets up
// triangles [lo, hi) of d once, a bounded chunk at a time, skipping those no
// request selects, and every GPU reqs names (which must be distinct)
// rasterizes its selection of that one read-only setup chunk by chunk, in
// request order. It appends the prepared draws to prep in request order and
// returns it. Committing each with gpu.CommitDraw, in request order, is
// byte-identical to calling gpu.SubmitDraw for each request in turn with a
// draw holding just the triangles its Sel picks.
//
// Prepares on distinct GPUs touch disjoint state, so a caller may prepare
// several broadcasts before committing any, and commit them in another
// order, as long as each GPU's draws are prepared and committed in its own
// submission order. GPUpd prepares every piece of a primitive batch for all
// its destination GPUs, then commits destination by destination.
func (s *System) PrepareBroadcast(prep []*gpu.PreparedDraw, d *primitive.DrawCommand, lo, hi int,
	view, proj vecmath.Mat4, reqs []DrawReq) []*gpu.PreparedDraw {
	var union raster.Selection
	for _, r := range reqs {
		if r.Sel.Masks == nil {
			union = raster.Selection{}
			break
		}
		union.Masks = r.Sel.Masks
		union.Bit |= r.Sel.Bit
	}
	st := raster.GetSetup()
	st.BuildSelected(d, lo, hi, union, view, proj, s.width, s.height)
	first := len(prep)
	for _, r := range reqs {
		prep = append(prep, s.GPUs[r.GPU].PrepareSetup(st, r.Sel, r.Opts))
	}
	for st.Next() {
		for i, r := range reqs {
			s.GPUs[r.GPU].RasterChunk(prep[first+i], st)
		}
	}
	raster.PutSetup(st)
	return prep
}

// BroadcastDraw submits d to each GPU reqs names: PrepareBroadcast over the
// whole draw, then each submission is committed — timing, stats, tracer
// spans, completion events — in request order.
//
// Duplication's and CHOPIN's draw broadcasts take this path, and so does
// sort-middle's per-draw exchange, in which each GPU's request selects its
// own triangles; GPUpd calls PrepareBroadcast itself. It is the dominant
// wall-clock cost of a sweep.
func (s *System) BroadcastDraw(d *primitive.DrawCommand, view, proj vecmath.Mat4, reqs []DrawReq) {
	prep := s.PrepareBroadcast(s.prep[:0], d, 0, len(d.Tris), view, proj, reqs)
	for i, r := range reqs {
		s.GPUs[r.GPU].CommitDraw(prep[i])
	}
	clear(prep)
	s.prep = prep[:0]
}

// rebuildMasks recomputes every GPU's tile-ownership mask from the owner
// table.
func (s *System) rebuildMasks() {
	if s.masks == nil {
		s.masks = make([][]bool, s.Cfg.NumGPUs)
		for g := range s.masks {
			s.masks[g] = make([]bool, s.tileCount)
		}
	}
	for g := range s.masks {
		mask := s.masks[g]
		for t := 0; t < s.tileCount; t++ {
			mask[t] = s.owners[t] == g
		}
	}
}

// FinishTrace closes out the observability layer at the end of a run: the
// engine probe flushes its last activity span and the counter registry takes
// a final sample at the current cycle. Safe to call repeatedly and on
// untraced systems.
func (s *System) FinishTrace() {
	if s.Tracer == nil {
		return
	}
	if s.engProbe != nil {
		s.engProbe.Finish()
	}
	s.Tracer.Flush(s.Eng.Now())
}

// Width and Height return the screen dimensions.
func (s *System) Width() int { return s.width }

// Height returns the screen height in pixels.
func (s *System) Height() int { return s.height }

// TileCount returns the number of screen tiles.
func (s *System) TileCount() int { return s.tileCount }

// Owner returns the GPU currently owning tile t. Ownership starts as the
// round-robin interleave and is remapped by ReassignTiles when a GPU fails.
func (s *System) Owner(t int) int { return s.owners[t] }

// Mask returns gpu g's tile-ownership mask (shared; do not mutate).
func (s *System) Mask(g int) []bool { return s.masks[g] }

// OwnedDirtyTiles returns the dirty tiles of the screen-sized buffer fb that
// owner owns and that overlap rows [lo, hi), with their pixel count inside
// those rows — the payload of a composition transfer to or from owner. Over the full rows [0, Height()), px is the tiles' pixel count.
func (s *System) OwnedDirtyTiles(fb *framebuffer.Buffer, owner, lo, hi int) (tiles []int, px int) {
	for t := 0; t < s.tileCount; t++ {
		if s.owners[t] != owner || !fb.Dirty(t) {
			continue
		}
		x0, y0, x1, y1 := fb.TileRect(t)
		if rows := min(y1, hi) - max(y0, lo); rows > 0 {
			tiles = append(tiles, t)
			px += rows * (x1 - x0)
		}
	}
	return tiles, px
}

// AssembleImage gathers every GPU's owned tiles of render target rt into a
// single display image — what the display engine would scan out.
func (s *System) AssembleImage(rt int) *framebuffer.Buffer {
	// Dimensions were validated in New, so construction cannot fail; tile
	// copies between same-sized buffers likewise.
	out := framebuffer.MustNew(s.width, s.height)
	for t := 0; t < s.tileCount; t++ {
		_ = out.CopyTileFrom(s.GPUs[s.Owner(t)].Target(rt), t)
	}
	return out
}

// markFailed declares GPU g fail-stopped: the GPU model stops accepting work,
// the alive set shrinks, and registered fail handlers run (in registration
// order) so the active scheme can start recovery. Idempotent.
func (s *System) markFailed(g int) {
	if !s.alive[g] {
		return
	}
	s.alive[g] = false
	s.numAlive--
	s.GPUs[g].Fail()
	for _, h := range s.failHandlers {
		h(g)
	}
}

// OnGPUFail registers a handler invoked when a GPU is declared failed.
// Schemes use this to trigger degraded-mode recovery.
func (s *System) OnGPUFail(h func(g int)) {
	s.failHandlers = append(s.failHandlers, h)
}

// Alive reports whether GPU g has not fail-stopped.
func (s *System) Alive(g int) bool { return s.alive[g] }

// NumAlive returns the number of GPUs that have not fail-stopped.
func (s *System) NumAlive() int { return s.numAlive }

// Failed returns the IDs of fail-stopped GPUs, ascending.
func (s *System) Failed() []int {
	var out []int
	for g, ok := range s.alive {
		if !ok {
			out = append(out, g)
		}
	}
	return out
}

// ReassignTiles redistributes the tiles owned by the given failed GPUs
// round-robin across the surviving GPUs, rebuilds the ownership masks, and
// returns the adoption map (adopter GPU → tiles it inherited). The failed
// GPUs' render targets are dropped — their modeled contents are lost with the
// GPU — so a stale tile can never be scanned out.
func (s *System) ReassignTiles(failed []int) map[int][]int {
	if s.numAlive == 0 {
		return nil
	}
	dead := make(map[int]bool, len(failed))
	for _, g := range failed {
		dead[g] = true
		s.GPUs[g].DropTargets()
	}
	adopted := make(map[int][]int)
	next := 0
	for t := 0; t < s.tileCount; t++ {
		if !dead[s.owners[t]] {
			continue
		}
		for !s.alive[next%s.Cfg.NumGPUs] {
			next++
		}
		a := next % s.Cfg.NumGPUs
		next++
		s.owners[t] = a
		adopted[a] = append(adopted[a], t)
	}
	s.rebuildMasks()
	return adopted
}
