package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"chopin/internal/check"
	"chopin/internal/composite/plan"
	"chopin/internal/experiments"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/runrec"
	"chopin/internal/sfr"
	"chopin/internal/trace"
)

// repResult is what a child process reports for one repetition. The parent
// adds wall time, CPU time and peak RSS from the child's rusage.
type repResult struct {
	// SetupS is trace generation, plus multigpu.New for a frame workload.
	SetupS float64 `json:"setup_s"`
	// AllocBytes is the runtime's TotalAlloc growth over set-up and run.
	AllocBytes uint64 `json:"alloc_bytes"`
	// Cycles, CompBytes and Frags sum the simulated frame cycles,
	// composition traffic and generated fragments over every simulation.
	Cycles    int64 `json:"cycles"`
	CompBytes int64 `json:"comp_bytes"`
	Frags     int64 `json:"frags"`
	// Checksum is a frame workload's display-image checksum; Table is a
	// sweep's rendered result table. The parent checks them against the
	// workload's oracle.
	Checksum uint64 `json:"checksum,omitempty"`
	Table    string `json:"table,omitempty"`
	// BodyCPUS is the process CPU time of the measured body, the base of
	// the tracing overhead.
	BodyCPUS float64 `json:"body_cpu_s"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// oracle checks one repetition's output.
type oracle func(*repResult) error

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// frame is the frame a frame workload renders; zero for a sweep.
	frame frameSpec
	// run performs one untraced repetition; traced performs the traced one.
	// Both run in a child process.
	run, traced func(seed int64) (*repResult, error)
	// oracle builds, in the parent, the check every repetition must pass;
	// root is the repository root.
	oracle func(root string, seed int64) (oracle, error)
	// key and config name the workload's run-record row.
	key    runrec.Key
	config string
}

// engineWorkers is the event-engine worker count of the frame workloads and
// sweepWorkers the simulation concurrency of the sweeps: the load fits a
// two-core host with one child process at a time.
const (
	engineWorkers = 2
	sweepWorkers  = 2
)

// workloads lists the benchmark's workloads. Later changes cite them by name.
var workloads = []*workload{
	sweepWorkload("fig13-sweep",
		"experiments.Run(fig13) at scale 0.25: 48 simulations of all 8 traces at 8 GPUs, the full figure sweep users run; masked rasterization dominates it",
		"fig13", experiments.Options{Scale: 0.25}, "bench/testdata/fig13_s0.25.txt",
		frameSpec{bench: "cod2", scale: 0.25, gpus: 8, topo: interconnect.TopoCrossbar, alg: plan.AlgDirectSend}),
	frameWorkload("frame64-ds",
		"one full-scale cod2 frame on 64 GPUs, 2D mesh, direct-send: the single 64-GPU frame; framebuffer allocation, clears and page faults dominate it",
		frameSpec{bench: "cod2", scale: 1, gpus: 64, topo: interconnect.TopoMesh2D, alg: plan.AlgDirectSend, engineWorkers: engineWorkers}),
	frameWorkload("frame64-bswap",
		"the same frame at scale 0.25 with binary-swap: dense multi-round row exchanges load the composite, plan and fabric layers unlike sparse direct-send",
		frameSpec{bench: "cod2", scale: 0.25, gpus: 64, topo: interconnect.TopoMesh2D, alg: plan.AlgBinarySwap, engineWorkers: engineWorkers}),
	sweepWorkload("scale64-sweep",
		"experiments.Run(scale64) at scale 0.03: 60 small simulations over every topology and plan at 8-64 GPUs; fixed per-simulation costs dominate, raster least",
		"scale64", experiments.GoldenOptions(), "internal/experiments/testdata/golden/scale64.txt",
		frameSpec{bench: "cod2", scale: 0.03, gpus: 64, topo: interconnect.TopoMesh2D, alg: plan.AlgRadixK}),
}

// workloadByName returns the named workload.
func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// frameSpec is one simulated CHOPIN frame.
type frameSpec struct {
	bench         string
	scale         float64
	gpus          int
	topo          interconnect.TopologyKind
	alg           plan.Algorithm
	engineWorkers int
}

// config returns the simulated system, with the composition-group
// threshold scaled to the trace as chopinsim and the experiments scale it.
func (f frameSpec) config() multigpu.Config {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = f.gpus
	cfg.Link.Topology = f.topo
	cfg.CompAlg = f.alg
	cfg.EngineWorkers = f.engineWorkers
	cfg.GroupThreshold = max(16, int(float64(cfg.GroupThreshold)*f.scale))
	return cfg
}

// generate builds the frame's trace. The seed is XORed into the benchmark's
// own seed, so seed 0 is the canonical Table III trace.
func (f frameSpec) generate(seed int64) (*primitive.Frame, error) {
	b, err := trace.ByName(f.bench)
	if err != nil {
		return nil, err
	}
	b.Seed ^= seed
	return trace.Generate(b, f.scale), nil
}

// frameWorkload renders one frame per repetition.
func frameWorkload(name, why string, f frameSpec) *workload {
	return &workload{
		name:   name,
		why:    why,
		frame:  f,
		run:    f.rep,
		traced: f.tracedRep,
		oracle: f.oracle,
		key:    runrec.Key{Experiment: "bench", Cell: name, Scheme: "CHOPIN", Bench: f.bench, GPUs: f.gpus},
		config: f.config().Fingerprint(),
	}
}

// rep renders the frame once: generate the trace, build the system, run
// CHOPIN and assemble the display image.
func (f frameSpec) rep(seed int64) (*repResult, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	fr, err := f.generate(seed)
	if err != nil {
		return nil, err
	}
	sys, err := multigpu.New(f.config(), fr.Width, fr.Height)
	if err != nil {
		return nil, err
	}
	setup := time.Since(t0)
	st, err := sfr.CHOPIN{}.Run(sys, fr)
	if err != nil {
		return nil, err
	}
	sum := sys.AssembleImage(0).Checksum()
	body := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	return &repResult{
		SetupS:     setup.Seconds(),
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Cycles:     st.TotalCycles,
		CompBytes:  st.CompositionBytes,
		Frags:      int64(st.Raster.FragsGenerated),
		Checksum:   sum,
		BodyCPUS:   body.Seconds(),
	}, nil
}

// oracle requires the display image to match the single-GPU reference
// rendering of the same trace.
func (f frameSpec) oracle(_ string, seed int64) (oracle, error) {
	fr, err := f.generate(seed)
	if err != nil {
		return nil, err
	}
	want := sfr.ReferenceImages(fr, f.config().Raster)[0].Checksum()
	return func(r *repResult) error {
		if r.Checksum != want {
			return fmt.Errorf("image checksum %016x, reference %016x", r.Checksum, want)
		}
		return nil
	}, nil
}

// sweep is an experiment run through experiments.Run, which always uses
// the canonical traces: a sweep ignores the seed.
type sweep struct {
	exp    string
	opt    experiments.Options
	golden string
	// cell is the sweep's representative simulation, which the traced run
	// replays layer by layer.
	cell frameSpec
}

// sweepWorkload runs one experiment per repetition.
func sweepWorkload(name, why, exp string, opt experiments.Options, golden string, cell frameSpec) *workload {
	if len(opt.Benchmarks) == 0 {
		opt.Benchmarks = trace.Names()
	}
	opt.Workers = sweepWorkers
	s := &sweep{exp: exp, opt: opt, golden: golden, cell: cell}
	bench := "all"
	if len(opt.Benchmarks) == 1 {
		bench = opt.Benchmarks[0]
	}
	return &workload{
		name:   name,
		why:    why,
		run:    func(int64) (*repResult, error) { return s.rep(s.opt) },
		traced: func(int64) (*repResult, error) { return s.tracedRep() },
		oracle: s.oracle,
		key:    runrec.Key{Experiment: "bench", Cell: name, Scheme: exp, Bench: bench, GPUs: cell.gpus},
		config: cell.config().Fingerprint(),
	}
}

// generateAll generates every trace the sweep uses, the work
// experiments.Run does before its first simulation, and returns the time it
// took.
func (s *sweep) generateAll() (time.Duration, error) {
	t0 := time.Now()
	for _, name := range s.opt.Benchmarks {
		b, err := trace.ByName(name)
		if err != nil {
			return 0, err
		}
		trace.Generate(b, s.opt.Scale)
	}
	return time.Since(t0), nil
}

// rep runs the experiment once under opt.
func (s *sweep) rep(opt experiments.Options) (*repResult, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	setup, err := s.generateAll()
	if err != nil {
		return nil, err
	}
	rec := runrec.NewRecorder(runrec.Meta{})
	opt.Record = rec
	cpu0 := cpuTime()
	res, err := experiments.Run(s.exp, opt)
	if err != nil {
		return nil, err
	}
	body := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r := &repResult{
		SetupS:     setup.Seconds(),
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		Table:      res.String(),
		BodyCPUS:   body.Seconds(),
	}
	for _, row := range rec.Record().Rows {
		r.Cycles += int64(row.Metrics["total_cycles"])
		r.CompBytes += int64(row.Metrics["bytes_composition"])
		r.Frags += int64(row.Metrics["frags_generated"])
	}
	return r, nil
}

// oracle requires the result table to match the committed one cell for
// cell.
func (s *sweep) oracle(root string, _ int64) (oracle, error) {
	want, err := os.ReadFile(filepath.Join(root, s.golden))
	if err != nil {
		return nil, err
	}
	return func(r *repResult) error {
		if d := check.DiffTables(string(want), r.Table); len(d) > 0 {
			return fmt.Errorf("%s differs from %s: %s", s.exp, s.golden, strings.Join(d, "; "))
		}
		return nil
	}, nil
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
