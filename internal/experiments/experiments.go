// Package experiments reproduces every table and figure in the paper's
// evaluation (Section VI). Each experiment is a named runner that simulates
// the required scheme/configuration matrix over the benchmark traces and
// renders a paper-style text table.
//
// Experiments accept a trace scale: 1.0 regenerates the exact Table III
// workload sizes; smaller scales shrink draw counts, triangle counts,
// resolution, and all triangle-denominated thresholds proportionally, so
// the comparisons keep their shape while running quickly. EXPERIMENTS.md
// records paper-vs-measured values at full scale.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/runrec"
	"chopin/internal/sfr"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// ProgressEvent reports one completed simulation within an experiment run,
// for live monitoring of multi-minute sweeps.
type ProgressEvent struct {
	// Experiment is the running experiment's ID.
	Experiment string
	// Scheme, Bench, and GPUs identify the simulation that just finished.
	Scheme, Bench string
	GPUs          int
	// Done and Total count completed simulations within the experiment.
	Done, Total int
}

// Options configures an experiment run.
type Options struct {
	// Scale is the trace scale in (0, 1]; 1.0 is the paper's full size.
	Scale float64
	// Benchmarks restricts the workload set (nil = all eight).
	Benchmarks []string
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Verify attaches the runtime invariant checker to every simulation the
	// experiment runs (multigpu.Config.Verify); any violation aborts the
	// experiment with an error naming the offending run.
	Verify bool
	// Verbose, when set, streams progress lines to Out.
	Verbose bool
	// Out receives progress output (may be nil).
	Out io.Writer
	// Ctx, when non-nil, cancels the experiment: running simulations halt at
	// their next cancellation poll and the experiment returns ctx.Err().
	// Defaults to context.Background().
	Ctx context.Context
	// Record, when non-nil, receives one run-record row per completed
	// simulation (keyed by experiment/cell/scheme/bench/GPUs, stamped with
	// the config fingerprint). The recorder is safe for concurrent use; the
	// caller snapshots and writes it after the experiments finish.
	Record *runrec.Recorder
	// Progress, when non-nil, is called after every completed simulation.
	// It must be safe for concurrent calls when Workers > 1 and must be
	// cheap — it runs on the worker goroutine.
	Progress func(ProgressEvent)

	// expID is the running experiment's registry ID, set by Run so batch
	// helpers can stamp rows and progress events.
	expID string
}

func (o *Options) normalize() {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = trace.Names()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.Ctx == nil {
		o.Ctx = context.Background()
	}
}

// baseConfig returns the Table II configuration with thresholds adjusted to
// the trace scale.
func (o *Options) baseConfig() multigpu.Config {
	cfg := multigpu.DefaultConfig()
	// The group threshold is denominated in the trace's triangles, so it
	// scales with the workload. GPUpd's batch size does NOT scale: batches
	// cost link latency apiece, and latency does not shrink with workload,
	// so keeping the byte-per-batch granularity fixed preserves the
	// distribution-to-rendering ratio across scales.
	cfg.GroupThreshold = trace.ScaledThreshold(cfg.GroupThreshold, o.Scale)
	cfg.Verify = o.Verify
	return cfg
}

// Result is a finished experiment.
type Result struct {
	// ID and Title identify the experiment.
	ID, Title string
	// Table is the paper-style output table.
	Table *stats.Table
	// Notes carries free-form observations (gmeans, caveats).
	Notes []string
}

// String renders the result.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

type runner struct {
	title string
	fn    func(*Options) (*Result, error)
}

var registry = map[string]runner{}

func register(id, title string, fn func(*Options) (*Result, error)) {
	registry[id] = runner{title: title, fn: fn}
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's description.
func Title(id string) string { return registry[id].title }

// Run executes the named experiment.
func Run(id string, opt Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	opt.normalize()
	opt.expID = id
	return r.fn(&opt)
}

// frameCache memoizes generated traces per (benchmark, scale). Each key
// holds its own once-guarded entry, so concurrent callers generating
// *distinct* benchmarks proceed in parallel (the map lock covers only the
// entry lookup, never Generate) while duplicate requests for the same
// frame share one generation.
type frameEntry struct {
	once sync.Once
	fr   *primitive.Frame
	err  error
}

var (
	frameMu    sync.Mutex
	frameCache = map[string]*frameEntry{}
)

func frameFor(bench string, scale float64) (*primitive.Frame, error) {
	key := fmt.Sprintf("%s@%.4f", bench, scale)
	frameMu.Lock()
	e, ok := frameCache[key]
	if !ok {
		e = &frameEntry{}
		frameCache[key] = e
	}
	frameMu.Unlock()
	e.once.Do(func() {
		b, err := trace.ByName(bench)
		if err != nil {
			e.err = err
			return
		}
		e.fr = trace.Generate(b, scale)
	})
	return e.fr, e.err
}

// job is one simulation in an experiment's matrix.
type job struct {
	bench  string
	scheme sfr.Scheme
	cfg    multigpu.Config
	out    **stats.FrameStats
	// img, when non-nil, receives the checksum of the assembled display
	// image (used by the determinism harness).
	img *uint64
	// label is the run-record scheme label; empty means scheme.Name().
	// Variants of one scheme (e.g. "IdealGPUpd") set it so record rows
	// stay distinguishable.
	label string
	// cell disambiguates sweep points sharing (scheme, bench, GPUs) in the
	// run-record key, e.g. "bw32" in the bandwidth sweep.
	cell string
}

// recordLabel returns the job's run-record scheme label.
func (j *job) recordLabel() string {
	if j.label != "" {
		return j.label
	}
	return j.scheme.Name()
}

// record appends the finished simulation's row to the run recorder and
// fires the progress callback. done is the completed count of the
// experiment's total jobs.
func (j *job) record(opt *Options, st *stats.FrameStats, done, total int) {
	exp := opt.expID
	if exp == "" {
		exp = "adhoc"
	}
	if opt.Record != nil && st != nil {
		key := runrec.Key{Experiment: exp, Cell: j.cell, Scheme: j.recordLabel(),
			Bench: j.bench, GPUs: j.cfg.NumGPUs}
		opt.Record.Add(runrec.FromStats(key, j.cfg.Fingerprint(), st))
	}
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{Experiment: exp, Scheme: j.recordLabel(),
			Bench: j.bench, GPUs: j.cfg.NumGPUs, Done: done, Total: total})
	}
}

// runJobs executes jobs with bounded parallelism, preserving determinism
// (each job is an independent simulation).
func runJobs(opt *Options, jobs []job) error {
	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	var done int
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	ctx := opt.Ctx
	// Prefetch the jobs' unique frames concurrently: the per-key cache
	// entries are once-guarded, so distinct benchmarks generate in parallel
	// here instead of serially inside the spawn loop below. Errors are
	// surfaced by the per-job lookup, which hits the cached entry.
	{
		var pf sync.WaitGroup
		seen := map[string]bool{}
		for i := range jobs {
			b := jobs[i].bench
			if seen[b] {
				continue
			}
			seen[b] = true
			pf.Add(1)
			go func(b string) {
				defer pf.Done()
				_, _ = frameFor(b, opt.Scale)
			}(b)
		}
		pf.Wait()
	}
	for i := range jobs {
		j := &jobs[i]
		if ctx.Err() != nil {
			break
		}
		fr, err := frameFor(j.bench, opt.Scale)
		if err != nil {
			return err
		}
		if j.cfg.Cancel == nil {
			j.cfg.Cancel = func() bool { return ctx.Err() != nil }
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if rec := recover(); rec != nil {
					fail(fmt.Errorf("%s on %s panicked: %v", j.scheme.Name(), j.bench, rec))
				}
			}()
			sys, err := multigpu.New(j.cfg, fr.Width, fr.Height)
			var st *stats.FrameStats
			if err == nil {
				st, err = j.scheme.Run(sys, fr)
			}
			if err != nil {
				fail(fmt.Errorf("%s on %s: %w", j.scheme.Name(), j.bench, err))
				return
			}
			st.Bench = j.bench
			*j.out = st
			if j.img != nil {
				*j.img = sys.AssembleImage(0).Checksum()
			}
			mu.Lock()
			done++
			d := done
			mu.Unlock()
			j.record(opt, st, d, len(jobs))
			if len(st.Violations) > 0 {
				fail(fmt.Errorf("%s on %s: %d invariant violation(s): %s",
					j.scheme.Name(), j.bench, len(st.Violations), st.Violations[0]))
			}
			if opt.Verbose {
				mu.Lock()
				fmt.Fprintf(opt.Out, "  %-20s %-8s n=%-2d  %12d cycles\n",
					j.scheme.Name(), j.bench, j.cfg.NumGPUs, st.TotalCycles)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return firstErr
}

// variant is a named scheme and config mutation. Its name is the run-record
// scheme label and, in speedup tables, the column header.
type variant struct {
	name   string
	scheme sfr.Scheme
	mutate func(*multigpu.Config) // nil leaves the config unchanged
}

// dup is the Duplication baseline: variant 0 of every speedup sweep.
var dup = variant{"Duplication", sfr.Duplication{}, nil}

func idealLink(c *multigpu.Config)   { c.Link.Ideal = true }
func noCompSched(c *multigpu.Config) { c.UseCompScheduler = false }

// fig13Vars are the schemes compared in the headline figure, in paper
// order, after the baseline.
var fig13Vars = []variant{
	dup,
	{"GPUpd", sfr.GPUpd{}, nil},
	{"IdealGPUpd", sfr.GPUpd{}, idealLink},
	{"CHOPIN", sfr.CHOPIN{}, noCompSched},
	{"CHOPIN+CompSched", sfr.CHOPIN{}, nil},
	{"IdealCHOPIN", sfr.CHOPIN{}, idealLink},
}

// point is one setting of an experiment's swept parameter. cell tells
// points that share a GPU count apart in run-record keys; label names the
// point's row in gmean tables.
type point struct {
	gpus   int
	cell   string
	mutate func(*multigpu.Config) // nil leaves the config unchanged
	label  []string
}

// at8 is the single point of experiments run at the paper's 8 GPUs.
var at8 = []point{{gpus: 8}}

// gpuPoints sweeps the GPU count.
func gpuPoints(counts ...int) []point {
	pts := make([]point, len(counts))
	for i, n := range counts {
		pts[i] = point{gpus: n, label: []string{fmt.Sprint(n)}}
	}
	return pts
}

// sweep runs every variant on every benchmark at every point, as one batch
// of jobs ordered by point, then benchmark, then variant, and returns
// out[point][variant][bench].
func sweep(opt *Options, pts []point, vars []variant) ([][][]*stats.FrameStats, error) {
	out := make([][][]*stats.FrameStats, len(pts))
	var jobs []job
	for pi, p := range pts {
		out[pi] = make([][]*stats.FrameStats, len(vars))
		for vi := range vars {
			out[pi][vi] = make([]*stats.FrameStats, len(opt.Benchmarks))
		}
		for bi, bench := range opt.Benchmarks {
			for vi, v := range vars {
				cfg := opt.baseConfig()
				cfg.NumGPUs = p.gpus
				for _, m := range []func(*multigpu.Config){p.mutate, v.mutate} {
					if m != nil {
						m(&cfg)
					}
				}
				jobs = append(jobs, job{bench: bench, scheme: v.scheme, cfg: cfg,
					out: &out[pi][vi][bi], label: v.name, cell: p.cell})
			}
		}
	}
	return out, runJobs(opt, jobs)
}

// speedups returns every variant's per-bench speedups over variant 0 at
// one sweep point, sp[variant][bench], and each variant's gmean.
func speedups(res [][]*stats.FrameStats) (sp [][]float64, gmeans []float64) {
	sp = make([][]float64, len(res))
	gmeans = make([]float64, len(res))
	for v, runs := range res {
		for b, st := range runs {
			sp[v] = append(sp[v], st.Speedup(res[0][b]))
		}
		gmeans[v] = stats.GeoMean(sp[v])
	}
	return sp, gmeans
}

// f3 formats speedups as table cells.
func f3(xs ...float64) []string {
	cells := make([]string, len(xs))
	for i, x := range xs {
		cells[i] = fmt.Sprintf("%.3f", x)
	}
	return cells
}

// gmeanSweep runs vars over pts and renders one row per point: its label,
// then the gmean speedup of every variant but the baseline.
func gmeanSweep(opt *Options, pts []point, vars []variant, header ...string) (*stats.Table, error) {
	out, err := sweep(opt, pts, vars)
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable(header...)
	for p, res := range out {
		_, g := speedups(res)
		tbl.AddRow(slices.Concat(pts[p].label, f3(g[1:]...))...)
	}
	return tbl, nil
}
