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
	// Done and Total count completed simulations within the current batch.
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
// fires the progress callback. done is the completed count within the
// batch of total jobs.
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
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// Prefetch the batch's unique frames concurrently: the per-key cache
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
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s on %s panicked: %v", j.scheme.Name(), j.bench, rec)
					}
					mu.Unlock()
				}
			}()
			sys, err := multigpu.New(j.cfg, fr.Width, fr.Height)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s on %s: %w", j.scheme.Name(), j.bench, err)
				}
				mu.Unlock()
				return
			}
			st, err := j.scheme.Run(sys, fr)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s on %s: %w", j.scheme.Name(), j.bench, err)
				}
				mu.Unlock()
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
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("%s on %s: %d invariant violation(s): %s",
						j.scheme.Name(), j.bench, len(st.Violations), st.Violations[0])
				}
				mu.Unlock()
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

// variant is a named scheme+config mutation relative to the base config.
type variant struct {
	name   string
	scheme sfr.Scheme
	mutate func(*multigpu.Config)
}

func ident(*multigpu.Config) {}

// fig13Variants are the schemes compared in the headline figure, in paper
// order. Duplication (the baseline) is run separately.
func fig13Variants() []variant {
	return []variant{
		{"GPUpd", sfr.GPUpd{}, ident},
		{"IdealGPUpd", sfr.GPUpd{}, func(c *multigpu.Config) { c.Link.Ideal = true }},
		{"CHOPIN", sfr.CHOPIN{}, func(c *multigpu.Config) { c.UseCompScheduler = false }},
		{"CHOPIN+CompSched", sfr.CHOPIN{}, ident},
		{"IdealCHOPIN", sfr.CHOPIN{}, func(c *multigpu.Config) { c.Link.Ideal = true }},
	}
}

// speedupMatrix runs the variants plus the Duplication baseline over the
// benchmarks at the given GPU count and returns per-benchmark speedups and
// the variant gmeans. cell labels the sweep point in run-record keys when
// the same matrix is re-run under mutated configurations ("" otherwise).
func speedupMatrix(opt *Options, vars []variant, gpus int, cell string, mutateAll func(*multigpu.Config)) (map[string][]float64, []float64, error) {
	base := make([]*stats.FrameStats, len(opt.Benchmarks))
	results := make([][]*stats.FrameStats, len(vars))
	for i := range results {
		results[i] = make([]*stats.FrameStats, len(opt.Benchmarks))
	}
	var jobs []job
	for bi, bench := range opt.Benchmarks {
		cfg := opt.baseConfig()
		cfg.NumGPUs = gpus
		if mutateAll != nil {
			mutateAll(&cfg)
		}
		jobs = append(jobs, job{bench: bench, scheme: sfr.Duplication{}, cfg: cfg, out: &base[bi], cell: cell})
		for vi, v := range vars {
			vcfg := cfg
			v.mutate(&vcfg)
			jobs = append(jobs, job{bench: bench, scheme: v.scheme, cfg: vcfg, out: &results[vi][bi],
				label: v.name, cell: cell})
		}
	}
	if err := runJobs(opt, jobs); err != nil {
		return nil, nil, err
	}
	perBench := map[string][]float64{}
	gmeans := make([]float64, len(vars))
	for vi := range vars {
		var sp []float64
		for bi, bench := range opt.Benchmarks {
			s := results[vi][bi].Speedup(base[bi])
			perBench[bench] = append(perBench[bench], 0) // placeholder grow
			perBench[bench][vi] = s
			sp = append(sp, s)
		}
		gmeans[vi] = stats.GeoMean(sp)
	}
	return perBench, gmeans, nil
}
