// Command chopinsim runs the CHOPIN multi-GPU rendering simulator: single
// scheme simulations or whole paper experiments.
//
// Usage:
//
//	chopinsim -list                         list experiments
//	chopinsim -exp fig13 [-scale 0.25]      reproduce a paper figure/table
//	chopinsim -exp all                      run every experiment
//	chopinsim -bench cry -scheme chopin     simulate one scheme on one trace
//	chopinsim -scheme chopin -gpus 64 -topology mesh -comp-alg radix-k   scale-out run
//	chopinsim -verify -bench cry -scheme chopin   run with invariant checks
//	chopinsim -scheme chopin -timeline t.json -metrics m.csv   capture a timeline
//	chopinsim -selfcheck                    determinism self-check
//	chopinsim -update-golden                re-record golden experiment outputs
//
// Trace scale 1.0 reproduces the paper's Table III workload sizes; smaller
// scales shrink everything proportionally for quick runs.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"chopin/internal/composite/plan"
	"chopin/internal/experiments"
	"chopin/internal/fault"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/obs"
	"chopin/internal/obs/causal"
	"chopin/internal/obs/live"
	"chopin/internal/runrec"
	"chopin/internal/sfr"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// UsageError is a command-line validation failure; main reports it and
// exits with the flag-usage status (2) instead of the runtime-error
// status (1).
type UsageError struct {
	Flag   string
	Reason string
}

func (e *UsageError) Error() string { return fmt.Sprintf("invalid -%s: %s", e.Flag, e.Reason) }

// validateMetricsInterval rejects non-positive counter sampling intervals:
// zero would silently disable periodic sampling and a negative interval
// would make every Tick a sweep (an allocation storm), so both are usage
// errors rather than accepted values.
func validateMetricsInterval(v int64) error {
	if v <= 0 {
		return &UsageError{Flag: "metrics-interval",
			Reason: fmt.Sprintf("sampling interval must be a positive cycle count, got %d", v)}
	}
	return nil
}

// gitRev reports the VCS revision stamped into the binary, or "unknown"
// (e.g. under `go run`, which does not stamp VCS info). Run records embed
// it; it never varies between two runs of the same binary, preserving the
// byte-identical-records contract.
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		exp     = flag.String("exp", "", "experiment to run (see -list), or 'all'")
		scale   = flag.Float64("scale", 0.25, "trace scale in (0,1]; 1.0 = paper-size workloads")
		benches = flag.String("benches", "", "comma-separated benchmark subset (default: all eight)")
		scheme  = flag.String("scheme", "", "single run: duplication | gpupd | sort-middle | chopin | chopin-naive | chopin-rr | chopin-reorder")
		bench   = flag.String("bench", "cod2", "single run: benchmark name")
		gpus    = flag.Int("gpus", 8, "single run: GPU count (up to 64 for the CHOPIN schemes)")
		ideal   = flag.Bool("ideal", false, "single run: idealized inter-GPU links")
		topo    = flag.String("topology", "", "single run: inter-GPU fabric: crossbar | ring | mesh (default crossbar)")
		compAlg = flag.String("comp-alg", "", "single run: CHOPIN composition exchange plan: direct-send | binary-swap | radix-k (default direct-send)")
		radixK  = flag.Int("radix-k", 0, "single run: radix for -comp-alg radix-k (0 = largest supported)")
		pngOut  = flag.String("png", "", "single run: write the rendered frame to this PNG file")
		fabSum  = flag.Bool("fabric-summary", false, "single run: enable fabric link telemetry and print the per-link summary (hottest links, latency quantiles)")
		verify  = flag.Bool("verify", false, "attach the runtime invariant checker to every simulation")
		update  = flag.Bool("update-golden", false, "re-record the golden experiment outputs and exit")
		gdir    = flag.String("golden-dir", "internal/experiments/testdata/golden", "golden output directory (with -update-golden)")
		self    = flag.Bool("selfcheck", false, "run the determinism self-check (sequential vs parallel) and exit")
		verbose = flag.Bool("v", false, "stream per-simulation progress")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
		workers = flag.Int("workers", 0, "concurrent simulations per experiment (0 = GOMAXPROCS)")

		faults    = flag.String("faults", "", "single run: fault-injection spec (drop=P,corrupt=P,dup=P,delay=P:C,degrade=F@A:B,stall=G@A+D,fail=G@A,link:A-B@T) or 'random'")
		faultSeed = flag.Int64("fault-seed", 1, "seed for the fault plan (with -faults)")
		timeout   = flag.Duration("timeout", 0, "wall-clock limit; the simulation cancels cleanly when it expires (0 = none)")

		timeline = flag.String("timeline", "", "single run: write a Perfetto/Chrome trace-event timeline (JSON) to this file")
		metrics  = flag.String("metrics", "", "single run: write sampled counters (CSV) to this file")
		mInterv  = flag.Int64("metrics-interval", obs.DefaultSampleInterval, "single run: counter sampling interval in cycles")

		runrecOut = flag.String("runrec", "", "write a structured run record (JSON) of every simulation to this file")
		listen    = flag.String("listen", "", "serve the live sweep monitor (expvar, pprof, SSE progress) on this address, e.g. :8080")
	)
	flag.Parse()

	if err := validateMetricsInterval(*mInterv); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}()
	}

	switch {
	case *update:
		opt := experiments.GoldenOptions()
		opt.Verbose = *verbose
		opt.Out = os.Stderr
		opt.Workers = *workers
		if err := experiments.UpdateGolden(*gdir, opt); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("re-recorded %d golden files in %s\n", len(experiments.IDs()), *gdir)
	case *self:
		opt := experiments.Options{Scale: *scale, Verify: *verify, Verbose: *verbose, Out: os.Stderr,
			Workers: *workers}
		if *benches != "" {
			opt.Benchmarks = strings.Split(*benches, ",")
		}
		digests, err := experiments.CheckDeterminism(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		for _, d := range digests {
			cfgLabel := d.Cfg
			if cfgLabel == "" {
				cfgLabel = "default"
			}
			fmt.Printf("%-12s %-6s n=%-2d %-22s %12d cycles  image %016x\n",
				d.Scheme, d.Bench, d.GPUs, cfgLabel, d.Cycles, d.Image)
		}
		fmt.Printf("determinism self-check passed: %d simulations identical sequentially and in parallel\n", len(digests))
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
	case *exp != "":
		opt := experiments.Options{
			Scale:   *scale,
			Verify:  *verify,
			Verbose: *verbose,
			Out:     os.Stderr,
			Workers: *workers,
		}
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			opt.Ctx = ctx
		}
		if *benches != "" {
			opt.Benchmarks = strings.Split(*benches, ",")
		}
		ids := []string{*exp}
		if *exp == "all" {
			ids = experiments.IDs()
		}
		var rec *runrec.Recorder
		if *runrecOut != "" {
			benchNames := opt.Benchmarks
			if len(benchNames) == 0 {
				benchNames = trace.Names()
			}
			rec = runrec.NewRecorder(runrec.Meta{
				Tool: "chopinsim", GitRev: gitRev(), Scale: *scale,
				Benchmarks: benchNames, Experiments: ids,
			})
			opt.Record = rec
		}
		var mon *live.Monitor
		if *listen != "" {
			m, err := serveMonitor(*listen)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			mon = m
			opt.Progress = func(e experiments.ProgressEvent) {
				mon.Observe(fmt.Sprintf("%s/%s/%s/n%d", e.Experiment, e.Scheme, e.Bench, e.GPUs),
					e.Done, e.Total)
			}
		}
		for _, id := range ids {
			if mon != nil {
				mon.SetRun(fmt.Sprintf("%s scale=%.2f", id, *scale))
			}
			res, err := experiments.Run(id, opt)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					fmt.Fprintf(os.Stderr, "error: experiment %s exceeded the %s wall-clock limit\n", id, *timeout)
				} else {
					fmt.Fprintln(os.Stderr, "error:", err)
				}
				os.Exit(1)
			}
			fmt.Println(res)
		}
		if mon != nil {
			mon.Finish()
		}
		if rec != nil {
			if err := rec.Record().WriteFile(*runrecOut); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote run record %s (%d rows)\n", *runrecOut, rec.Len())
		}
	case *scheme != "":
		to := traceOpts{
			timeline: *timeline,
			metrics:  *metrics,
			interval: *mInterv,
		}
		fo := faultOpts{spec: *faults, seed: *faultSeed, timeout: *timeout}
		so := scaleOpts{topology: *topo, compAlg: *compAlg, radixK: *radixK}
		if err := runSingle(*scheme, *bench, *gpus, *scale, *ideal, *verify, *fabSum, *pngOut, *runrecOut, to, fo, so); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func schemeByName(name string, cfg *multigpu.Config) (sfr.Scheme, error) {
	switch name {
	case "duplication":
		return sfr.Duplication{}, nil
	case "gpupd":
		return sfr.GPUpd{}, nil
	case "chopin":
		return sfr.CHOPIN{}, nil
	case "chopin-naive":
		cfg.UseCompScheduler = false
		return sfr.CHOPIN{}, nil
	case "chopin-rr":
		cfg.UseCompScheduler = false
		return sfr.CHOPIN{RoundRobin: true}, nil
	case "chopin-reorder":
		return sfr.CHOPIN{Reorder: true}, nil
	case "sort-middle":
		return sfr.SortMiddle{}, nil
	default:
		return nil, fmt.Errorf("unknown scheme %q", name)
	}
}

// traceOpts carries the single-run observability flags.
type traceOpts struct {
	timeline string // Perfetto/Chrome trace-event JSON output path
	metrics  string // sampled-counter CSV output path
	interval int64  // counter sampling interval in cycles
}

func (t traceOpts) enabled() bool { return t.timeline != "" || t.metrics != "" }

// faultOpts carries the single-run fault-injection and timeout flags.
type faultOpts struct {
	spec    string
	seed    int64
	timeout time.Duration
}

// scaleOpts carries the single-run scale-out flags: fabric topology and
// composition exchange plan. Empty strings keep the paper's defaults
// (crossbar, direct send).
type scaleOpts struct {
	topology string
	compAlg  string
	radixK   int
}

// apply resolves the flags into cfg, rejecting unknown names.
func (s scaleOpts) apply(cfg *multigpu.Config) error {
	if s.topology != "" {
		kind, err := interconnect.ParseTopologyKind(s.topology)
		if err != nil {
			return &UsageError{Flag: "topology", Reason: err.Error()}
		}
		cfg.Link.Topology = kind
	}
	if s.compAlg != "" {
		alg, err := plan.ParseAlgorithm(s.compAlg)
		if err != nil {
			return &UsageError{Flag: "comp-alg", Reason: err.Error()}
		}
		cfg.CompAlg = alg
	}
	cfg.RadixK = s.radixK
	return nil
}

// serveMonitor starts the live sweep monitor on addr in the background.
func serveMonitor(addr string) (*live.Monitor, error) {
	mon := live.New()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live monitor: %w", err)
	}
	srv := &http.Server{Handler: mon.Handler()}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "live monitor listening on http://%s\n", ln.Addr())
	return mon, nil
}

func runSingle(scheme, bench string, gpus int, scale float64, ideal, verify, fabricSummary bool, pngOut, recOut string, to traceOpts, fo faultOpts, so scaleOpts) error {
	b, err := trace.ByName(bench)
	if err != nil {
		return err
	}
	fr := trace.Generate(b, scale)
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = gpus
	cfg.Link.Ideal = ideal
	cfg.Verify = verify
	cfg.FabricTelemetry = fabricSummary
	cfg.GroupThreshold = trace.ScaledThreshold(cfg.GroupThreshold, scale)
	if err := so.apply(&cfg); err != nil {
		return err
	}
	if fo.spec != "" {
		if fo.spec == "random" {
			cfg.Faults = fault.RandomPlan(fo.seed, gpus)
		} else {
			fp, err := fault.ParseSpec(fo.spec, fo.seed)
			if err != nil {
				return err
			}
			cfg.Faults = fp
		}
	}
	if fo.timeout > 0 {
		deadline := time.Now().Add(fo.timeout)
		cfg.Cancel = func() bool { return time.Now().After(deadline) }
	}
	s, err := schemeByName(scheme, &cfg)
	if err != nil {
		return err
	}
	var tr *obs.Tracer
	if to.enabled() {
		tr = obs.New()
		// The interval is validated positive at flag-parse time.
		tr.SetSampleInterval(to.interval)
		cfg.Tracer = tr
	}
	sys, err := multigpu.New(cfg, fr.Width, fr.Height)
	if err != nil {
		return err
	}
	st, err := s.Run(sys, fr)
	if err != nil {
		if st != nil {
			printFaultSummary(sys, st)
		}
		return err
	}
	if verify {
		if len(st.Violations) > 0 {
			for _, v := range st.Violations {
				fmt.Fprintln(os.Stderr, "VIOLATION:", v)
			}
			return fmt.Errorf("%d invariant violation(s)", len(st.Violations))
		}
		fmt.Println("verification: all invariants held")
	}

	fmt.Printf("%s on %s (%d GPUs, scale %.2f, %d draws, %d triangles)\n",
		st.Scheme, bench, gpus, scale, len(fr.Draws), fr.TriangleCount())
	fmt.Printf("total cycles: %d\n", st.TotalCycles)
	for _, p := range stats.Phases() {
		if st.Phase(p) > 0 {
			fmt.Printf("  %-13s %12d cycles (%.1f%%)\n", p, st.Phase(p),
				100*float64(st.Phase(p))/float64(st.TotalCycles))
		}
	}
	fmt.Printf("traffic: composition %s MB, primitive-distribution %s MB, sync %s MB, control %s MB\n",
		stats.MB(st.CompositionBytes), stats.MB(st.PrimDistBytes),
		stats.MB(st.SyncBytes), stats.MB(st.ControlBytes))
	fmt.Printf("fragments: generated %d, depth-passed %d, shaded %d\n",
		st.Raster.FragsGenerated, st.Raster.DepthPassed(), st.Raster.FragsShaded)
	if st.GroupsTotal > 0 {
		fmt.Printf("composition groups: %d total, %d accelerated (%d triangles)\n",
			st.GroupsTotal, st.GroupsAccelerated, st.TrianglesAccelerated)
	}
	printFaultSummary(sys, st)
	if fabricSummary {
		printFabricSummary(sys, st)
	}
	if recOut != "" {
		seed := int64(0)
		if fo.spec != "" {
			seed = fo.seed
		}
		rec := runrec.NewRecorder(runrec.Meta{
			Tool: "chopinsim", GitRev: gitRev(), Scale: scale, Seed: seed,
			Benchmarks: []string{bench}, Experiments: []string{"single"},
		})
		row := runrec.FromStats(runrec.Key{Experiment: "single", Scheme: st.Scheme,
			Bench: bench, GPUs: gpus}, cfg.Fingerprint(), st)
		for _, c := range cfg.Tracer.CounterFinals() {
			row.Metrics[runrec.CounterMetric(c.Pid, c.Name)] = float64(c.Val)
		}
		if tr != nil {
			cm, err := causalMetrics(tr)
			if err != nil {
				return fmt.Errorf("causal analysis of captured timeline: %w", err)
			}
			for k, v := range cm {
				row.Metrics[k] = v
			}
		}
		rec.Add(row)
		if err := rec.Record().WriteFile(recOut); err != nil {
			return err
		}
		fmt.Printf("wrote run record %s (1 row)\n", recOut)
	}
	img := sys.AssembleImage(0)
	fmt.Printf("display image checksum: %016x\n", img.Checksum())
	if pngOut != "" {
		f, err := os.Create(pngOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := img.WritePNG(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", pngOut)
	}
	if tr != nil {
		if err := writeTrace(tr, st, to); err != nil {
			return err
		}
	}
	return nil
}

// printFaultSummary reports injected-fault and recovery activity, including
// downed fabric links and the reroute outcome; silent on fault-free runs.
func printFaultSummary(sys *multigpu.System, st *stats.FrameStats) {
	f := st.Faults
	downed := sys.Fabric.DownedLinks()
	if f.Total()+f.Retries+f.Timeouts+f.Lost == 0 && st.GPUsFailed == 0 &&
		len(downed) == 0 {
		return
	}
	fmt.Printf("faults: %d injected (drop %d, corrupt %d, dup %d, delay %d); protocol: %d retries, %d timeouts, %d lost\n",
		f.Total(), f.Drops, f.Corrupts, f.Duplicates, f.Delays, f.Retries, f.Timeouts, f.Lost)
	if len(downed) > 0 {
		names := make([]string, len(downed))
		for i, l := range downed {
			names[i] = fmt.Sprintf("%d-%d", l[0], l[1])
		}
		fmt.Printf("links down: %s; reroutes %d, unroutable %d\n",
			strings.Join(names, " "), sys.Fabric.RerouteCount(), sys.Fabric.UnroutableCount())
	}
	if st.GPUsFailed > 0 {
		fmt.Printf("recovery: %d GPU(s) failed; degraded-mode recovery took %d cycles\n",
			st.GPUsFailed, st.RecoveryCycles)
	}
}

// printFabricSummary reports the fabric link telemetry of a single run: the
// digest captured into FrameStats plus the hottest links from the live
// collector. Fully deterministic — same run, same bytes.
func printFabricSummary(sys *multigpu.System, st *stats.FrameStats) {
	lt := sys.Fabric.LinkTelemetry()
	if lt == nil || st.Fabric == nil {
		fmt.Println("fabric telemetry: not available (ideal fabric has no links to meter)")
		return
	}
	fb := st.Fabric
	fmt.Printf("fabric: %d links (%d active), %d transfers, mean hops %.2f\n",
		fb.Links, fb.ActiveLinks, fb.Transfers, fb.MeanHops)
	fmt.Printf("transfer latency: p50 %d, p90 %d, p99 %d cycles; link-wait %d cycles total\n",
		fb.LatencyP50, fb.LatencyP90, fb.LatencyP99, fb.QueuedCycles)
	top := lt.Top(5)
	if len(top) == 0 {
		fmt.Println("no link carried traffic")
		return
	}
	fmt.Println("hottest links:")
	tbl := stats.NewTable("link", "busy", "util%", "MB", "transfers", "queued", "retries")
	for _, l := range top {
		util := 0.0
		if st.TotalCycles > 0 {
			util = 100 * float64(l.Busy) / float64(st.TotalCycles)
		}
		tbl.AddRow(l.Name, fmt.Sprintf("%d", l.Busy), fmt.Sprintf("%.1f", util),
			stats.MB(l.Bytes), fmt.Sprintf("%d", l.Transfers),
			fmt.Sprintf("%d", l.Queued), fmt.Sprintf("%d", l.Retries))
	}
	fmt.Print(tbl.String())
}

// causalMetrics round-trips the captured timeline through the exporter and
// the causal engine (exactly what chopintrace -critical does) and returns
// the run-record metrics: the causal makespan and critical path, and the
// per-category attribution (attr_<category>). A trace with no
// category-tagged spans yields no metrics rather than an error.
func causalMetrics(tr *obs.Tracer) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	tf, err := obs.Load(&buf)
	if err != nil {
		return nil, err
	}
	rep, err := causal.AnalyzeTrace(tf)
	if errors.Is(err, causal.ErrNoCategories) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]float64{
		"causal_makespan":      float64(rep.Makespan),
		"causal_critical_path": float64(rep.CriticalPath),
	}
	for _, a := range rep.Attribution {
		m["attr_"+a.Category] = float64(a.Cycles)
	}
	return m, nil
}

// writeTrace exports the captured timeline/metrics and prints the
// phase-reconciliation check: the span totals on the sim/phases track must
// equal the per-phase cycle attribution in FrameStats.
func writeTrace(tr *obs.Tracer, st *stats.FrameStats, to traceOpts) error {
	if to.timeline != "" {
		f, err := os.Create(to.timeline)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote timeline %s (%d events; load in https://ui.perfetto.dev)\n",
			to.timeline, len(tr.Events()))
	}
	if to.metrics != "" {
		f, err := os.Create(to.metrics)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote metrics %s\n", to.metrics)
	}
	totals := tr.SpanTotals(obs.SimProcName, "phases")
	ok := true
	for _, p := range stats.Phases() {
		if got, want := totals[p.String()], st.Phase(p); got != want {
			fmt.Printf("phase reconciliation MISMATCH: %s spans %d cycles, stats %d cycles\n", p, got, want)
			ok = false
		}
	}
	if ok {
		fmt.Println("phase reconciliation: span totals match stats.FrameStats phase cycles")
	}
	return nil
}
