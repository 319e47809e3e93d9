package experiments

import (
	"fmt"
	"math"
	"sort"

	"chopin/internal/core"
	"chopin/internal/multigpu"
	"chopin/internal/sfr"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

func init() {
	register("fig9", "Per-draw triangle rate: geometry stage vs whole pipeline (cod2, 1 GPU)", fig9)
	register("fig17", "Composition traffic load per benchmark (CHOPIN+CompSched, 8 GPUs)", fig17)
	register("fig18", "Sensitivity to the draw-scheduler update interval (1/256/512/1024 triangles)", fig18)
	register("fig22", "Sensitivity to the composition-group size threshold (256/1024/4096/16384 triangles)", fig22)
	register("tab2", "Simulated architecture configuration (Table II)", tab2)
	register("tab3", "Benchmark characteristics (Table III)", tab3)
	register("sec6d", "Scheduler traffic scalability (Section VI-D)", sec6d)
	register("sec6e", "Composition-group size distribution and threshold coverage (Section VI-E)", sec6e)
	register("sec6f", "Scheduler hardware cost (Section VI-F)", sec6f)
}

func fig9(opt *Options) (*Result, error) {
	bench := "cod2"
	if len(opt.Benchmarks) == 1 {
		bench = opt.Benchmarks[0]
	}
	cfg := opt.baseConfig()
	cfg.NumGPUs = 1
	cfg.RecordPerDraw = true
	out := make([]*stats.FrameStats, 1)
	if err := runJobs(opt, []job{{bench: bench, scheme: sfr.Duplication{}, cfg: cfg, out: &out[0]}}); err != nil {
		return nil, err
	}
	tbl := stats.NewTable("draw", "triangles", "geom cyc/tri", "pipeline cyc/tri")
	timings := out[0].PerDraw
	step := 1
	if len(timings) > 60 {
		step = len(timings) / 60 // downsample for readability
	}
	var geomRates, pipeRates []float64
	for i := 0; i < len(timings); i++ {
		tm := timings[i]
		if tm.Triangles == 0 {
			continue
		}
		g := float64(tm.GeomCycles) / float64(tm.Triangles)
		p := float64(tm.PipeCycles) / float64(tm.Triangles)
		geomRates = append(geomRates, g)
		pipeRates = append(pipeRates, p)
		if i%step == 0 {
			tbl.AddRow(fmt.Sprintf("%d", tm.DrawID), fmt.Sprintf("%d", tm.Triangles),
				fmt.Sprintf("%.1f", g), fmt.Sprintf("%.1f", p))
		}
	}
	rho := spearman(geomRates, pipeRates)
	return &Result{ID: "fig9", Title: Title("fig9"), Table: tbl,
		Notes: []string{fmt.Sprintf("Spearman rank correlation of geometry vs whole-pipeline triangle rates: %.3f — per-draw geometry rate tracks whole-pipeline rate (outlier draws with extreme fragment loads excepted), supporting the remaining-triangle heuristic of Fig. 10", rho)}}, nil
}

// spearman computes the Spearman rank correlation of two equal-length
// samples (robust to the extreme fragment-rate outliers of tiny draws).
func spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	rank := func(xs []float64) []float64 {
		idx := make([]int, len(xs))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
		r := make([]float64, len(xs))
		for pos, i := range idx {
			r[i] = float64(pos)
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= float64(len(ra))
	mb /= float64(len(rb))
	var num, da, db float64
	for i := range ra {
		num += (ra[i] - ma) * (rb[i] - mb)
		da += (ra[i] - ma) * (ra[i] - ma)
		db += (rb[i] - mb) * (rb[i] - mb)
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func fig17(opt *Options) (*Result, error) {
	out, err := sweep(opt, at8, []variant{{"CHOPIN", sfr.CHOPIN{}, nil}})
	if err != nil {
		return nil, err
	}
	runs := out[0][0]
	tbl := stats.NewTable("bench", "composition MB", "sync MB", "control KB")
	var total float64
	for bi, bench := range opt.Benchmarks {
		mb := float64(runs[bi].CompositionBytes) / (1 << 20)
		total += mb
		tbl.AddRow(bench, fmt.Sprintf("%.2f", mb),
			stats.MB(runs[bi].SyncBytes),
			fmt.Sprintf("%.1f", float64(runs[bi].ControlBytes)/(1<<10)))
	}
	tbl.AddRow("Avg", fmt.Sprintf("%.2f", total/float64(len(opt.Benchmarks))), "", "")
	return &Result{ID: "fig17", Title: Title("fig17"), Table: tbl,
		Notes: []string{
			"only dirty tiles owned by the destination GPU are exchanged (paper avg: 51.66 MB at full scale)",
			fmt.Sprintf("traffic scales with resolution and trace scale; this run used scale %.2f", opt.Scale),
		}}, nil
}

// chopinVars are fig13's CHOPIN variants after the baseline.
var chopinVars = append([]variant{dup}, fig13Vars[3:]...)

func fig18(opt *Options) (*Result, error) {
	var pts []point
	for _, iv := range []int{1, 256, 512, 1024} {
		pts = append(pts, point{8, fmt.Sprintf("q%d", iv), func(c *multigpu.Config) {
			c.SchedulerQuantum = iv
		}, []string{fmt.Sprintf("every %d tris", iv)}})
	}
	tbl, err := gmeanSweep(opt, pts, chopinVars, "update interval", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN")
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig18", Title: Title("fig18"), Table: tbl,
		Notes: []string{"coarser status updates cost little performance (paper: 1.25x -> 1.22x)"}}, nil
}

func fig22(opt *Options) (*Result, error) {
	var pts []point
	for _, th := range []int{256, 1024, 4096, 16384} {
		scaledTh := trace.ScaledThreshold(th, opt.Scale)
		pts = append(pts, point{8, fmt.Sprintf("th%d", th), func(c *multigpu.Config) {
			c.GroupThreshold = scaledTh
		}, []string{fmt.Sprintf("%d tris", th)}})
	}
	tbl, err := gmeanSweep(opt, pts, chopinVars, "threshold", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN")
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig22", Title: Title("fig22"), Table: tbl,
		Notes: []string{"group sizes are bimodal, so most threshold settings separate the modes identically (thresholds scaled with the trace scale)"}}, nil
}

func tab2(opt *Options) (*Result, error) {
	cfg := multigpu.DefaultConfig()
	tbl := stats.NewTable("structure", "configuration")
	tbl.AddRow("GPU frequency", "1 GHz (cycle-denominated costs)")
	tbl.AddRow("Number of GPUs", fmt.Sprintf("%d", cfg.NumGPUs))
	tbl.AddRow("SMs / ROPs per GPU", "8 / 8 (folded into aggregate stage rates)")
	tbl.AddRow("Geometry cost", fmt.Sprintf("%.1f cyc/vertex + %.1f cyc/tri + %.0f cyc/draw",
		cfg.Costs.CyclesPerVertex, cfg.Costs.CyclesPerTriangle, cfg.Costs.DrawOverheadGeom))
	tbl.AddRow("Fragment cost", fmt.Sprintf("%.1f raster + %.1f shade + %.2f ROP cyc/fragment",
		cfg.Costs.CyclesPerFragment, cfg.Costs.CyclesPerFragShaded, cfg.Costs.CyclesPerFragWritten))
	tbl.AddRow("Composition merge", fmt.Sprintf("%.3f cyc/pixel", cfg.Costs.CyclesPerMergePixel))
	tbl.AddRow("Composition group threshold", fmt.Sprintf("%d primitives", cfg.GroupThreshold))
	tbl.AddRow("Inter-GPU bandwidth", fmt.Sprintf("%.0f GB/s (uni-directional)", cfg.Link.BytesPerCycle))
	tbl.AddRow("Inter-GPU latency", fmt.Sprintf("%d cycles", cfg.Link.LatencyCycles))
	tbl.AddRow("GPUpd batch size", fmt.Sprintf("%d primitives", sfr.GPUpdBatchSize))
	return &Result{ID: "tab2", Title: Title("tab2"), Table: tbl}, nil
}

func tab3(opt *Options) (*Result, error) {
	tbl := stats.NewTable("bench", "title", "resolution", "# draws", "# triangles", "gen draws", "gen tris")
	for _, name := range opt.Benchmarks {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		fr, err := frameFor(name, opt.Scale)
		if err != nil {
			return nil, err
		}
		tbl.AddRow(b.Name, b.Title, fmt.Sprintf("%dx%d", b.Width, b.Height),
			fmt.Sprintf("%d", b.Draws), fmt.Sprintf("%d", b.Triangles),
			fmt.Sprintf("%d", len(fr.Draws)), fmt.Sprintf("%d", fr.TriangleCount()))
	}
	return &Result{ID: "tab3", Title: Title("tab3"), Table: tbl,
		Notes: []string{fmt.Sprintf("'gen' columns are the synthetic trace at scale %.2f", opt.Scale)}}, nil
}

func sec6d(opt *Options) (*Result, error) {
	tbl := stats.NewTable("bench", "tris", "update traffic @1", "@256", "@512", "@1024")
	var tot int64
	for _, name := range opt.Benchmarks {
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		row := []string{name, fmt.Sprintf("%d", b.Triangles)}
		for _, iv := range []int{1, 256, 512, 1024} {
			bytes := core.UpdateTrafficBytes(b.Triangles, iv)
			if iv == 1 {
				tot += bytes
			}
			row = append(row, stats.MB(bytes)+" MB")
		}
		tbl.AddRow(row...)
	}
	n := 8
	compBytes := (n + n) * n * 4
	return &Result{ID: "sec6d", Title: Title("sec6d"), Table: tbl, Notes: []string{
		fmt.Sprintf("average per-triangle update traffic: %.2f MB (paper: 1.7 MB)", float64(tot)/float64(len(opt.Benchmarks))/(1<<20)),
		fmt.Sprintf("composition-scheduler control traffic per group at %d GPUs: %d B (paper: 512 B)", n, compBytes),
		fmt.Sprintf("1M triangles @1024-triangle interval: %.2f KB (paper: ~4 KB)",
			float64(core.UpdateTrafficBytes(1_000_000, 1024))/1024),
	}}, nil
}

func sec6e(opt *Options) (*Result, error) {
	tbl := stats.NewTable("bench", "groups", "accel @4096", "tris covered", "accel @16384", "tris covered")
	var a4, c4, a16, c16 float64
	for _, name := range opt.Benchmarks {
		fr, err := frameFor(name, opt.Scale)
		if err != nil {
			return nil, err
		}
		p4 := core.Summarize(core.Plan(fr.Draws, trace.ScaledThreshold(4096, opt.Scale)))
		p16 := core.Summarize(core.Plan(fr.Draws, trace.ScaledThreshold(16384, opt.Scale)))
		a4 += float64(p4.Accelerated)
		c4 += float64(p4.TrianglesAccel) / float64(p4.TrianglesTotal)
		a16 += float64(p16.Accelerated)
		c16 += float64(p16.TrianglesAccel) / float64(p16.TrianglesTotal)
		tbl.AddRow(name, fmt.Sprintf("%d", p4.Groups),
			fmt.Sprintf("%d", p4.Accelerated),
			fmt.Sprintf("%.2f%%", 100*float64(p4.TrianglesAccel)/float64(p4.TrianglesTotal)),
			fmt.Sprintf("%d", p16.Accelerated),
			fmt.Sprintf("%.2f%%", 100*float64(p16.TrianglesAccel)/float64(p16.TrianglesTotal)))
	}
	nb := float64(len(opt.Benchmarks))
	return &Result{ID: "sec6e", Title: Title("sec6e"), Table: tbl, Notes: []string{
		fmt.Sprintf("avg accelerated groups @4096: %.2f covering %.2f%% of triangles (paper: 6.5 covering 92.44%%)", a4/nb, 100*c4/nb),
		fmt.Sprintf("avg accelerated groups @16384: %.2f covering %.2f%% of triangles (paper: 5.25 covering 89.83%%)", a16/nb, 100*c16/nb),
	}}, nil
}

func sec6f(opt *Options) (*Result, error) {
	tbl := stats.NewTable("GPUs", "draw scheduler bytes", "composition scheduler bytes")
	for _, n := range []int{2, 4, 8, 16, 32} {
		c := core.Cost(n)
		tbl.AddRow(fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", c.DrawSchedulerBytes),
			fmt.Sprintf("%d", c.CompSchedulerBytes))
	}
	return &Result{ID: "sec6f", Title: Title("sec6f"), Table: tbl,
		Notes: []string{"paper (8 GPUs): 128 B draw scheduler, 27 B composition scheduler"}}, nil
}
