package experiments

import (
	"fmt"

	"chopin/internal/multigpu"
	"chopin/internal/sfr"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

func init() {
	register("fig2", "Geometry-processing share of pipeline cycles under conventional SFR (1/2/4/8 GPUs)", fig2)
	register("fig4", "GPUpd overhead: cycles in primitive projection + distribution (2/4/8 GPUs)", fig4)
	register("fig5", "Ideal-system speedups: IdealGPUpd vs IdealCHOPIN over duplication", fig5)
	register("fig8", "Round-robin draw scheduling load imbalance", fig8)
	register("fig13", "Headline: speedups over duplication at 8 GPUs", fig13)
	register("fig14", "Execution-cycle breakdown per scheme, normalized to duplication", fig14)
	register("fig19", "Sensitivity to GPU count (2/4/8/16)", fig19)
	register("fig20", "Sensitivity to inter-GPU link bandwidth (16/32/64/128 GB/s)", fig20)
	register("fig21", "Sensitivity to inter-GPU link latency (100/200/300/400 cycles)", fig21)
}

func fig2(opt *Options) (*Result, error) {
	pts := gpuPoints(1, 2, 4, 8)
	out, err := sweep(opt, pts, []variant{dup})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("bench", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs")
	avg := make([]float64, len(pts))
	for bi, bench := range opt.Benchmarks {
		row := []string{bench}
		for ci := range pts {
			s := out[ci][0][bi].GeometryShare()
			avg[ci] += s / float64(len(opt.Benchmarks))
			row = append(row, fmt.Sprintf("%.1f%%", 100*s))
		}
		tbl.AddRow(row...)
	}
	row := []string{"Avg"}
	for _, a := range avg {
		row = append(row, fmt.Sprintf("%.1f%%", 100*a))
	}
	tbl.AddRow(row...)
	return &Result{ID: "fig2", Title: Title("fig2"), Table: tbl,
		Notes: []string{"geometry share grows with GPU count because every GPU processes all primitives while fragment work splits"}}, nil
}

func fig4(opt *Options) (*Result, error) {
	pts := gpuPoints(2, 4, 8)
	out, err := sweep(opt, pts, []variant{{"GPUpd", sfr.GPUpd{}, nil}})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("bench", "GPUs", "projection", "distribution", "total overhead")
	for bi, bench := range opt.Benchmarks {
		for ci, p := range pts {
			st := out[ci][0][bi]
			proj := float64(st.Phase(stats.PhaseProjection)) / float64(st.TotalCycles)
			dist := float64(st.Phase(stats.PhaseDistribution)) / float64(st.TotalCycles)
			tbl.AddRow(bench, fmt.Sprint(p.gpus),
				fmt.Sprintf("%.1f%%", 100*proj),
				fmt.Sprintf("%.1f%%", 100*dist),
				fmt.Sprintf("%.1f%%", 100*(proj+dist)))
		}
	}
	return &Result{ID: "fig4", Title: Title("fig4"), Table: tbl,
		Notes: []string{"sequential primitive distribution grows into the dominant overhead as GPU count rises"}}, nil
}

// speedupTable runs vars at 8 GPUs and renders one row per benchmark with
// the speedups of vars[from:] over the baseline, then their gmeans.
func speedupTable(opt *Options, vars []variant, from int) (*stats.Table, error) {
	out, err := sweep(opt, at8, vars)
	if err != nil {
		return nil, err
	}
	header := []string{"bench"}
	for _, v := range vars[from:] {
		header = append(header, v.name)
	}
	tbl := stats.NewTable(header...)
	sp, gmeans := speedups(out[0])
	for bi, bench := range opt.Benchmarks {
		row := []string{bench}
		for _, s := range sp[from:] {
			row = append(row, f3(s[bi])...)
		}
		tbl.AddRow(row...)
	}
	tbl.AddRow(append([]string{"GMean"}, f3(gmeans[from:]...)...)...)
	return tbl, nil
}

func fig5(opt *Options) (*Result, error) {
	tbl, err := speedupTable(opt, []variant{dup,
		{"IdealGPUpd", sfr.GPUpd{}, idealLink},
		{"IdealCHOPIN", sfr.CHOPIN{}, idealLink},
	}, 0)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig5", Title: Title("fig5"), Table: tbl}, nil
}

func fig8(opt *Options) (*Result, error) {
	tbl, err := speedupTable(opt, []variant{dup,
		{"GPUpd", sfr.GPUpd{}, nil},
		{"CHOPIN_Round_Robin", sfr.CHOPIN{RoundRobin: true}, noCompSched},
	}, 0)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig8", Title: Title("fig8"), Table: tbl,
		Notes: []string{"round-robin ignores draw sizes and execution state, causing load imbalance"}}, nil
}

func fig13(opt *Options) (*Result, error) {
	tbl, err := speedupTable(opt, fig13Vars, 1)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig13", Title: Title("fig13"), Table: tbl,
		Notes: []string{"speedups normalized to primitive duplication at the same GPU count (paper: CHOPIN+CompSched 1.25x gmean, up to 1.56x)"}}, nil
}

// fig14 breaks down the runs of fig13.
func fig14(opt *Options) (*Result, error) {
	out, err := sweep(opt, at8, fig13Vars)
	if err != nil {
		return nil, err
	}
	res := out[0]
	tbl := stats.NewTable("bench", "scheme", "normal", "projection", "distribution", "composition", "sync", "total")
	for bi, bench := range opt.Benchmarks {
		d := float64(res[0][bi].TotalCycles)
		for vi, v := range fig13Vars {
			st := res[vi][bi]
			tbl.AddRow(bench, v.name,
				fmt.Sprintf("%.3f", float64(st.Phase(stats.PhaseNormal))/d),
				fmt.Sprintf("%.3f", float64(st.Phase(stats.PhaseProjection))/d),
				fmt.Sprintf("%.3f", float64(st.Phase(stats.PhaseDistribution))/d),
				fmt.Sprintf("%.3f", float64(st.Phase(stats.PhaseComposition))/d),
				fmt.Sprintf("%.3f", float64(st.Phase(stats.PhaseSync))/d),
				fmt.Sprintf("%.3f", float64(st.TotalCycles)/d))
		}
	}
	return &Result{ID: "fig14", Title: Title("fig14"), Table: tbl,
		Notes: []string{"all columns normalized to the duplication baseline's total cycles"}}, nil
}

func fig19(opt *Options) (*Result, error) {
	tbl, err := gmeanSweep(opt, gpuPoints(2, 4, 8, 16), fig13Vars,
		"GPUs", "GPUpd", "IdealGPUpd", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN")
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig19", Title: Title("fig19"), Table: tbl,
		Notes: []string{"gmean speedup vs duplication at the SAME GPU count; CHOPIN scales, GPUpd does not"}}, nil
}

func fig20(opt *Options) (*Result, error) {
	var pts []point
	for _, bw := range []float64{16, 32, 64, 128} {
		pts = append(pts, point{8, fmt.Sprintf("bw%.0f", bw), func(c *multigpu.Config) {
			c.Link.BytesPerCycle = bw // GB/s at 1 GHz = bytes/cycle
		}, []string{fmt.Sprintf("%.0f", bw)}})
	}
	tbl, err := gmeanSweep(opt, pts, fig13Vars,
		"GB/s", "GPUpd", "IdealGPUpd", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN")
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig20", Title: Title("fig20"), Table: tbl}, nil
}

func fig21(opt *Options) (*Result, error) {
	var pts []point
	for _, lat := range []int{100, 200, 300, 400} {
		pts = append(pts, point{8, fmt.Sprintf("lat%d", lat), func(c *multigpu.Config) {
			c.Link.LatencyCycles = sim.Cycle(lat)
		}, []string{fmt.Sprint(lat)}})
	}
	tbl, err := gmeanSweep(opt, pts, fig13Vars,
		"cycles", "GPUpd", "IdealGPUpd", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN")
	if err != nil {
		return nil, err
	}
	return &Result{ID: "fig21", Title: Title("fig21"), Table: tbl,
		Notes: []string{"GPUpd pays the link latency once per source GPU per batch; CHOPIN's bulk transfers amortize it"}}, nil
}
