package experiments

import (
	"fmt"

	"chopin/internal/sfr"
	"chopin/internal/stats"
)

func init() {
	register("fig15", "Fragments passing the depth/stencil test: duplication vs CHOPIN+CompSched", fig15)
	register("fig16", "Sensitivity to artificially retained depth-culled fragments (ut3)", fig16)
}

func fig15(opt *Options) (*Result, error) {
	pts := gpuPoints(2, 4, 8)
	out, err := sweep(opt, pts, []variant{dup, {"CHOPIN", sfr.CHOPIN{}, nil}})
	if err != nil {
		return nil, err
	}
	tbl := stats.NewTable("bench", "GPUs", "dup passed", "CHOPIN+ passed", "ratio", "early share")
	avg := make([]float64, len(pts))
	for bi, bench := range opt.Benchmarks {
		for ci, p := range pts {
			d := out[ci][0][bi].Raster.DepthPassed()
			c := out[ci][1][bi].Raster.DepthPassed()
			ratio := float64(c) / float64(d)
			avg[ci] += ratio / float64(len(opt.Benchmarks))
			early := float64(out[ci][1][bi].Raster.FragsEarlyPassed) / float64(c)
			tbl.AddRow(bench, fmt.Sprint(p.gpus),
				fmt.Sprintf("%d", d), fmt.Sprintf("%d", c),
				fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.1f%%", 100*early))
		}
	}
	notes := []string{}
	for ci, p := range pts {
		notes = append(notes, fmt.Sprintf("avg extra depth-passing fragments at %d GPUs: %+.1f%% (paper: 3%%, 5.4%%, 7.1%%)",
			p.gpus, 100*(avg[ci]-1)))
	}
	return &Result{ID: "fig15", Title: Title("fig15"), Table: tbl, Notes: notes}, nil
}

func fig16(opt *Options) (*Result, error) {
	fractions := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40}
	bench := "ut3"
	base := make([]*stats.FrameStats, 1)
	runs := make([]*stats.FrameStats, len(fractions))
	var jobs []job
	cfg := opt.baseConfig()
	jobs = append(jobs, job{bench: bench, scheme: sfr.Duplication{}, cfg: cfg, out: &base[0]})
	for fi, f := range fractions {
		c := cfg
		c.Raster.RetainCulledFraction = f
		c.Raster.RetainSeed = 42
		jobs = append(jobs, job{bench: bench, scheme: sfr.CHOPIN{}, cfg: c, out: &runs[fi],
			cell: fmt.Sprintf("retain%.0f", 100*f)})
	}
	if err := runJobs(opt, jobs); err != nil {
		return nil, err
	}
	tbl := stats.NewTable("retained culled", "speedup vs dup", "extra fragments in ROPs")
	baseShaded := runs[0].Raster.FragsShaded
	for fi, f := range fractions {
		extra := float64(runs[fi].Raster.FragsShaded-baseShaded) / float64(baseShaded)
		tbl.AddRow(fmt.Sprintf("%.0f%%", 100*f),
			fmt.Sprintf("%.3f", runs[fi].Speedup(base[0])),
			fmt.Sprintf("%+.1f%%", 100*extra))
	}
	return &Result{ID: "fig16", Title: Title("fig16"), Table: tbl,
		Notes: []string{"paper: nearly half of all culled fragments must be retained before CHOPIN's benefit disappears"}}, nil
}
