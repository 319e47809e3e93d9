package experiments

import (
	"fmt"
	"slices"

	"chopin/internal/core"
	"chopin/internal/multigpu"
	"chopin/internal/sfr"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// The "ext-" experiments go beyond the paper's evaluation: they implement
// the extensions the paper sketches (draw reordering, Section IV-A) and the
// comparisons its introduction motivates (AFR micro-stuttering, Section I).

func init() {
	register("ext-afr", "Extension: AFR vs SFR — average frame rate vs frame latency and micro-stutter", extAFR)
	register("ext-reorder", "Extension: draw-command reordering to enlarge composition groups", extReorder)
	register("ext-taxonomy", "Extension: the full Molnar sorting taxonomy — sort-first (GPUpd), sort-middle, sort-last (CHOPIN)", extTaxonomy)
}

func extAFR(opt *Options) (*Result, error) {
	const frames = 8
	tbl := stats.NewTable("bench", "scheme", "avg frame interval", "max frame interval", "avg latency")
	cfg := opt.baseConfig()
	cfg.Cancel = func() bool { return opt.Ctx.Err() != nil }
	for _, name := range opt.Benchmarks {
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
		b, err := trace.ByName(name)
		if err != nil {
			return nil, err
		}
		seq := trace.GenerateSequence(b, opt.Scale, frames)
		afrSys, err := multigpu.New(cfg, seq[0].Width, seq[0].Height)
		if err != nil {
			return nil, err
		}
		afr, err := sfr.RunAFR(afrSys, seq)
		if err != nil {
			return nil, afrErr(opt, fmt.Errorf("AFR on %s: %w", name, err))
		}
		chop, err := sfr.RunSFRSequence(cfg, sfr.CHOPIN{}, seq)
		if err != nil {
			return nil, afrErr(opt, fmt.Errorf("CHOPIN sequence on %s: %w", name, err))
		}

		for _, s := range []*sfr.SequenceStats{afr, chop} {
			tbl.AddRow(name, s.Scheme,
				fmt.Sprintf("%.0f", s.AvgFrameInterval()),
				fmt.Sprintf("%d", s.MaxFrameInterval()),
				fmt.Sprintf("%.0f", s.AvgLatency()))
		}
	}
	return &Result{ID: "ext-afr", Title: Title("ext-afr"), Table: tbl, Notes: []string{
		"AFR overlaps whole frames across GPUs: high average frame rate, but every frame still",
		"takes a full single-GPU render (latency) and display gaps bunch (micro-stutter, Section I);",
		"SFR (CHOPIN) improves the latency of every individual frame",
	}}, nil
}

// afrErr reports a canceled experiment as the context's error, as runJobs
// does, and any other failure as err.
func afrErr(opt *Options, err error) error {
	if ctxErr := opt.Ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

func extReorder(opt *Options) (*Result, error) {
	out, err := sweep(opt, at8, []variant{dup,
		{"CHOPIN", sfr.CHOPIN{}, nil},
		{"CHOPIN_Reorder", sfr.CHOPIN{Reorder: true}, nil},
	})
	if err != nil {
		return nil, err
	}
	sp, gmeans := speedups(out[0])
	threshold := opt.baseConfig().GroupThreshold
	tbl := stats.NewTable("bench", "groups", "groups reordered", "accel tris", "accel tris reordered", "CHOPIN", "CHOPIN_Reorder")
	for bi, name := range opt.Benchmarks {
		fr, err := frameFor(name, opt.Scale)
		if err != nil {
			return nil, err
		}
		before := core.Summarize(core.Plan(fr.Draws, threshold))
		after := core.Summarize(core.Plan(core.Reorder(fr.Draws), threshold))
		tbl.AddRow(name,
			fmt.Sprintf("%d", before.Groups), fmt.Sprintf("%d", after.Groups),
			fmt.Sprintf("%.1f%%", 100*float64(before.TrianglesAccel)/float64(max(1, before.TrianglesTotal))),
			fmt.Sprintf("%.1f%%", 100*float64(after.TrianglesAccel)/float64(max(1, after.TrianglesTotal))),
			fmt.Sprintf("%.3f", sp[1][bi]), fmt.Sprintf("%.3f", sp[2][bi]))
	}
	tbl.AddRow(append([]string{"GMean", "", "", "", ""}, f3(gmeans[1:]...)...)...)
	return &Result{ID: "ext-reorder", Title: Title("ext-reorder"), Table: tbl, Notes: []string{
		"reordering groups draws with identical opaque depth-write state, merging adjacent groups;",
		"the reordered stream provably renders the same image (opaque depth-writing draws commute)",
	}}, nil
}

func extTaxonomy(opt *Options) (*Result, error) {
	out, err := sweep(opt, at8, []variant{dup,
		{"GPUpd", sfr.GPUpd{}, nil},
		{"SortMiddle", sfr.SortMiddle{}, nil},
		{"CHOPIN", sfr.CHOPIN{}, nil},
	})
	if err != nil {
		return nil, err
	}
	sp, gmeans := speedups(out[0])
	tbl := stats.NewTable("bench", "GPUpd (sort-first)", "SortMiddle", "CHOPIN (sort-last)", "exchange MB (middle)", "composition MB (last)")
	for bi, name := range opt.Benchmarks {
		tbl.AddRow(name,
			fmt.Sprintf("%.3f", sp[1][bi]),
			fmt.Sprintf("%.3f", sp[2][bi]),
			fmt.Sprintf("%.3f", sp[3][bi]),
			stats.MB(out[0][2][bi].PrimDistBytes),
			stats.MB(out[0][3][bi].CompositionBytes))
	}
	tbl.AddRow(slices.Concat([]string{"GMean"}, f3(gmeans[1:]...), []string{"", ""})...)
	return &Result{ID: "ext-taxonomy", Title: Title("ext-taxonomy"), Table: tbl, Notes: []string{
		"sort-middle eliminates redundant geometry like sort-last, but ships ~288 B of",
		"post-geometry attributes per primitive — the bandwidth cost that makes it rarely",
		"adopted (paper Section III-A); CHOPIN's sub-image exchange is screen-bounded instead",
	}}, nil
}
