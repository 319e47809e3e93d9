package runrec

import (
	"fmt"
	"hash/fnv"
	"html"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"chopin/internal/obs"
	"chopin/internal/stats"
)

// Report rendering: a run record becomes one self-contained XHTML page with
// inline SVG figures — a speedup-vs-GPU-count line chart and a phase stacked
// bar per experiment, plus a fault-cost table when the record carries fault
// metrics. No external assets, scripts, or network fetches: the file is the
// artifact. The markup is well-formed XML on purpose so tests can validate
// it with encoding/xml.

// schemeSlots pins each known scheme to a categorical palette slot so a
// scheme keeps its color across figures and across reports, regardless of
// which subset of schemes an experiment ran.
var schemeSlots = map[string]int{
	"Duplication":      1,
	"GPUpd":            2,
	"IdealGPUpd":       3,
	"CHOPIN":           4,
	"CHOPIN+CompSched": 5,
	"IdealCHOPIN":      6,
	"SortMiddle":       7,
	// Scale-out exchange-plan variants (the scale64 experiment) reuse slots
	// of schemes they never share a figure with; within a scale64 figure
	// (Duplication + the four plans) all five slots are distinct.
	"CHOPIN/direct-send": 4,
	"CHOPIN/binary-swap": 2,
	"CHOPIN/radix-k":     3,
}

// schemeRanks orders schemes whose legend position should differ from
// their palette slot; everything else ranks by slot.
var schemeRanks = map[string]int{
	"CHOPIN/direct-send": 10,
	"CHOPIN/binary-swap": 11,
	"CHOPIN/radix-k":     12,
}

// schemeRank orders schemes canonically (legend and bar order).
func schemeRank(name string) int {
	if r, ok := schemeRanks[name]; ok {
		return r
	}
	if s, ok := schemeSlots[name]; ok {
		return s
	}
	return 100
}

// slotFor returns the palette slot for a scheme; unknown schemes hash
// deterministically over the palette, so distinct ad-hoc labels in one
// figure usually land on distinct colors and a label keeps its color
// across reports.
func slotFor(name string) int {
	if s, ok := schemeSlots[name]; ok {
		return s
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32()%8) + 1
}

// phaseSlot colors execution phases; the mapping is fixed for the same
// reason schemeSlots is.
func phaseSlot(i int) int {
	if i < 8 {
		return i + 1
	}
	return 8
}

const baselineScheme = "Duplication"

// figure is one (experiment, cell) group of rows, the unit a chart is
// built from.
type figure struct {
	exp, cell string
	rows      []*Row
}

func (f *figure) label() string {
	if f.cell == "" {
		return f.exp
	}
	return f.exp + "[" + f.cell + "]"
}

// groupFigures splits the record into (experiment, cell) groups, sorted.
func groupFigures(rec *Record) []*figure {
	idx := map[[2]string]*figure{}
	var figs []*figure
	for i := range rec.Rows {
		r := &rec.Rows[i]
		k := [2]string{r.Experiment, r.Cell}
		f := idx[k]
		if f == nil {
			f = &figure{exp: r.Experiment, cell: r.Cell}
			idx[k] = f
			figs = append(figs, f)
		}
		f.rows = append(f.rows, r)
	}
	sort.Slice(figs, func(a, b int) bool {
		if figs[a].exp != figs[b].exp {
			return figs[a].exp < figs[b].exp
		}
		return figs[a].cell < figs[b].cell
	})
	return figs
}

// baselineCycles indexes the figure's Duplication rows by (bench, gpus).
func (f *figure) baselineCycles() map[[2]string]float64 {
	base := map[[2]string]float64{}
	for _, r := range f.rows {
		if r.Scheme == baselineScheme {
			base[[2]string{r.Bench, fmt.Sprint(r.GPUs)}] = r.Metrics["total_cycles"]
		}
	}
	return base
}

// speedupSeries is one scheme's speedup-vs-GPU-count curve: the geometric
// mean over benchmarks of baseline cycles / scheme cycles at each count.
type speedupSeries struct {
	scheme string
	points map[int]float64 // gpus -> gmean speedup
}

// speedups derives the figure's speedup curves. Nil when the figure has no
// Duplication baseline or no non-baseline scheme to compare.
func (f *figure) speedups() ([]speedupSeries, []int) {
	base := f.baselineCycles()
	if len(base) == 0 {
		return nil, nil
	}
	logSum := map[string]map[int]float64{}
	logN := map[string]map[int]int{}
	gpuSet := map[int]bool{}
	for _, r := range f.rows {
		if r.Scheme == baselineScheme {
			continue
		}
		b := base[[2]string{r.Bench, fmt.Sprint(r.GPUs)}]
		c := r.Metrics["total_cycles"]
		if b <= 0 || c <= 0 {
			continue
		}
		if logSum[r.Scheme] == nil {
			logSum[r.Scheme] = map[int]float64{}
			logN[r.Scheme] = map[int]int{}
		}
		logSum[r.Scheme][r.GPUs] += math.Log(b / c)
		logN[r.Scheme][r.GPUs]++
		gpuSet[r.GPUs] = true
	}
	if len(logSum) == 0 {
		return nil, nil
	}
	var gpus []int
	for n := range gpuSet {
		gpus = append(gpus, n)
	}
	sort.Ints(gpus)
	var out []speedupSeries
	for scheme, sums := range logSum {
		s := speedupSeries{scheme: scheme, points: map[int]float64{}}
		for n, sum := range sums {
			s.points[n] = math.Exp(sum / float64(logN[scheme][n]))
		}
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		ra, rb := schemeRank(out[a].scheme), schemeRank(out[b].scheme)
		if ra != rb {
			return ra < rb
		}
		return out[a].scheme < out[b].scheme
	})
	return out, gpus
}

// phaseBreakdown is one scheme's mean per-phase cycle fractions of the
// Duplication baseline total, at the figure's largest GPU count.
type phaseBreakdown struct {
	scheme string
	frac   []float64 // aligned with the phases slice returned alongside
}

// phases derives the figure's stacked-bar data at its largest GPU count.
func (f *figure) phases() ([]phaseBreakdown, []string) {
	base := f.baselineCycles()
	if len(base) == 0 {
		return nil, nil
	}
	maxGPUs := 0
	for _, r := range f.rows {
		if r.GPUs > maxGPUs {
			maxGPUs = r.GPUs
		}
	}
	all := stats.Phases()
	sum := map[string][]float64{}
	n := map[string]int{}
	for _, r := range f.rows {
		if r.GPUs != maxGPUs {
			continue
		}
		b := base[[2]string{r.Bench, fmt.Sprint(r.GPUs)}]
		if b <= 0 {
			continue
		}
		if sum[r.Scheme] == nil {
			sum[r.Scheme] = make([]float64, len(all))
		}
		for i, p := range all {
			sum[r.Scheme][i] += r.Metrics["phase_"+p.String()] / b
		}
		n[r.Scheme]++
	}
	if len(sum) == 0 {
		return nil, nil
	}
	used := make([]bool, len(all))
	var bds []phaseBreakdown
	for scheme, s := range sum {
		bd := phaseBreakdown{scheme: scheme, frac: make([]float64, len(all))}
		for i := range s {
			bd.frac[i] = s[i] / float64(n[scheme])
			if bd.frac[i] > 0 {
				used[i] = true
			}
		}
		bds = append(bds, bd)
	}
	sort.Slice(bds, func(a, b int) bool {
		ra, rb := schemeRank(bds[a].scheme), schemeRank(bds[b].scheme)
		if ra != rb {
			return ra < rb
		}
		return bds[a].scheme < bds[b].scheme
	})
	// Drop phases that are zero everywhere so the legend stays honest.
	var names []string
	for i, p := range all {
		if used[i] {
			names = append(names, p.String())
		}
	}
	for bi := range bds {
		var frac []float64
		for i := range all {
			if used[i] {
				frac = append(frac, bds[bi].frac[i])
			}
		}
		bds[bi].frac = frac
	}
	return bds, names
}

// bottleneckRow is one row's causal bottleneck attribution: per-category
// cycle fractions of the row's own causal makespan (summing to 1).
type bottleneckRow struct {
	label string
	frac  []float64 // aligned with obs.Categories()
}

// bottleneckRows extracts the rows carrying causal attribution metrics
// (attr_<category>, recorded by chopinsim when a run is traced), in key
// order so output is deterministic.
func bottleneckRows(rec *Record) []bottleneckRow {
	cats := obs.Categories()
	var out []bottleneckRow
	for i := range rec.Rows {
		r := &rec.Rows[i]
		mk := r.Metrics["causal_makespan"]
		if mk <= 0 {
			continue
		}
		br := bottleneckRow{label: r.Key.String(), frac: make([]float64, len(cats))}
		for ci, c := range cats {
			br.frac[ci] = r.Metrics["attr_"+c.String()] / mk
		}
		out = append(out, br)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].label < out[b].label })
	return out
}

// writeBottlenecks renders the causal bottleneck figure: one stacked bar per
// traced row, its category cycles as fractions of the row's causal makespan.
func writeBottlenecks(b *strings.Builder, rec *Record) {
	rows := bottleneckRows(rec)
	if len(rows) == 0 {
		return
	}
	cats := obs.Categories()
	b.WriteString("<h2>causal bottleneck attribution</h2>\n")
	const barH, barGap, labW = 20, 10, 190
	plotW := float64(chW - labW - 70)
	h := padT + len(rows)*(barH+barGap) + 46
	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="causal bottleneck attribution">`+"\n",
		chW, h, chW, h)
	baseY := padT + len(rows)*(barH+barGap)
	for _, v := range []float64{0, 0.5, 1.0} {
		x := float64(labW) + plotW*v
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="var(--grid)" stroke-width="1"/>`+"\n",
			x, padT, x, baseY)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%.1f</text>`+"\n", x, baseY+16, v)
	}
	for ri, row := range rows {
		y := padT + ri*(barH+barGap)
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end" class="lab">%s</text>`+"\n",
			labW-8, y+barH-5, esc(row.label))
		x := float64(labW)
		for ci, v := range row.frac {
			if v <= 0 {
				continue
			}
			w := plotW * v
			fmt.Fprintf(b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="var(--s%d)"><title>%s %s: %.3f of causal makespan</title></rect>`+"\n",
				x, y, math.Max(w-2, 0.5), barH, ci%8+1, esc(row.label), cats[ci].String(), v)
			x += w
		}
	}
	lx := labW
	ly := baseY + 28
	for ci, c := range cats {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" rx="2" fill="var(--s%d)"/>`+"\n", lx, ly, ci%8+1)
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="start" class="lab">%s</text>`+"\n", lx+16, ly+10, c.String())
		lx += 22 + 9*len(c.String())
	}
	b.WriteString("</svg>\n")
}

// linkHeatRow is one telemetry-enabled row's per-link utilization vector,
// reconstructed from the link_util:<id> metric family.
type linkHeatRow struct {
	label string
	row   *Row
	util  []float64 // indexed by link id; length fabric_links
	max   float64
}

// linkHeatRows extracts the rows carrying fabric link telemetry (fabric_links
// plus link_util:<id>, recorded when a run enables FabricTelemetry), in key
// order so output is deterministic.
func linkHeatRows(rec *Record) []linkHeatRow {
	var out []linkHeatRow
	for i := range rec.Rows {
		r := &rec.Rows[i]
		links := int(r.Metrics["fabric_links"])
		if links <= 0 {
			continue
		}
		hr := linkHeatRow{label: r.Key.String(), row: r, util: make([]float64, links)}
		for m, v := range r.Metrics {
			rest, ok := strings.CutPrefix(m, "link_util:")
			if !ok {
				continue
			}
			l, err := strconv.Atoi(rest)
			if err != nil || l < 0 || l >= links {
				continue
			}
			hr.util[l] = v
			if v > hr.max {
				hr.max = v
			}
		}
		out = append(out, hr)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].label < out[b].label })
	return out
}

// writeLinkHeatmap renders the fabric link-utilization figure: one heat strip
// per telemetry-enabled row (one cell per directed link, opacity proportional
// to that link's busy fraction of the frame, on a shared scale) plus a table
// of the frame-level fabric digest metrics.
func writeLinkHeatmap(b *strings.Builder, rec *Record) {
	rows := linkHeatRows(rec)
	if len(rows) == 0 {
		return
	}
	gmax := 0.0
	for _, hr := range rows {
		if hr.max > gmax {
			gmax = hr.max
		}
	}
	if gmax <= 0 {
		gmax = 1
	}
	b.WriteString("<h2>fabric link utilization</h2>\n")
	const stripH, stripGap, labW = 20, 10, 190
	plotW := float64(chW - labW - 70)
	h := padT + len(rows)*(stripH+stripGap) + 30
	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="per-link utilization heatmap">`+"\n",
		chW, h, chW, h)
	for ri, hr := range rows {
		y := padT + ri*(stripH+stripGap)
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end" class="lab">%s</text>`+"\n",
			labW-8, y+stripH-5, esc(hr.label))
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="%.1f" height="%d" fill="none" stroke="var(--grid)" stroke-width="1"/>`+"\n",
			labW, y, plotW, stripH)
		cw := plotW / float64(len(hr.util))
		for l, u := range hr.util {
			if u <= 0 {
				continue
			}
			x := float64(labW) + cw*float64(l)
			fmt.Fprintf(b, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="var(--s8)" fill-opacity="%.3f"><title>%s link %d: %.1f%% busy</title></rect>`+"\n",
				x, y, math.Max(cw, 0.5), stripH, u/gmax, esc(hr.label), l, 100*u)
		}
	}
	fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="start">link id 0 &#8594; %d; opacity scaled to the hottest link (%.1f%% busy)</text>`+"\n",
		labW, padT+len(rows)*(stripH+stripGap)+16, len(rows[0].util)-1, 100*gmax)
	b.WriteString("</svg>\n")

	b.WriteString("<table>\n<tr><th>row</th><th>links</th><th>active</th><th>max util</th><th>mean hops</th><th>p50 lat</th><th>p99 lat</th><th>queued</th><th>reroutes</th></tr>\n")
	for _, hr := range rows {
		m := hr.row.Metrics
		fmt.Fprintf(b, "<tr><td>%s</td><td>%.0f</td><td>%.0f</td><td>%.1f%%</td><td>%.2f</td><td>%.0f</td><td>%.0f</td><td>%.0f</td><td>%.0f</td></tr>\n",
			esc(hr.label), m["fabric_links"], m["fabric_active_links"], 100*m["max_link_util"],
			m["mean_hops"], m["p50_transfer_latency"], m["p99_transfer_latency"],
			m["queued_cycles"], m["reroutes"])
	}
	b.WriteString("</table>\n")
}

// faultMetrics are the columns of the fault-cost table, in display order.
var faultMetrics = []string{
	"fault_drops", "fault_corrupts", "fault_duplicates", "fault_delays",
	"fault_retries", "fault_timeouts", "fault_lost", "gpus_failed",
	"recovery_cycles",
}

// faultRows returns the rows with any non-zero fault metric.
func faultRows(rec *Record) []*Row {
	var out []*Row
	for i := range rec.Rows {
		r := &rec.Rows[i]
		for _, m := range faultMetrics {
			if r.Metrics[m] != 0 {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

func esc(s string) string { return html.EscapeString(s) }

// WriteReport renders the record as a self-contained XHTML report.
func WriteReport(w io.Writer, rec *Record, title string) error {
	if title == "" {
		title = "CHOPIN run report"
	}
	var b strings.Builder
	writeHead(&b, title)
	writeMeta(&b, rec)
	for _, f := range groupFigures(rec) {
		writeFigure(&b, f)
	}
	writeBottlenecks(&b, rec)
	writeLinkHeatmap(&b, rec)
	writeFaults(&b, rec)
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHead(b *strings.Builder, title string) {
	b.WriteString(`<!DOCTYPE html>
<html xmlns="http://www.w3.org/1999/xhtml" lang="en">
<head>
<meta charset="utf-8"/>
<meta name="viewport" content="width=device-width, initial-scale=1"/>
<title>` + esc(title) + `</title>
<style>
body { color-scheme: light;
  --surface-1:#fcfcfb; --text-primary:#0b0b0b; --text-secondary:#52514e;
  --grid:#e7e6e2;
  --s1:#2a78d6; --s2:#eb6834; --s3:#1baf7a; --s4:#eda100;
  --s5:#e87ba4; --s6:#008300; --s7:#4a3aa7; --s8:#e34948;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto; max-width: 54rem;
  padding: 0 1rem;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) body { color-scheme: dark;
    --surface-1:#1a1a19; --text-primary:#ffffff; --text-secondary:#c3c2b7;
    --grid:#343431;
    --s1:#3987e5; --s2:#d95926; --s3:#199e70; --s4:#c98500;
    --s5:#d55181; --s6:#008300; --s7:#9085e9; --s8:#e66767;
  }
}
:root[data-theme="dark"] body { color-scheme: dark;
  --surface-1:#1a1a19; --text-primary:#ffffff; --text-secondary:#c3c2b7;
  --grid:#343431;
  --s1:#3987e5; --s2:#d95926; --s3:#199e70; --s4:#c98500;
  --s5:#d55181; --s6:#008300; --s7:#9085e9; --s8:#e66767;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
.tiles { display: flex; flex-wrap: wrap; gap: 1.5rem; margin: 1rem 0; }
.tile .v { font-size: 1.3rem; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 0.8rem; }
svg { display: block; margin: 0.5rem 0; }
svg text { font: 11px system-ui, sans-serif; fill: var(--text-secondary); }
svg text.lab { fill: var(--text-primary); }
table { border-collapse: collapse; margin: 0.5rem 0; }
th, td { padding: 0.2rem 0.7rem; text-align: right; border-bottom: 1px solid var(--grid); }
th:first-child, td:first-child { text-align: left; }
th { color: var(--text-secondary); font-weight: 600; }
details { margin: 0.5rem 0; }
summary { color: var(--text-secondary); cursor: pointer; }
</style>
</head>
<body>
<h1>` + esc(title) + `</h1>
`)
}

func writeMeta(b *strings.Builder, rec *Record) {
	tile := func(v, k string) {
		fmt.Fprintf(b, `<div class="tile"><div class="v">%s</div><div class="k">%s</div></div>`+"\n", esc(v), esc(k))
	}
	b.WriteString(`<div class="tiles">` + "\n")
	tile(fmt.Sprint(len(rec.Rows)), "rows")
	tile(fmt.Sprint(len(rec.Meta.Experiments)), "experiments")
	tile(fmt.Sprint(len(rec.Meta.Benchmarks)), "benchmarks")
	tile(fmt.Sprintf("%.2f", rec.Meta.Scale), "trace scale")
	tile(rec.Meta.GitRev, "git rev")
	tile(fmt.Sprint(rec.Schema), "schema")
	b.WriteString("</div>\n")
}

// chart geometry shared by the line charts.
const (
	chW, chH               = 660, 330
	padL, padR, padT, padB = 46, 160, 16, 40
)

func writeFigure(b *strings.Builder, f *figure) {
	series, gpus := f.speedups()
	if len(series) > 0 {
		fmt.Fprintf(b, "<h2>%s: speedup vs GPU count</h2>\n", esc(f.label()))
		writeSpeedupSVG(b, f, series, gpus)
		writeSpeedupTable(b, series, gpus)
	}
	bds, phaseNames := f.phases()
	if len(bds) > 1 {
		fmt.Fprintf(b, "<h2>%s: cycle breakdown by phase</h2>\n", esc(f.label()))
		writePhaseSVG(b, bds, phaseNames)
		writePhaseTable(b, bds, phaseNames)
	}
}

// writeSpeedupSVG renders the headline chart: one 2px polyline per scheme
// over ordinal GPU-count positions, markers with native tooltips, a dashed
// 1.0 baseline, and a legend that doubles as the direct labels.
func writeSpeedupSVG(b *strings.Builder, f *figure, series []speedupSeries, gpus []int) {
	plotW := float64(chW - padL - padR)
	plotH := float64(chH - padT - padB)
	ymax := 1.0
	for _, s := range series {
		for _, v := range s.points {
			if v > ymax {
				ymax = v
			}
		}
	}
	ymax = math.Ceil(ymax*2+0.2) / 2 // headroom, snapped to 0.5
	xpos := func(i int) float64 {
		if len(gpus) == 1 {
			return float64(padL) + plotW/2
		}
		return float64(padL) + plotW*float64(i)/float64(len(gpus)-1)
	}
	ypos := func(v float64) float64 { return float64(padT) + plotH*(1-v/ymax) }

	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="speedup versus GPU count, %s">`+"\n",
		chW, chH, chW, chH, esc(f.label()))
	// Recessive horizontal grid every 0.5x, with y tick labels.
	for v := 0.0; v <= ymax+1e-9; v += 0.5 {
		y := ypos(v)
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`+"\n",
			padL, y, chW-padR, y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end">%.1f</text>`+"\n", padL-6, y+4, v)
	}
	// Dashed parity line: above it a scheme beats duplication.
	y1 := ypos(1)
	fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="var(--text-secondary)" stroke-width="1" stroke-dasharray="6 4"/>`+"\n",
		padL, y1, chW-padR, y1)
	// X axis: ordinal GPU-count positions.
	for i, n := range gpus {
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%d</text>`+"\n", xpos(i), chH-padB+18, n)
	}
	fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">GPUs</text>`+"\n",
		float64(padL)+plotW/2, chH-6)
	for si, s := range series {
		slot := slotFor(s.scheme)
		var pts []string
		for i, n := range gpus {
			if v, ok := s.points[n]; ok {
				pts = append(pts, fmt.Sprintf("%.1f,%.1f", xpos(i), ypos(v)))
			}
		}
		if len(pts) > 1 {
			fmt.Fprintf(b, `<polyline points="%s" fill="none" stroke="var(--s%d)" stroke-width="2"/>`+"\n",
				strings.Join(pts, " "), slot)
		}
		for i, n := range gpus {
			v, ok := s.points[n]
			if !ok {
				continue
			}
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="4" fill="var(--s%d)" stroke="var(--surface-1)" stroke-width="2"><title>%s at %d GPUs: %.3f&#215; vs %s</title></circle>`+"\n",
				xpos(i), ypos(v), slot, esc(s.scheme), n, v, baselineScheme)
		}
		// Legend row; the swatch carries the color, the text stays in ink.
		ly := padT + 8 + si*20
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" rx="2" fill="var(--s%d)"/>`+"\n",
			chW-padR+16, ly, slot)
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="start" class="lab">%s</text>`+"\n",
			chW-padR+34, ly+10, esc(s.scheme))
	}
	b.WriteString("</svg>\n")
}

func writeSpeedupTable(b *strings.Builder, series []speedupSeries, gpus []int) {
	b.WriteString("<details><summary>data table</summary>\n<table>\n<tr><th>scheme</th>")
	for _, n := range gpus {
		fmt.Fprintf(b, "<th>%d GPUs</th>", n)
	}
	b.WriteString("</tr>\n")
	for _, s := range series {
		fmt.Fprintf(b, "<tr><td>%s</td>", esc(s.scheme))
		for _, n := range gpus {
			if v, ok := s.points[n]; ok {
				fmt.Fprintf(b, "<td>%.3f</td>", v)
			} else {
				b.WriteString("<td>&#8212;</td>")
			}
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n</details>\n")
}

// writePhaseSVG renders horizontal stacked bars: per scheme, phase cycles as
// fractions of the Duplication total, 2px surface gaps between segments.
func writePhaseSVG(b *strings.Builder, bds []phaseBreakdown, phaseNames []string) {
	const barH, barGap, labW = 20, 10, 150
	plotW := float64(chW - labW - 70)
	h := padT + len(bds)*(barH+barGap) + 46
	xmax := 1.0
	for _, bd := range bds {
		total := 0.0
		for _, v := range bd.frac {
			total += v
		}
		if total > xmax {
			xmax = total
		}
	}
	xmax *= 1.05
	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="cycle breakdown by phase">`+"\n",
		chW, h, chW, h)
	baseY := padT + len(bds)*(barH+barGap)
	for _, v := range []float64{0, 0.5, 1.0} {
		if v > xmax {
			continue
		}
		x := float64(labW) + plotW*v/xmax
		dash := ""
		if v == 1.0 {
			dash = ` stroke-dasharray="6 4"`
		}
		fmt.Fprintf(b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="var(--grid)" stroke-width="1"%s/>`+"\n",
			x, padT, x, baseY, dash)
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%.1f</text>`+"\n", x, baseY+16, v)
	}
	for bi, bd := range bds {
		y := padT + bi*(barH+barGap)
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="end" class="lab">%s</text>`+"\n",
			labW-8, y+barH-5, esc(bd.scheme))
		x := float64(labW)
		for pi, v := range bd.frac {
			if v <= 0 {
				continue
			}
			w := plotW * v / xmax
			fmt.Fprintf(b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="var(--s%d)"><title>%s %s: %.3f of %s total</title></rect>`+"\n",
				x, y, math.Max(w-2, 0.5), barH, phaseSlot(pi), esc(bd.scheme), esc(phaseNames[pi]), v, baselineScheme)
			x += w
		}
	}
	// Phase legend below the bars.
	lx := labW
	ly := baseY + 28
	for pi, name := range phaseNames {
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="12" height="12" rx="2" fill="var(--s%d)"/>`+"\n", lx, ly, phaseSlot(pi))
		fmt.Fprintf(b, `<text x="%d" y="%d" text-anchor="start" class="lab">%s</text>`+"\n", lx+16, ly+10, esc(name))
		lx += 22 + 9*len(name)
	}
	b.WriteString("</svg>\n")
}

func writePhaseTable(b *strings.Builder, bds []phaseBreakdown, phaseNames []string) {
	b.WriteString("<details><summary>data table</summary>\n<table>\n<tr><th>scheme</th>")
	for _, name := range phaseNames {
		fmt.Fprintf(b, "<th>%s</th>", esc(name))
	}
	b.WriteString("<th>total</th></tr>\n")
	for _, bd := range bds {
		fmt.Fprintf(b, "<tr><td>%s</td>", esc(bd.scheme))
		total := 0.0
		for _, v := range bd.frac {
			fmt.Fprintf(b, "<td>%.3f</td>", v)
			total += v
		}
		fmt.Fprintf(b, "<td>%.3f</td></tr>\n", total)
	}
	b.WriteString("</table>\n</details>\n")
}

func writeFaults(b *strings.Builder, rec *Record) {
	rows := faultRows(rec)
	if len(rows) == 0 {
		return
	}
	b.WriteString("<h2>fault and recovery costs</h2>\n<table>\n<tr><th>row</th>")
	for _, m := range faultMetrics {
		fmt.Fprintf(b, "<th>%s</th>", esc(strings.TrimPrefix(m, "fault_")))
	}
	b.WriteString("</tr>\n")
	for _, r := range rows {
		fmt.Fprintf(b, "<tr><td>%s</td>", esc(r.Key.String()))
		for _, m := range faultMetrics {
			fmt.Fprintf(b, "<td>%.0f</td>", r.Metrics[m])
		}
		b.WriteString("</tr>\n")
	}
	b.WriteString("</table>\n")
}
