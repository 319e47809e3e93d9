// Package stats collects and formats the measurements the experiments
// report: frame execution cycles attributed to pipeline phases (paper
// Fig. 14), traffic by class (Fig. 17), fragment counters (Fig. 15), and
// per-GPU summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"chopin/internal/gpu"
	"chopin/internal/raster"
	"chopin/internal/sim"
)

// Phase is a wall-clock attribution category for frame time, matching the
// stacks of paper Fig. 14.
type Phase uint8

const (
	// PhaseNormal is ordinary pipeline rendering.
	PhaseNormal Phase = iota
	// PhaseProjection is the sort-first primitive projection pre-pass.
	PhaseProjection
	// PhaseDistribution is sort-first primitive distribution.
	PhaseDistribution
	// PhaseComposition is parallel image composition.
	PhaseComposition
	// PhaseSync is render-target/depth consistency synchronization.
	PhaseSync
	// PhaseRecovery is degraded-mode work after a GPU failure: reassigning
	// the failed GPU's screen tiles and re-rendering their contents on the
	// surviving GPUs. Zero on fault-free runs.
	PhaseRecovery

	numPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseNormal:
		return "normal"
	case PhaseProjection:
		return "projection"
	case PhaseDistribution:
		return "distribution"
	case PhaseComposition:
		return "composition"
	case PhaseSync:
		return "sync"
	case PhaseRecovery:
		return "recovery"
	default:
		return "unknown"
	}
}

// Phases lists all phases in display order.
func Phases() []Phase {
	return []Phase{PhaseNormal, PhaseProjection, PhaseDistribution, PhaseComposition, PhaseSync, PhaseRecovery}
}

// FrameStats is the result of simulating one frame under one scheme.
type FrameStats struct {
	// Scheme and Bench identify the run.
	Scheme, Bench string
	// NumGPUs is the system size.
	NumGPUs int
	// TotalCycles is the frame's wall-clock execution time.
	TotalCycles sim.Cycle
	// PhaseCycles attributes wall-clock time to phases; the entries sum to
	// TotalCycles.
	PhaseCycles [numPhases]sim.Cycle

	// Raster aggregates the functional counters over all GPUs.
	Raster raster.DrawResult
	// GPUs summarises each GPU's activity.
	GPUs []GPUSummary

	// CompositionBytes, PrimDistBytes, SyncBytes, ControlBytes are traffic
	// totals by class.
	CompositionBytes, PrimDistBytes, SyncBytes, ControlBytes int64

	// PerDraw carries per-draw timings when Config.RecordPerDraw is set
	// (paper Fig. 9).
	PerDraw []gpu.DrawTiming

	// GroupsTotal and GroupsAccelerated count composition groups in the
	// frame and the subset above the primitive threshold (Section VI-E).
	GroupsTotal, GroupsAccelerated int
	// TrianglesAccelerated is the triangle count inside accelerated groups.
	TrianglesAccelerated int
	// Triangles is the frame's total triangle count.
	Triangles int

	// Violations holds the invariant violations detected by the verification
	// subsystem when the run was verified (multigpu.Config.Verify). Empty on
	// unverified runs and on verified runs where every invariant held.
	Violations []string

	// Faults aggregates injected-fault and recovery-protocol activity on the
	// interconnect. All zero on fault-free runs.
	Faults FaultStats
	// GPUsFailed counts GPUs declared failed during the frame.
	GPUsFailed int
	// RecoveryCycles is the wall-clock cost of degraded-mode recovery
	// (tile reassignment and re-render); it equals Phase(PhaseRecovery).
	RecoveryCycles sim.Cycle

	// LinksDowned, Reroutes, Unroutable summarize link fail-stop activity on
	// the fabric: links administratively downed during the frame, transfers
	// detoured around them, and transfers with no surviving path. Always
	// captured (zero on healthy fabrics) so chaos runs can gate on them.
	LinksDowned, Reroutes, Unroutable int64

	// Fabric carries the link-telemetry digest when the run enabled fabric
	// telemetry (multigpu.Config.FabricTelemetry); nil otherwise.
	Fabric *FabricStats
}

// FabricStats is the frame-level fabric link-telemetry digest — a plain
// mirror of the interconnect collector's summary so downstream consumers
// (run records, reports) need no interconnect dependency.
type FabricStats struct {
	// Links is the fabric's directed link id space; ActiveLinks how many
	// carried traffic this frame.
	Links, ActiveLinks int
	// Transfers is the number of transmissions the histograms cover.
	Transfers int64
	// MaxLink is the busiest link's id and MaxLinkBusy its occupied cycles;
	// MaxLinkUtil is that divided by the frame's total cycles.
	MaxLink     int
	MaxLinkBusy sim.Cycle
	MaxLinkUtil float64
	// MeanHops is the mean route length per transmission.
	MeanHops float64
	// LatencyP50/P90/P99 are per-transmission end-to-end latency quantiles
	// in cycles (Send to last byte drained).
	LatencyP50, LatencyP90, LatencyP99 int64
	// QueuedCycles is the total time transfers spent waiting for links.
	QueuedCycles sim.Cycle
	// LinkUtil[l] is link l's busy cycles divided by the frame's total
	// cycles — the per-link utilization vector the report heatmap renders.
	LinkUtil []float64
}

// FaultStats aggregates injected interconnect faults and the recovery
// protocol's responses over a frame.
type FaultStats struct {
	// Drops, Corrupts, Duplicates, Delays count injected transfer faults.
	Drops, Corrupts, Duplicates, Delays int64
	// Retries counts retransmissions started, Timeouts counts ack deadlines
	// that expired, and Lost counts transfers abandoned after the retry
	// budget was exhausted.
	Retries, Timeouts, Lost int64
}

// Add accumulates o into f.
func (f *FaultStats) Add(o FaultStats) {
	f.Drops += o.Drops
	f.Corrupts += o.Corrupts
	f.Duplicates += o.Duplicates
	f.Delays += o.Delays
	f.Retries += o.Retries
	f.Timeouts += o.Timeouts
	f.Lost += o.Lost
}

// Total returns the total number of injected faults (not counting the
// protocol's own retries/timeouts).
func (f *FaultStats) Total() int64 {
	return f.Drops + f.Corrupts + f.Duplicates + f.Delays
}

// GPUSummary is one GPU's activity during the frame.
type GPUSummary struct {
	ID                             int
	GeomBusy, FragBusy             sim.Cycle
	ProjBusy, MergeBusy            sim.Cycle
	DrawsExecuted                  int
	FragsGenerated, FragsDepthPass int
}

// Phase returns the wall-clock cycles attributed to p.
func (f *FrameStats) Phase(p Phase) sim.Cycle { return f.PhaseCycles[p] }

// AddPhase accumulates wall-clock cycles into p and the total. A negative
// duration indicates a phase-accounting bug upstream; rather than panic,
// the sample is clamped to zero and recorded in Violations so verified
// runs surface it.
func (f *FrameStats) AddPhase(p Phase, c sim.Cycle) {
	if c < 0 {
		f.Violations = append(f.Violations,
			fmt.Sprintf("stats: negative phase time %d for %v (clamped to 0)", c, p))
		c = 0
	}
	f.PhaseCycles[p] += c
	f.TotalCycles += c
}

// CaptureGPU appends a summary of g.
func (f *FrameStats) CaptureGPU(g *gpu.GPU) {
	s := g.Stats()
	f.PerDraw = append(f.PerDraw, s.PerDraw...)
	f.GPUs = append(f.GPUs, GPUSummary{
		ID:             g.ID,
		GeomBusy:       s.GeomBusy,
		FragBusy:       s.FragBusy,
		ProjBusy:       s.ProjBusy,
		MergeBusy:      s.MergeBusy,
		DrawsExecuted:  s.DrawsExecuted,
		FragsGenerated: s.Raster.FragsGenerated,
		FragsDepthPass: s.Raster.DepthPassed(),
	})
	f.Raster.Add(s.Raster)
}

// GeometryShare returns the fraction of per-GPU pipeline busy cycles spent
// in geometry processing, averaged over GPUs — the quantity of paper Fig. 2.
func (f *FrameStats) GeometryShare() float64 {
	var geom, total sim.Cycle
	for _, g := range f.GPUs {
		geom += g.GeomBusy
		total += g.GeomBusy + g.FragBusy
	}
	if total == 0 {
		return 0
	}
	return float64(geom) / float64(total)
}

// Speedup returns baseline.TotalCycles / f.TotalCycles. A zero-cycle
// receiver yields 0 rather than dividing by zero; a zero-cycle baseline
// yields 0 by arithmetic. Speedup therefore never returns NaN or Inf, and
// 0 uniformly means "no valid comparison".
func (f *FrameStats) Speedup(baseline *FrameStats) float64 {
	if f.TotalCycles == 0 {
		return 0
	}
	return float64(baseline.TotalCycles) / float64(f.TotalCycles)
}

// GeoMean returns the geometric mean of xs. The contract for degenerate
// input is "0, never NaN": an empty slice returns 0, and any zero or
// negative element returns 0 (the geometric mean is undefined there, and 0
// propagates visibly through speedup tables instead of poisoning them).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Table formats rows of labelled values as an aligned text table, used by
// the experiment runners to print paper-style outputs.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", width[i])
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// SortedKeys returns map keys in sorted order, for deterministic output.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MB formats a byte count in binary megabytes with two decimals.
func MB(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }
