package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chopin/internal/runrec"
)

func loadThresholds(t *testing.T) runrec.Thresholds {
	t.Helper()
	f, err := os.Open("thresholds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := runrec.ParseThresholds(f)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// benchmarkJSON is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheBenchmark keeps BENCHMARK.json, the metric
// tables here and thresholds.txt in step.
func TestBenchmarkJSONMatchesTheBenchmark(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != 4 {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark 4", len(bj.Workloads))
	}
	for i, w := range bj.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), the benchmark's is %q (%s)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	ts := loadThresholds(t)
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != "lower" {
			t.Errorf("end_to_end[%d] = %+v, benchmark reports %s in %s, lower better", i, m, d.name, d.unit)
		}
		if limit, ok := ts.Limit(m.Name); !ok || limit != m.Bound {
			t.Errorf("%s: thresholds.txt limit %g (tracked %v), BENCHMARK.json bound %g", m.Name, limit, ok, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, benchmark has %+v", i, m, d)
		}
	}
	for _, name := range []string{"sim_cycles", "comp_mb", "fail_frac"} {
		if limit, ok := ts.Limit(name); !ok || limit != 0 {
			t.Errorf("thresholds.txt lets %s grow by %g (tracked %v); simulated results and failures must not", name, limit, ok)
		}
	}
}

// writeSynthetic writes a run record of one workload whose repetitions all
// took wall seconds.
func writeSynthetic(t *testing.T, path string, wall float64) {
	t.Helper()
	tl := &tally{w: workloads[0], attempt: 3}
	for i := 0; i < 3; i++ {
		o := &outcome{res: goodResult(), maxRSSKB: 1 << 20}
		o.wall = time.Duration(wall * float64(time.Second))
		o.cpu = 2 * o.wall
		tl.reps = append(tl.reps, o)
	}
	if err := writeRecord(path, []*tally{tl}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReportsEachMetricsStatistic checks which statistic of a run's
// repetitions each metric reports.
func TestRecordReportsEachMetricsStatistic(t *testing.T) {
	tl := &tally{w: workloads[0], attempt: 3}
	for i, wall := range []float64{3, 1, 2} {
		o := &outcome{res: goodResult(), maxRSSKB: int64(wall) << 10}
		o.wall = time.Duration(wall * float64(time.Second))
		o.res.AllocBytes = uint64(i+1) << 20
		tl.reps = append(tl.reps, o)
	}
	m := recordRow(tl).Metrics
	if m["wall_s"] != 1 || m["host_ns_per_frag"] != 1e9/1000 {
		t.Errorf("wall_s %g, host_ns_per_frag %g; want the fastest repetition's, 1 s and 1e6 ns", m["wall_s"], m["host_ns_per_frag"])
	}
	if m["peak_rss_mb"] != 3 {
		t.Errorf("peak_rss_mb %g, want the largest, 3", m["peak_rss_mb"])
	}
	if m["alloc_mb"] != 2 {
		t.Errorf("alloc_mb %g, want the median, 2", m["alloc_mb"])
	}
}

// TestGateFailsOnWallRegression runs the comparison chopinstat -gate makes
// on two records written by -runrec.
func TestGateFailsOnWallRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "a.json")
	writeSynthetic(t, base, 10)
	ts := loadThresholds(t)
	gate := func(wall float64) []runrec.Regression {
		next := filepath.Join(dir, "b.json")
		writeSynthetic(t, next, wall)
		a, err := runrec.LoadPath(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runrec.LoadPath(next)
		if err != nil {
			t.Fatal(err)
		}
		return runrec.Compare(a, b).Gate(ts)
	}
	regs := gate(13)
	names := map[string]bool{}
	for _, r := range regs {
		names[r.Metric] = true
	}
	if !names["wall_s"] || !names["host_ns_per_frag"] || !names["cpu_s"] || len(names) != 3 {
		t.Errorf("+30%% wall and CPU time gated %v, want wall_s, cpu_s and host_ns_per_frag", regs)
	}
	if regs := gate(12); len(regs) != 0 {
		t.Errorf("+20%% wall time, within the 25%% bound, gated %v", regs)
	}
}
