// Command chopinbench measures the simulator's host performance: wall
// time, CPU time, set-up time, memory and allocation per workload, and, in
// a separate traced run, where that time goes layer by layer.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload frame64-ds --seed 0 --seconds 30 --trace 0
//
// Every repetition runs in a fresh child process (the binary re-executes
// itself); the parent reads the child's wall time, CPU time and peak RSS
// from its rusage and checks the child's output against the workload's
// oracle. A child that crashes, is killed or fails its oracle counts as a
// failed operation and the run goes on. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chopin/internal/runrec"
)

// childEnv marks a child process: its flags name the workload, seed and
// mode of the one repetition it runs.
const childEnv = "CHOPINBENCH_CHILD"

// runLimit bounds a whole invocation: children still running then are
// killed and count as failed.
const runLimit = 170 * time.Second

// minReps is the fewest repetitions an untraced run makes of each workload,
// whatever its time budget.
const minReps = 3

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr, "."))
}

// childMain runs one repetition and prints its repResult as JSON.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", 0, "")
	traced := fs.Int("trace", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 2
	}
	run := w.run
	if *traced != 0 {
		run = w.traced
	}
	r, err := run(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "child %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// statistic picks the number a run reports for a metric from the summary
// of its repetitions.
type statistic struct {
	name string
	of   func(summary) float64
}

var (
	// fastest is for host times. Every repetition of a workload does the
	// same work, so interference from the rest of the host only adds time:
	// the fastest repetition is the one it disturbed least. On the frame
	// workloads it moves less than the median between runs minutes apart
	// (bench/README.md, "Noise, bounds and repetitions").
	fastest = statistic{"min", func(s summary) float64 { return s.Min }}
	// largest is for peak memory, what a run of the workload can need. A
	// sweep's peak varies widely from repetition to repetition with how its
	// concurrent simulations and garbage collections overlap.
	largest = statistic{"max", func(s summary) float64 { return s.Max }}
	// middle is for quantities no host noise adds to.
	middle = statistic{"median", func(s summary) float64 { return s.Median }}
)

// metricDef derives one end-to-end quantity from a repetition.
type metricDef struct {
	name, unit string
	of         func(o *outcome) float64
	stat       statistic
}

// endToEnd are the metrics BENCHMARK.json bounds.
var endToEnd = []metricDef{
	{"wall_s", "s", func(o *outcome) float64 { return o.wall.Seconds() }, fastest},
	{"cpu_s", "s", func(o *outcome) float64 { return o.cpu.Seconds() }, fastest},
	{"setup_s", "s", func(o *outcome) float64 { return o.res.SetupS }, fastest},
	{"peak_rss_mb", "MB", func(o *outcome) float64 { return float64(o.maxRSSKB) / 1024 }, largest},
	{"alloc_mb", "MB", func(o *outcome) float64 { return float64(o.res.AllocBytes) / mib }, middle},
	{"host_ns_per_frag", "ns", func(o *outcome) float64 { return float64(o.wall.Nanoseconds()) / float64(o.res.Frags) }, fastest},
}

// simulated are the simulator's own results. They depend only on the
// inputs, so they are reported and recorded but not bounded: any change
// means the simulator's results changed, which the oracles catch.
var simulated = []metricDef{
	{"sim_cycles", "cycles", func(o *outcome) float64 { return float64(o.res.Cycles) }, middle},
	{"comp_mb", "MB", func(o *outcome) float64 { return float64(o.res.CompBytes) / mib }, middle},
}

// outcome is one child repetition as the parent saw it.
type outcome struct {
	res       *repResult
	wall, cpu time.Duration
	maxRSSKB  int64
}

// spawn runs one repetition of w in a child process and waits for it.
func spawn(ctx context.Context, w *workload, seed int64, traced bool) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-trace", mode)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err = cmd.Run()
	o := &outcome{wall: time.Since(t0)}
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", w.name, err)
	}
	ps := cmd.ProcessState
	o.cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		o.maxRSSKB = ru.Maxrss
	}
	if err := json.Unmarshal(lastLine(out.Bytes()), &o.res); err != nil {
		return nil, fmt.Errorf("child %s: reading its result: %w", w.name, err)
	}
	return o, nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// tally accumulates one workload's repetitions.
type tally struct {
	w       *workload
	check   oracle
	reps    []*outcome // the successful ones
	attempt int
	failed  int
	wrong   int // failed because the output was wrong
}

func (t *tally) failFrac() float64 { return float64(t.failed) / float64(t.attempt) }

// summary summarizes metric d over the successful repetitions.
func (t *tally) summary(d metricDef) summary {
	xs := make([]float64, len(t.reps))
	for i, o := range t.reps {
		xs[i] = d.of(o)
	}
	return summarize(xs)
}

// value is the number a run reports for metric d.
func (t *tally) value(d metricDef) float64 { return d.stat.of(t.summary(d)) }

// add runs one repetition and records its outcome; log receives failures.
func (t *tally) add(ctx context.Context, seed int64, traced bool, log io.Writer) *outcome {
	t.attempt++
	o, err := spawn(ctx, t.w, seed, traced)
	if err == nil {
		if err = t.check(o.res); err != nil {
			t.wrong++
		}
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(log, "%s: repetition %d failed: %v\n", t.w.name, t.attempt, err)
		return nil
	}
	return o
}

// newTallies prepares each workload's oracle.
func newTallies(ws []*workload, root string, seed int64) ([]*tally, error) {
	ts := make([]*tally, len(ws))
	for i, w := range ws {
		check, err := w.oracle(root, seed)
		if err != nil {
			return nil, fmt.Errorf("%s oracle: %w", w.name, err)
		}
		ts[i] = &tally{w: w, check: check}
	}
	return ts, nil
}

// measure runs untraced repetitions of the workloads round-robin, so that
// machine noise spreads evenly over them, until the next round would end
// past budget. Every workload gets at least reps repetitions.
func measure(ctx context.Context, ts []*tally, seed int64, budget time.Duration, reps int, log io.Writer) {
	start := time.Now()
	for round := 1; ctx.Err() == nil; round++ {
		r0 := time.Now()
		for _, t := range ts {
			if o := t.add(ctx, seed, false, log); o != nil {
				t.reps = append(t.reps, o)
			}
		}
		if round >= reps && time.Since(start)+time.Since(r0) > budget {
			return
		}
	}
}

// traceRun makes one untraced and one traced repetition of t's workload and
// returns the traced per-layer metrics. The traced repetition must
// reproduce the untraced one's simulated cycles and output.
func traceRun(ctx context.Context, t *tally, seed int64, log io.Writer) (map[string]float64, error) {
	base := t.add(ctx, seed, false, log)
	tr := t.add(ctx, seed, true, log)
	if base == nil || tr == nil {
		return nil, errors.New("a repetition failed")
	}
	if tr.res.Cycles != base.res.Cycles || tr.res.Checksum != base.res.Checksum || tr.res.Table != base.res.Table {
		t.wrong++
		return nil, fmt.Errorf("traced repetition's output differs from the untraced one's: %d cycles, image %016x against %d, %016x",
			tr.res.Cycles, tr.res.Checksum, base.res.Cycles, base.res.Checksum)
	}
	L := tr.res.Layers
	if L == nil {
		return nil, errors.New("traced repetition reported no layer metrics")
	}
	L["trace_overhead_pct"] = 100 * (tr.res.BodyCPUS - base.res.BodyCPUS) / base.res.BodyCPUS
	var sum float64
	for _, l := range hostLayers {
		sum += L["host_pct."+l]
	}
	if sum < 99 || sum > 101 {
		return nil, fmt.Errorf("host shares sum to %.2f%%", sum)
	}
	for _, m := range layerMetrics {
		if _, ok := L[m.name]; !ok {
			return nil, fmt.Errorf("traced repetition did not report %s", m.name)
		}
	}
	return L, nil
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the last line of standard output holds.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// parentMain runs the benchmark; root is the repository root.
func parentMain(args []string, stdout, stderr io.Writer, root string) int {
	fs := flag.NewFlagSet("chopinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "workload to run, a comma-separated list run round-robin, or \"all\"")
	seed := fs.Int64("seed", 0, "input seed, XORed into the frame workloads' trace seeds (0 = canonical traces)")
	seconds := fs.Int("seconds", 30, "measurement budget of an untraced run")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer repetition instead of the timed ones")
	recOut := fs.String("runrec", "", "write the reported values as a run record (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws, err := selectWorkloads(*names)
	if err == nil && *seconds < 1 {
		err = errors.New("-seconds must be at least 1")
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = errors.New("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "chopinbench:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	ts, err := newTallies(ws, root, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "chopinbench:", err)
		return 1
	}
	prefix := func(w *workload, name string) string {
		if len(ws) == 1 {
			return name
		}
		return w.name + "." + name
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	out := bufio.NewWriter(stdout)
	if *traced == 1 {
		for _, t := range ts {
			L, err := traceRun(ctx, t, *seed, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "chopinbench: %s traced run: %v\n", t.w.name, err)
				return 1
			}
			fmt.Fprintf(out, "%s traced run (per-layer metrics, one repetition):\n", t.w.name)
			for _, m := range layerMetrics {
				fmt.Fprintf(out, "  %-34s %14.4f %s\n", m.name, L[m.name], m.unit)
				res.Metrics[prefix(t.w, m.name)] = metricValue{L[m.name], m.unit}
			}
		}
	} else {
		measure(ctx, ts, *seed, time.Duration(*seconds)*time.Second, minReps, stderr)
		for _, t := range ts {
			if len(t.reps) == 0 {
				fmt.Fprintf(stderr, "chopinbench: every repetition of %s failed\n", t.w.name)
				return 1
			}
			report(out, t)
			for _, d := range endToEnd {
				res.Metrics[prefix(t.w, d.name)] = metricValue{t.value(d), d.unit}
			}
		}
		if *recOut != "" {
			if err := writeRecord(*recOut, ts, *seed); err != nil {
				fmt.Fprintln(stderr, "chopinbench:", err)
				return 1
			}
		}
	}
	for _, t := range ts {
		res.Attempted += t.attempt
		res.Failed += t.failed
		res.Correct = res.Correct && t.wrong == 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "chopinbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return nil, errors.New("-workload is required")
	}
	if names == "all" {
		return workloads, nil
	}
	var ws []*workload
	for _, n := range strings.Split(names, ",") {
		w, err := workloadByName(n)
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// report prints a workload's untraced metrics: the value the run reports
// and the statistic it is, then the minimum, quartiles, median, maximum
// and n.
func report(w io.Writer, t *tally) {
	fmt.Fprintf(w, "%s: %s\n  %d repetitions, %d failed (fail_frac %.3f); %s\n",
		t.w.name, t.w.why, t.attempt, t.failed, t.failFrac(), tailNote(len(t.reps)))
	fmt.Fprintf(w, "  %-18s %-7s %14s %-6s %14s %14s %14s %14s %14s %4s\n",
		"metric", "unit", "reported", "", "min", "q1", "median", "q3", "max", "n")
	for _, d := range append(endToEnd, simulated...) {
		s := t.summary(d)
		fmt.Fprintf(w, "  %-18s %-7s %14.4f %-6s %14.4f %14.4f %14.4f %14.4f %14.4f %4d\n",
			d.name, d.unit, d.stat.of(s), d.stat.name, s.Min, s.Q1, s.Median, s.Q3, s.Max, s.N)
	}
}

// writeRecord writes one run-record row per workload, so chopinstat -gate
// can compare two runs against bench/thresholds.txt.
func writeRecord(path string, ts []*tally, seed int64) error {
	var names []string
	for _, t := range ts {
		names = append(names, t.w.name)
	}
	rec := runrec.NewRecorder(runrec.Meta{Tool: "chopinbench", GitRev: gitRev(), Seed: seed,
		Experiments: []string{"bench"}, Notes: map[string]string{"workloads": strings.Join(names, ",")}})
	for _, t := range ts {
		rec.Add(recordRow(t))
	}
	return rec.Record().WriteFile(path)
}

// recordRow is a workload's run-record row: the values the run reports for
// its end-to-end and simulated metrics, and its failure fraction.
func recordRow(t *tally) runrec.Row {
	m := runrec.Metrics{"fail_frac": t.failFrac()}
	for _, d := range append(endToEnd, simulated...) {
		m[d.name] = t.value(d)
	}
	return runrec.Row{Key: t.w.key, Config: t.w.config, Metrics: m}
}

// gitRev returns the VCS revision stamped into the binary, or "unknown".
func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}
