// Command chopintrace summarizes and validates timeline files produced by
// chopinsim -timeline (Chrome trace-event JSON, loadable in Perfetto).
//
// Usage:
//
//	chopintrace trace.json             print the trace digest
//	chopintrace -top 20 trace.json     show the 20 longest spans
//	chopintrace -check trace.json      validate structural invariants only
//	chopintrace -critical trace.json   causal critical path + attribution
//	chopintrace -fabric trace.json     fabric channels, congestion waves, latency
//	chopintrace -json trace.json       machine-readable digest (byte-stable)
//
// The digest shows the k longest spans, per-track busy utilization, and the
// busy-coverage figure. -critical builds the causal dependency graph
// (internal/obs/causal) and prints the exact critical path plus a
// per-category cycle attribution that sums to the frame makespan. Combining
// -critical with -check additionally gates the causal accounting invariants
// (attribution sums to the makespan) and exits non-zero on violation.
//
// -check alone exits non-zero if any exporter invariant is violated:
// negative durations, non-monotone span starts per track, out-of-order
// counter samples, or unpaired flow arrows.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chopin/internal/obs"
	"chopin/internal/obs/causal"
)

// options collects the command-line switches run honors.
type options struct {
	top      int
	check    bool
	critical bool
	fabric   bool
	jsonOut  bool
}

func main() {
	var opt options
	flag.IntVar(&opt.top, "top", 10, "number of longest spans to show")
	flag.BoolVar(&opt.check, "check", false, "validate trace invariants and exit (non-zero on violation)")
	flag.BoolVar(&opt.critical, "critical", false, "build the causal graph; print critical path and bottleneck attribution")
	flag.BoolVar(&opt.fabric, "fabric", false, "print the fabric breakdown: hottest channels, per-wave congestion, wire-latency quantiles")
	flag.BoolVar(&opt.jsonOut, "json", false, "emit the digest as byte-stable JSON instead of text")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: chopintrace [-top k] [-check] [-critical] [-fabric] [-json] trace.json")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0), opt); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// jsonTrack is the machine-readable per-track utilization row.
type jsonTrack struct {
	Name        string  `json:"name"`
	Busy        int64   `json:"busy"`
	Spans       int     `json:"spans"`
	Utilization float64 `json:"utilization"`
}

// jsonDigest is the -json output. Field order is fixed by the struct and all
// nested slices are canonically ordered, so output is byte-stable for
// identical traces.
type jsonDigest struct {
	Events       int            `json:"events"`
	Start        int64          `json:"start"`
	End          int64          `json:"end"`
	BusyCoverage int64          `json:"busy_coverage"`
	CriticalPath int64          `json:"critical_path"`
	Counters     int            `json:"counters"`
	Tracks       []jsonTrack    `json:"tracks"`
	Causal       *causal.Report `json:"causal,omitempty"`
	// Fabric is present only with -fabric.
	Fabric *obs.FabricSummary `json:"fabric,omitempty"`
}

func run(w io.Writer, path string, opt options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tf, err := obs.Load(f)
	if err != nil {
		var trunc *obs.TruncatedTraceError
		switch {
		case errors.Is(err, obs.ErrEmptyTrace):
			return fmt.Errorf("%s is empty — the simulation may have exited before the timeline was written (%w)", path, err)
		case errors.As(err, &trunc):
			return fmt.Errorf("%s is cut off mid-write; re-run the capture (%w)", path, err)
		}
		return err
	}

	var fab *obs.FabricSummary
	if opt.fabric {
		fab, err = tf.FabricSummary()
		if err != nil {
			// ErrNoTransferSpans and friends: the breakdown was asked for
			// explicitly, so fail with the typed error, never an empty table.
			return fmt.Errorf("%s: %w", path, err)
		}
	}

	var rep *causal.Report
	if opt.critical || opt.jsonOut {
		rep, err = causal.AnalyzeTrace(tf)
		if err != nil {
			// A capture without category tags has no causal graph; the JSON
			// digest simply omits the block, but -critical asked for it
			// explicitly and must fail loudly.
			if !errors.Is(err, causal.ErrNoCategories) || opt.critical {
				return err
			}
			rep = nil
		}
	}

	problems := tf.Validate()
	if opt.check {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "INVALID:", p)
		}
		if len(problems) > 0 {
			return fmt.Errorf("%d invariant violation(s) in %s", len(problems), path)
		}
		fmt.Fprintf(w, "%s: %d events, all trace invariants hold\n", path, len(tf.Events))
		if rep != nil {
			if err := rep.Check(); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(w, "causal: attribution sums to makespan %d; critical path %d cycles\n",
				rep.Makespan, rep.CriticalPath)
		}
		if !opt.jsonOut {
			return nil
		}
	}

	s := tf.Summarize(opt.top)
	if rep != nil {
		s.CriticalPath = rep.CriticalPath
	}

	if opt.jsonOut {
		d := jsonDigest{
			Events:       len(tf.Events),
			Start:        s.Start,
			End:          s.End,
			BusyCoverage: s.BusyCoverage,
			CriticalPath: s.CriticalPath,
			Counters:     s.Counters,
			Causal:       rep,
			Fabric:       fab,
		}
		for _, t := range s.Tracks {
			d.Tracks = append(d.Tracks, jsonTrack{Name: t.Name, Busy: t.Busy, Spans: t.Spans, Utilization: t.Utilization})
		}
		enc := json.NewEncoder(w)
		return enc.Encode(&d)
	}

	fmt.Fprintf(w, "%s: %d events over cycles [%d, %d] (%d cycles)\n",
		path, len(tf.Events), s.Start, s.End, s.End-s.Start)
	fmt.Fprintf(w, "counters: %d series\n", s.Counters)
	fmt.Fprintf(w, "busy coverage: %d cycles (%.1f%% of interval)\n",
		s.BusyCoverage, pct(s.BusyCoverage, s.End-s.Start))

	if rep != nil && opt.critical {
		fmt.Fprintf(w, "\ncausal critical path: %d of %d cycles executing (%.1f%%); graph %d nodes, %d edges\n",
			rep.CriticalPath, rep.Makespan, pct(rep.CriticalPath, rep.Makespan), rep.Nodes, rep.EdgeCount)
		fmt.Fprintf(w, "bottleneck attribution (sums to makespan):\n")
		for _, a := range rep.Attribution {
			fmt.Fprintf(w, "  %-12s %12d cycles  %5.1f%%\n", a.Category, a.Cycles, 100*a.Fraction)
		}
	}

	if fab != nil {
		printFabric(w, fab, opt.top)
	}

	fmt.Fprintf(w, "\ntop %d spans by duration:\n", len(s.TopSpans))
	for _, e := range s.TopSpans {
		fmt.Fprintf(w, "  %12d cycles  @%-12d %-24s %s\n", e.Dur, e.Ts, tf.TrackName(e.Pid, e.Tid), e.Name)
	}

	fmt.Fprintf(w, "\nper-track utilization (busiest first):\n")
	for _, t := range s.Tracks {
		fmt.Fprintf(w, "  %-24s %6.1f%%  busy %12d cycles  %6d spans\n",
			t.Name, 100*t.Utilization, t.Busy, t.Spans)
	}

	if len(problems) > 0 {
		fmt.Fprintf(w, "\nWARNING: %d invariant violation(s); rerun with -check for details\n", len(problems))
	}
	return nil
}

// printFabric renders the trace-derived fabric breakdown: channel table,
// latency quantiles, and the gap-separated congestion waves (one per
// composition round under round-barriered exchanges).
func printFabric(w io.Writer, fab *obs.FabricSummary, top int) {
	fmt.Fprintf(w, "\nfabric: %d channels, %d transfers, %.2f MB, %d retries\n",
		len(fab.Pairs), fab.Transfers, float64(fab.Bytes)/(1<<20), fab.Retries)
	if fab.Latencies > 0 {
		fmt.Fprintf(w, "wire latency (egress start -> ingress drain, %d transfers): p50 %d  p90 %d  p99 %d cycles\n",
			fab.Latencies, fab.LatencyP50, fab.LatencyP90, fab.LatencyP99)
	}
	n := len(fab.Pairs)
	if top > 0 && n > top {
		n = top
	}
	fmt.Fprintf(w, "hottest channels (of %d):\n", len(fab.Pairs))
	for _, p := range fab.Pairs[:n] {
		fmt.Fprintf(w, "  %-10s busy %12d cycles  %10.2f MB  %6d transfers  %d retries\n",
			p.Name(), p.Busy, float64(p.Bytes)/(1<<20), p.Transfers, p.Retries)
	}
	const maxWaves = 16
	fmt.Fprintf(w, "congestion waves (%d, gap-separated):\n", len(fab.Waves))
	for i, wv := range fab.Waves {
		if i == maxWaves {
			fmt.Fprintf(w, "  ... %d more\n", len(fab.Waves)-maxWaves)
			break
		}
		fmt.Fprintf(w, "  %3d: cycles [%d, %d]  %6d transfers  %10.2f MB  hottest g%d->g%d (%d cycles)\n",
			i, wv.Start, wv.End, wv.Transfers, float64(wv.Bytes)/(1<<20),
			wv.MaxPairSrc, wv.MaxPairDst, wv.MaxPairBusy)
	}
}

func pct(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
