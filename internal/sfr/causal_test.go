package sfr

import (
	"bytes"
	"testing"

	"chopin/internal/fault"
	"chopin/internal/obs"
	"chopin/internal/obs/causal"
)

// analyzeRun round-trips a tracer through the JSON exporter and runs the
// causal engine, exactly as chopintrace -critical does.
func analyzeRun(t *testing.T, tr *obs.Tracer) (*causal.Graph, *causal.Report) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := obs.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g, err := causal.Build(tf)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, g.Analyze()
}

// TestCausalPropertyAllSchemes is the engine's property test over real
// workloads: for every scheme, the causal graph built from a traced cod2
// frame must satisfy the accounting identities — attribution sums exactly to
// the makespan, the critical path never exceeds it, the graph never extends
// past the frame's simulated end, and a fault-free run charges nothing to
// retries.
func TestCausalPropertyAllSchemes(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	for _, s := range []Scheme{Duplication{}, GPUpd{}, SortMiddle{}, CHOPIN{}, CHOPIN{Reorder: true}} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			cfg := testConfig(4)
			tr := obs.New()
			cfg.Tracer = tr
			sys, st := runScheme(t, s, cfg, fr)
			sys.FinishTrace()

			g, r := analyzeRun(t, tr)
			if err := r.Check(); err != nil {
				t.Fatal(err)
			}
			if r.Makespan <= 0 {
				t.Fatal("empty causal graph from a traced run")
			}
			// Tagged spans live inside the simulated frame: the graph cannot
			// end after the frame does.
			if r.End > int64(st.TotalCycles) {
				t.Errorf("graph end %d after frame end %d", r.End, st.TotalCycles)
			}
			if r.CriticalPath > r.Makespan || r.CriticalPath <= 0 {
				t.Errorf("critical path %d outside (0, makespan %d]", r.CriticalPath, r.Makespan)
			}
			// No faults injected: nothing may be attributed to retries, and no
			// retry-tagged span may exist at all.
			if got := r.AttrFor(obs.CatRetry); got != 0 {
				t.Errorf("fault-free run attributes %d cycles to retry", got)
			}
			for _, n := range g.Nodes {
				if n.Cat == obs.CatRetry {
					t.Fatalf("fault-free run produced retry span %q on (%d,%d)", n.Name, n.Pid, n.Tid)
				}
			}
		})
	}
}

// TestCausalAttributionPinned pins the causal digest of two traced cod2
// frames exactly: graph size, makespan, critical path and every attribution
// bucket. Any change to graph construction or the backward walk that moves
// a single cycle of attribution shows up here.
func TestCausalAttributionPinned(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	type pin struct {
		nodes, edges   int
		makespan, path int64
		attr           map[obs.Category]int64
	}
	for _, tc := range []struct {
		s    Scheme
		want pin
	}{
		{CHOPIN{}, pin{277, 443, 104538, 21469, map[obs.Category]int64{
			obs.CatGeometry: 1784, obs.CatRaster: 7309, obs.CatComposition: 4096,
			obs.CatTransfer: 8280, obs.CatQueueing: 83069, obs.CatRetry: 0}}},
		{GPUpd{}, pin{953, 1482, 92842, 89784, map[obs.Category]int64{
			obs.CatGeometry: 6124, obs.CatRaster: 75999, obs.CatComposition: 0,
			obs.CatTransfer: 7661, obs.CatQueueing: 3058, obs.CatRetry: 0}}},
	} {
		t.Run(tc.s.Name(), func(t *testing.T) {
			cfg := testConfig(4)
			tr := obs.New()
			cfg.Tracer = tr
			sys, _ := runScheme(t, tc.s, cfg, fr)
			sys.FinishTrace()
			_, r := analyzeRun(t, tr)
			got := pin{r.Nodes, r.EdgeCount, r.Makespan, r.CriticalPath, map[obs.Category]int64{}}
			if got.nodes != tc.want.nodes || got.edges != tc.want.edges ||
				got.makespan != tc.want.makespan || got.path != tc.want.path {
				t.Errorf("nodes/edges/makespan/critical path = %d/%d/%d/%d, want %d/%d/%d/%d",
					got.nodes, got.edges, got.makespan, got.path,
					tc.want.nodes, tc.want.edges, tc.want.makespan, tc.want.path)
			}
			for _, c := range obs.Categories() {
				if a := r.AttrFor(c); a != tc.want.attr[c] {
					t.Errorf("attribution %s = %d, want %d", c, a, tc.want.attr[c])
				}
			}
		})
	}
}

// TestCausalCompositionFig4Ordering checks what the attribution shows of
// the paper's Fig. 4 argument at 8 GPUs. Duplication sidesteps composition
// entirely (every GPU renders every pixel), so it is the zero reference:
//
//   - attribution: CHOPIN charges real cycles to composition, Duplication
//     charges exactly none;
//   - scaling: CHOPIN's total composition work is strictly increasing in
//     GPU count (Fig. 4's growth trend).
func TestCausalCompositionFig4Ordering(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	type row struct{ attr, work int64 }
	measure := func(s Scheme, gpus int) row {
		cfg := testConfig(gpus)
		tr := obs.New()
		cfg.Tracer = tr
		sys, _ := runScheme(t, s, cfg, fr)
		sys.FinishTrace()
		g, r := analyzeRun(t, tr)
		if err := r.Check(); err != nil {
			t.Fatal(err)
		}
		var work int64
		for _, n := range g.Nodes {
			if n.Cat == obs.CatComposition {
				work += n.Dur
			}
		}
		return row{attr: r.AttrFor(obs.CatComposition), work: work}
	}

	chopin := measure(CHOPIN{}, 8)
	dup := measure(Duplication{}, 8)
	if chopin.attr <= 0 || chopin.work <= 0 {
		t.Errorf("CHOPIN composition: attribution %d, work %d; want both > 0", chopin.attr, chopin.work)
	}
	if dup.attr != 0 || dup.work != 0 {
		t.Errorf("Duplication composition: attribution %d, work %d; want exactly 0 (no composition exchange)", dup.attr, dup.work)
	}
	// Fig. 4 growth trend: composition work strictly increases with GPU count.
	if w2, w8 := measure(CHOPIN{}, 2).work, chopin.work; w2 >= w8 {
		t.Errorf("CHOPIN composition work did not grow with GPU count: %d at 2 GPUs vs %d at 8", w2, w8)
	}
}

// TestRetryAttributionUnderChaos injects seeded transfer drops into a CHOPIN
// frame and checks the retry machinery surfaces in the causal graph: retry
// spans appear, and the same run without faults has none. (The property test
// above pins the fault-free zero; this pins the fault-present signal.)
func TestRetryAttributionUnderChaos(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	cfg.Faults = &fault.Plan{
		Seed: 7,
		Transfers: []fault.TransferRule{
			{Class: fault.Any, Src: fault.Any, Dst: fault.Any, Drop: 0.2},
		},
	}
	tr := obs.New()
	cfg.Tracer = tr
	sys, st := runScheme(t, CHOPIN{}, cfg, fr)
	sys.FinishTrace()
	if st.Faults.Retries == 0 {
		t.Fatal("chaos plan produced no retransmissions; drop rate too low for this trace")
	}

	g, r := analyzeRun(t, tr)
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	retryNodes := 0
	for _, n := range g.Nodes {
		if n.Cat == obs.CatRetry {
			retryNodes++
		}
	}
	if retryNodes == 0 {
		t.Error("retransmitting run produced no retry-tagged spans")
	}
}

// TestCausalReportDeterministicAcrossRuns: two independent traced runs of the
// same scheme produce byte-identical timelines and therefore byte-identical
// causal reports — the determinism guarantee -json consumers rely on.
func TestCausalReportDeterministicAcrossRuns(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	dump := func() []byte {
		cfg := testConfig(4)
		tr := obs.New()
		cfg.Tracer = tr
		sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
		sys.FinishTrace()
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := dump(), dump()
	if !bytes.Equal(a, b) {
		t.Fatal("traced runs are not byte-identical; causal analysis cannot be deterministic")
	}
}
