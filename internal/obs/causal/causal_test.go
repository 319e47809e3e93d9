package causal

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"chopin/internal/obs"
)

// trace runs build against a fresh tracer and round-trips the result through
// the JSON exporter and loader, exactly as the CLI tooling consumes traces.
func trace(t *testing.T, build func(tr *obs.Tracer)) *obs.TraceFile {
	t.Helper()
	tr := obs.New()
	build(tr)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	tf, err := obs.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return tf
}

func mustBuild(t *testing.T, tf *obs.TraceFile) *Graph {
	t.Helper()
	g, err := Build(tf)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func wantAttr(t *testing.T, r *Report, c obs.Category, want int64) {
	t.Helper()
	if got := r.AttrFor(c); got != want {
		t.Errorf("attribution[%s] = %d, want %d", c, got, want)
	}
}

// TestChain: three spans on one track with one scheduling gap. The track
// edges carry the whole path; the 50-cycle gap between A and B is queueing.
//
//	A[0,100) geometry — gap 50 — B[150,250) raster — C[250,400) composition
func TestChain(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		tk := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
		tr.Span(tk, "a", 0, 100, obs.CatArg(obs.CatGeometry))
		tr.Span(tk, "b", 150, 100, obs.CatArg(obs.CatRaster))
		tr.Span(tk, "c", 250, 150, obs.CatArg(obs.CatComposition))
	})
	g := mustBuild(t, tf)
	if len(g.Nodes) != 3 || len(g.Edges) != 2 {
		t.Fatalf("got %d nodes, %d edges, want 3 nodes, 2 track edges", len(g.Nodes), len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.Kind != EdgeTrack {
			t.Errorf("edge %+v: want EdgeTrack", e)
		}
	}
	if g.Makespan() != 400 {
		t.Fatalf("makespan = %d, want 400", g.Makespan())
	}
	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	wantAttr(t, r, obs.CatGeometry, 100)
	wantAttr(t, r, obs.CatRaster, 100)
	wantAttr(t, r, obs.CatComposition, 150)
	wantAttr(t, r, obs.CatQueueing, 50)
	if r.CriticalPath != 350 {
		t.Errorf("critical path = %d, want 350", r.CriticalPath)
	}
}

// TestDiamond: two GPUs race to a barrier; the slow GPU's fragment work gates
// the release, and the merge runs after. Stage edges (shared "draw" arg) link
// geometry to rasterization, barrier edges join/release around the merge. The
// barrier wait is fully explained by the slow joiner, so queueing is zero.
//
//	GPU0: A geom[0,100) → B frag[100,200)
//	GPU1: C geom[0,150) → D frag[150,260)
//	barrier W[0,260) joined by D; merge M[260,400) released by W
func TestDiamond(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		g0g := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
		g0f := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
		g1g := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidGeometry, "geometry")
		g1f := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidFragment, "fragment")
		bar := tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
		draw := func(id int64) obs.Arg { return obs.Arg{Key: "draw", Val: id} }
		tr.Span(g0g, "draw geom", 0, 100, obs.CatArg(obs.CatGeometry), draw(1))
		tr.Span(g0f, "draw", 100, 100, obs.CatArg(obs.CatRaster), draw(1))
		tr.Span(g1g, "draw geom", 0, 150, obs.CatArg(obs.CatGeometry), draw(2))
		tr.Span(g1f, "draw", 150, 110, obs.CatArg(obs.CatRaster), draw(2))
		tr.Span(bar, "render", 0, 260, obs.CatArg(obs.CatQueueing))
		tr.Span(g0f, "merge", 260, 140, obs.CatArg(obs.CatComposition))
	})
	g := mustBuild(t, tf)

	kinds := map[EdgeKind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	// 2 stage edges (A→B, C→D), 1 join (D→W), 1 release (W→M), 1 track edge
	// (B→M on GPU0's fragment track).
	if kinds[EdgeStage] != 2 || kinds[EdgeBarrier] != 2 || kinds[EdgeTrack] != 1 {
		t.Fatalf("edge kinds = %v, want 2 stage, 2 barrier, 1 track", kinds)
	}

	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 400 {
		t.Fatalf("makespan = %d, want 400", r.Makespan)
	}
	// Path: C geom 150 + D frag 110 + M merge 140; the barrier is
	// pass-through, so no cycles are charged to queueing.
	wantAttr(t, r, obs.CatGeometry, 150)
	wantAttr(t, r, obs.CatRaster, 110)
	wantAttr(t, r, obs.CatComposition, 140)
	wantAttr(t, r, obs.CatQueueing, 0)
	if r.CriticalPath != 400 {
		t.Errorf("critical path = %d, want 400 (no waiting on the path)", r.CriticalPath)
	}
}

// TestDisconnectedTracks: two tracks with no edges between them. The walk
// follows the last-finishing span and charges its lead-in idle to queueing;
// the other track is off-path and unattributed.
func TestDisconnectedTracks(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		a := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
		b := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidFragment, "fragment")
		tr.Span(a, "a", 0, 100, obs.CatArg(obs.CatGeometry))
		tr.Span(b, "b", 50, 250, obs.CatArg(obs.CatRaster))
	})
	g := mustBuild(t, tf)
	if len(g.Edges) != 0 {
		t.Fatalf("got %d edges, want 0 between disconnected tracks", len(g.Edges))
	}
	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 300 {
		t.Fatalf("makespan = %d, want 300", r.Makespan)
	}
	wantAttr(t, r, obs.CatRaster, 250)
	wantAttr(t, r, obs.CatQueueing, 50)
	wantAttr(t, r, obs.CatGeometry, 0) // off the critical path
}

// TestFlowEdge: an egress→ingress transfer with 50 cycles of uncovered wire
// latency between the spans. The latency gap travels with the receiving
// span's category (transfer), not queueing.
func TestFlowEdge(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		eg := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidEgress, "egress")
		in := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidIngress, "ingress")
		tr.Span(eg, "primdist", 100, 100, obs.CatArg(obs.CatTransfer))
		id := tr.FlowStart(eg, "primdist", 100)
		tr.Span(in, "primdist", 250, 100, obs.CatArg(obs.CatTransfer))
		tr.FlowEnd(in, "primdist", 250, id)
	})
	g := mustBuild(t, tf)
	var flow *Edge
	for i := range g.Edges {
		if g.Edges[i].Kind == EdgeFlow {
			flow = &g.Edges[i]
		}
	}
	if flow == nil {
		t.Fatal("no flow edge built")
	}
	if from, to := g.Nodes[flow.From], g.Nodes[flow.To]; from.Tid != obs.TidEgress || from.Ts != 100 ||
		to.Tid != obs.TidIngress || to.Ts != 250 {
		t.Errorf("flow edge %+v binds %+v -> %+v, want egress@100 -> ingress@250", *flow, from, to)
	}
	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 250 { // [100, 350)
		t.Fatalf("makespan = %d, want 250", r.Makespan)
	}
	// 100 egress + 50 uncovered latency + 100 ingress, all transfer.
	wantAttr(t, r, obs.CatTransfer, 250)
	wantAttr(t, r, obs.CatQueueing, 0)
}

// TestCauseEdge: the one-shot SetCause mechanism links a delivery's ingress
// span to the work its callback launched on another track.
func TestCauseEdge(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		in := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidIngress, "ingress")
		fr := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
		tr.Span(in, "composition", 0, 100, obs.CatArg(obs.CatComposition))
		tr.SetCause(in, 100)
		tr.Span(fr, "merge", 150, 100, obs.CatArg(obs.CatComposition))
		tr.ClearCause()
	})
	g := mustBuild(t, tf)
	var cause *Edge
	for i := range g.Edges {
		if g.Edges[i].Kind == EdgeCause {
			cause = &g.Edges[i]
		}
	}
	if cause == nil {
		t.Fatal("no cause edge built from cause_* args")
	}
	if from, to := g.Nodes[cause.From], g.Nodes[cause.To]; from.Tid != obs.TidIngress || from.Ts != 0 ||
		to.Tid != obs.TidFragment || to.Ts != 150 {
		t.Errorf("cause edge %+v binds %+v -> %+v, want ingress@0 -> fragment@150", *cause, from, to)
	}
	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	wantAttr(t, r, obs.CatComposition, 200)
	wantAttr(t, r, obs.CatQueueing, 50) // the 100→150 scheduling gap
}

// TestClearCauseDisarms: ClearCause before any span means no cause args and
// no cause edge.
func TestClearCauseDisarms(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		in := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidIngress, "ingress")
		fr := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
		tr.Span(in, "composition", 0, 100, obs.CatArg(obs.CatComposition))
		tr.SetCause(in, 100)
		tr.ClearCause()
		tr.Span(fr, "merge", 150, 100, obs.CatArg(obs.CatComposition))
	})
	g := mustBuild(t, tf)
	for _, e := range g.Edges {
		if e.Kind == EdgeCause {
			t.Fatalf("unexpected cause edge %+v after ClearCause", e)
		}
	}
}

// TestUnjoinedBarrier: a barrier whose gating completions left no tagged
// span keeps its wait as irreducible queueing.
func TestUnjoinedBarrier(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		bar := tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
		fr := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
		tr.Span(bar, "control", 0, 200, obs.CatArg(obs.CatQueueing))
		tr.Span(fr, "merge", 200, 100, obs.CatArg(obs.CatComposition))
	})
	g := mustBuild(t, tf)
	r := g.Analyze()
	if err := r.Check(); err != nil {
		t.Fatal(err)
	}
	wantAttr(t, r, obs.CatQueueing, 200)
	wantAttr(t, r, obs.CatComposition, 100)
	if r.CriticalPath != 100 {
		t.Errorf("critical path = %d, want 100", r.CriticalPath)
	}
}

// TestNoCategories: an untagged trace is not analyzable.
func TestNoCategories(t *testing.T) {
	tf := trace(t, func(tr *obs.Tracer) {
		tk := tr.Track(obs.PidSim, obs.SimProcName, obs.TidPhases, "phases")
		tr.Span(tk, "frame", 0, 100) // no category arg
	})
	if _, err := Build(tf); !errors.Is(err, ErrNoCategories) {
		t.Fatalf("Build = %v, want ErrNoCategories", err)
	}
}

// TestCycleDetection: two opposing same-timestamp flow arrows are the one
// shape that can make the graph cyclic (all finish-to-start kinds strictly
// advance time). Build must fail with a typed *CycleError, not hang or panic.
func TestCycleDetection(t *testing.T) {
	raw := `{"traceEvents":[
		{"name":"a","ph":"X","ts":100,"dur":100,"pid":1,"tid":3,"args":{"cat":4}},
		{"name":"b","ph":"X","ts":100,"dur":50,"pid":2,"tid":4,"args":{"cat":4}},
		{"name":"a","ph":"s","ts":100,"pid":1,"tid":3,"id":"1"},
		{"name":"a","ph":"f","ts":100,"pid":2,"tid":4,"id":"1"},
		{"name":"b","ph":"s","ts":100,"pid":2,"tid":4,"id":"2"},
		{"name":"b","ph":"f","ts":100,"pid":1,"tid":3,"id":"2"}
	]}`
	tf, err := obs.Load(bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var ce *CycleError
	if _, err := Build(tf); !errors.As(err, &ce) {
		t.Fatalf("Build = %v, want *CycleError", err)
	} else if ce.Remaining == 0 {
		t.Fatalf("CycleError.Remaining = 0, want > 0")
	}
}

// TestMalformedSpansSkipped: spans with absurd or negative timing are dropped
// instead of poisoning the analysis.
func TestMalformedSpansSkipped(t *testing.T) {
	raw := `{"traceEvents":[
		{"name":"ok","ph":"X","ts":0,"dur":100,"pid":1,"tid":1,"args":{"cat":1}},
		{"name":"neg","ph":"X","ts":-5,"dur":100,"pid":1,"tid":1,"args":{"cat":1}},
		{"name":"zero","ph":"X","ts":10,"dur":0,"pid":1,"tid":1,"args":{"cat":1}},
		{"name":"huge","ph":"X","ts":2305843009213693952,"dur":7,"pid":1,"tid":1,"args":{"cat":1}}
	]}`
	tf, err := obs.Load(bytes.NewReader([]byte(raw)))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	g := mustBuild(t, tf)
	if len(g.Nodes) != 1 {
		t.Fatalf("got %d nodes, want 1 (malformed spans skipped)", len(g.Nodes))
	}
	if g.Makespan() != 100 {
		t.Errorf("makespan = %d, want 100", g.Makespan())
	}
}

// TestDeterminism: two independent builds of the same trace produce
// byte-identical reports, including path ordering.
func TestDeterminism(t *testing.T) {
	build := func(tr *obs.Tracer) {
		g0g := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
		g0f := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
		bar := tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
		tr.Span(g0g, "draw geom", 0, 100, obs.CatArg(obs.CatGeometry), obs.Arg{Key: "draw", Val: 1})
		tr.Span(g0f, "draw", 100, 80, obs.CatArg(obs.CatRaster), obs.Arg{Key: "draw", Val: 1})
		tr.Span(bar, "render", 0, 180, obs.CatArg(obs.CatQueueing))
		tr.Span(g0f, "merge", 180, 60, obs.CatArg(obs.CatComposition))
	}
	var out [2][]byte
	for i := range out {
		r, err := AnalyzeTrace(trace(t, build))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("reports differ:\n%s\n%s", out[0], out[1])
	}
}
