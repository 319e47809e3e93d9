package causal

import (
	"bytes"
	"errors"
	"testing"

	"chopin/internal/obs"
)

// FuzzBuild feeds arbitrary bytes through the trace loader and graph builder.
// The contract on malformed input is typed errors, never panics; and whenever
// a graph does come out, the attribution walk must still tile the makespan
// exactly (the accounting identity holds for every DAG the builder can emit,
// not just exporter output).
func FuzzBuild(f *testing.F) {
	// A well-formed trace with every edge kind reachable.
	tr := obs.New()
	g0g := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
	g0f := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
	eg := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidEgress, "egress")
	in := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidIngress, "ingress")
	bar := tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
	tr.Span(g0g, "draw geom", 0, 100, obs.CatArg(obs.CatGeometry), obs.Arg{Key: "draw", Val: 1})
	tr.Span(g0f, "draw", 100, 80, obs.CatArg(obs.CatRaster), obs.Arg{Key: "draw", Val: 1})
	tr.Span(eg, "composition", 180, 40, obs.CatArg(obs.CatComposition))
	id := tr.FlowStart(eg, "composition", 180)
	tr.Span(in, "composition", 230, 40, obs.CatArg(obs.CatComposition))
	tr.FlowEnd(in, "composition", 230, id)
	tr.SetCause(in, 270)
	tr.Span(g0f, "merge", 270, 30, obs.CatArg(obs.CatComposition))
	tr.ClearCause()
	tr.Span(bar, "render", 0, 300, obs.CatArg(obs.CatQueueing))
	var valid bytes.Buffer
	if err := tr.WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/2]) // truncated mid-event
	// The opposing-flows shape that makes the graph cyclic.
	f.Add([]byte(`{"traceEvents":[
		{"name":"a","ph":"X","ts":100,"dur":100,"pid":1,"tid":3,"args":{"cat":4}},
		{"name":"b","ph":"X","ts":100,"dur":50,"pid":2,"tid":4,"args":{"cat":4}},
		{"name":"a","ph":"s","ts":100,"pid":1,"tid":3,"id":"1"},
		{"name":"a","ph":"f","ts":100,"pid":2,"tid":4,"id":"1"},
		{"name":"b","ph":"s","ts":100,"pid":2,"tid":4,"id":"2"},
		{"name":"b","ph":"f","ts":100,"pid":1,"tid":3,"id":"2"}
	]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`[{"name":"x","ph":"X","ts":9e30,"dur":1,"pid":0,"tid":2,"args":{"cat":5}}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := obs.Load(bytes.NewReader(data))
		if err != nil {
			return // loader rejected it; that is a valid outcome
		}
		g, err := Build(tf)
		if err != nil {
			var ce *CycleError
			if !errors.Is(err, ErrNoCategories) && !errors.As(err, &ce) {
				t.Fatalf("Build returned untyped error %v", err)
			}
			return
		}
		r := g.Analyze()
		var sum int64
		for _, a := range r.Attribution {
			if a.Cycles < 0 {
				t.Fatalf("negative attribution %+v", a)
			}
			sum += a.Cycles
		}
		if sum != r.Makespan {
			t.Fatalf("attribution sums to %d, want makespan %d", sum, r.Makespan)
		}
		if r.CriticalPath < 0 || r.CriticalPath > r.Makespan {
			t.Fatalf("critical path %d outside [0, %d]", r.CriticalPath, r.Makespan)
		}
	})
}
