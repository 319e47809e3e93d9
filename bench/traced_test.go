package main

import (
	"math"
	"testing"
)

// TestTracedFrameReportsEveryLayer runs a traced repetition of a frame
// workload, shrunk, in process: it must report every per-layer metric but
// the tracing overhead, which the parent computes, and simulate exactly
// what the untraced repetition does.
func TestTracedFrameReportsEveryLayer(t *testing.T) {
	w, err := workloadByName("frame64-bswap")
	if err != nil {
		t.Fatal(err)
	}
	f := w.frame
	f.scale = 0.1
	r, err := f.tracedRep(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics {
		v, ok := r.Layers[m.name]
		if m.name == "trace_overhead_pct" {
			ok = !ok
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v (reported %v)", m.name, v, ok)
		}
	}
	var sum float64
	for _, l := range hostLayers {
		sum += r.Layers["host_pct."+l]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("host shares sum to %g", sum)
	}
	base, err := f.rep(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != base.Cycles || r.Checksum != base.Checksum || r.Frags != base.Frags {
		t.Errorf("traced repetition simulated %d cycles, image %x, %d fragments; untraced %d, %x, %d",
			r.Cycles, r.Checksum, r.Frags, base.Cycles, base.Checksum, base.Frags)
	}
}
