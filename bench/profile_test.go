package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"chopin/internal/raster.(*Renderer).Draw":             "raster",
		"chopin/internal/raster.(*Renderer).rasterTri.func1":  "raster",
		"chopin/internal/shade.Program.Vertex":                "raster",
		"chopin/internal/composite/plan.BinarySwap":           "composite",
		"chopin/internal/sfr.CHOPIN.Run":                      "orchestration",
		"chopin/internal/experiments.runJobs.func2":           "experiments",
		"chopin/internal/vecmath.Mat4.Mul":                    "",
		"chopin/internal/stats.(*FrameStats).CaptureGPU":      "",
		"runtime.mallocgc":                                    "",
		"main.drawAll":                                        "",
		"chopin/internal/framebuffer.(*Buffer).Clear":         "framebuffer",
		"chopin/internal/interconnect.(*Fabric).Send[...]":    "interconnect",
		"chopin/internal/obs.(*Tracer).Span":                  "",
		"github.com/other/chopin/internal/raster.Draw":        "",
		"chopin/internal/trace.(*generator).run":              "trace",
		"chopin/internal/gpu.(*GPU).CommitDraw":               "gpu",
		"chopin/internal/sim.(*Engine).Step":                  "sim",
		"chopin/internal/multigpu.(*System).AssembleImage":    "orchestration",
		"chopin/internal/composite.DepthMerge":                "composite",
		"chopin/internal/interconnect.(*LinkTelemetry).Merge": "interconnect",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerSharesAttributeToInnermostLayerFrame(t *testing.T) {
	p := &cpuProfile{
		strs: []string{"",
			"runtime.mallocgc",                          // 1
			"chopin/internal/vecmath.Mat4.Mul",          // 2
			"chopin/internal/raster.(*Renderer).Draw",   // 3
			"chopin/internal/framebuffer.New",           // 4
			"main.main",                                 // 5
			"chopin/internal/shade.Program.Vertex",      // 6
			"chopin/internal/experiments.runJobs.func2", // 7
		},
		funcName: map[uint64]uint64{1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7},
		locFuncs: map[uint64][]uint64{
			10: {1}, 11: {2}, 12: {3}, 13: {4}, 14: {5},
			// An inlined pair: shade inlined into experiments' caller.
			15: {6, 7},
		},
		samples: []profSample{
			// Helper and runtime frames pass to their raster caller.
			{locs: []uint64{10, 11, 12, 14}, value: 30},
			// Allocation inside framebuffer.New counts as framebuffer.
			{locs: []uint64{10, 13, 12, 14}, value: 50},
			// No layer frame at all.
			{locs: []uint64{10, 14}, value: 10},
			// The innermost inlined function decides.
			{locs: []uint64{15, 14}, value: 10},
		},
	}
	got, err := p.layerShares()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"raster": 40, "framebuffer": 50, "other": 10}
	var sum float64
	for _, l := range hostLayers {
		sum += got[l]
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("share of %s = %g, want %g", l, got[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
	if _, err := (&cpuProfile{}).layerShares(); err == nil {
		t.Error("an empty profile yielded shares")
	}
}

// TestCapturedProfileDecodes profiles a busy loop in the framebuffer
// package and checks that the decoder finds its samples there.
func TestCapturedProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(600 * time.Millisecond); time.Now().Before(end); {
		fb := framebuffer.MustNew(256, 256)
		for i := 0; i < 4; i++ {
			fb.Clear(colorspace.Transparent, framebuffer.ClearDepth)
		}
	}
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) < 20 {
		t.Fatalf("captured %d samples, want at least 20", len(p.samples))
	}
	shares, err := p.layerShares()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range hostLayers {
		sum += shares[l]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
	// Under the race detector many samples stop in its runtime without a Go
	// caller and count as "other", so require only that framebuffer leads
	// the layers.
	for _, l := range hostLayers {
		if l != "framebuffer" && l != "other" && shares[l] >= shares["framebuffer"] {
			t.Errorf("%s share %.1f%% is not below framebuffer's %.1f%% in a framebuffer busy loop", l, shares[l], shares["framebuffer"])
		}
	}
	if shares["framebuffer"] < 10 {
		t.Errorf("framebuffer share %.1f%% in a framebuffer busy loop; shares %v", shares["framebuffer"], shares)
	}
}

func TestParseRejectsTruncatedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	if _, err := parseCPUProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile parsed")
	}
	if err := protoFields([]byte{0x12, 0x05, 0x01}, func(int, int, uint64, []byte) error { return nil }); err != errTruncated {
		t.Errorf("short length-delimited field: err %v, want %v", err, errTruncated)
	}
}
