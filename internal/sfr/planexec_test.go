package sfr

import (
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
)

// planConfig returns a test configuration running the given exchange plan
// over the given fabric topology.
func planConfig(n int, alg plan.Algorithm, topo interconnect.TopologyKind) multigpu.Config {
	cfg := testConfig(n)
	cfg.CompAlg = alg
	cfg.Link.Topology = topo
	return cfg
}

// TestPlanPathMatchesReferenceImage is the master correctness test for the
// plan executor: every exchange plan must assemble exactly the image the
// paper's direct send does, at power-of-two group sizes and at n=9, a
// radix-3 plan.
func TestPlanPathMatchesReferenceImage(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(4).Raster)[0]
	cases := []struct {
		n, k int
		algs []plan.Algorithm
	}{
		{4, 0, []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK}},
		{8, 0, []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK}},
		{9, 3, []plan.Algorithm{plan.AlgRadixK}},
	}
	for _, c := range cases {
		for _, alg := range c.algs {
			cfg := planConfig(c.n, alg, interconnect.TopoCrossbar)
			cfg.RadixK = c.k
			sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s n=%d k=%d: image differs from reference in %d pixels",
					alg, c.n, c.k, img.DiffCount(ref, 1e-9))
			}
		}
	}
}

// TestPlanPathOnRoutedTopologies checks the full stack — exchange plan over
// a routed fabric — still produces the reference image: timing models must
// never change pixels.
func TestPlanPathOnRoutedTopologies(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(8).Raster)[0]
	for _, topo := range []interconnect.TopologyKind{interconnect.TopoRing, interconnect.TopoMesh2D} {
		for _, alg := range []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgRadixK} {
			cfg := planConfig(8, alg, topo)
			sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s on %s: image differs from reference in %d pixels",
					alg, topo, img.DiffCount(ref, 1e-9))
			}
		}
	}
}

// TestPlanPathTrafficAccounted checks the plan executor's exchanges flow
// through the fabric's composition class: the stats must show nonzero
// composition traffic that matches the fabric's own ledger.
func TestPlanPathTrafficAccounted(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := planConfig(4, plan.AlgBinarySwap, interconnect.TopoCrossbar)
	sys, st := runScheme(t, CHOPIN{}, cfg, fr)
	if st.CompositionBytes == 0 {
		t.Fatal("plan path reported zero composition traffic")
	}
	if got := sys.Fabric.Stats().BytesFor(interconnect.ClassComposition); got != st.CompositionBytes {
		t.Fatalf("CompositionBytes = %d, fabric ledger = %d", st.CompositionBytes, got)
	}
}

// TestPlanPathDeterministic pins that a plan-executed run is replayable:
// identical configuration twice gives identical cycles and traffic.
func TestPlanPathDeterministic(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	run := func() (int64, int64) {
		cfg := planConfig(8, plan.AlgRadixK, interconnect.TopoMesh2D)
		_, st := runScheme(t, CHOPIN{}, cfg, fr)
		return int64(st.TotalCycles), st.CompositionBytes
	}
	c1, b1 := run()
	c2, b2 := run()
	if c1 != c2 || b1 != b2 {
		t.Fatalf("nondeterministic plan run: cycles %d vs %d, bytes %d vs %d", c1, c2, b1, b2)
	}
}

// TestScaleOutSmoke drives the full 64-GPU scale across every topology ×
// algorithm cell at tiny scale: the frame must complete, settle every
// event, and still assemble the reference image. This is the CI gate for
// the scale-out configuration space.
func TestScaleOutSmoke(t *testing.T) {
	fr := testFrame(t, "wolf", 0.02)
	ref := ReferenceImages(fr, testConfig(64).Raster)[0]
	topos := []interconnect.TopologyKind{interconnect.TopoCrossbar, interconnect.TopoRing, interconnect.TopoMesh2D}
	algs := []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgRadixK}
	for _, topo := range topos {
		for _, alg := range algs {
			cfg := planConfig(64, alg, topo)
			sys, st := runScheme(t, CHOPIN{}, cfg, fr)
			if st.TotalCycles <= 0 {
				t.Fatalf("CHOPIN/%s on %s: empty run", alg, topo)
			}
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("CHOPIN/%s on %s at 64 GPUs: image differs in %d pixels",
					alg, topo, img.DiffCount(ref, 1e-9))
			}
		}
	}
}
