package sfr

import (
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/fault"
	"chopin/internal/interconnect"
	"chopin/internal/stats"
)

// TestPlanMidPlanGPUFailureGolden is the scale-out acceptance test for
// fault recovery under a multi-round exchange plan: on a 16-GPU mesh, a GPU
// that owns tiles fail-stops mid-frame. Its in-flight work counts as
// flushed, the exchange finishes, and the next step-boundary checkpoint
// re-renders its tiles on survivors; the frame must still assemble the
// byte-identical reference image with the recovery cost accounted. The
// failure cycle sweeps several points of the frame, so failures land both
// inside and between exchanges.
func TestPlanMidPlanGPUFailureGolden(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(16).Raster)[0]
	for _, alg := range []plan.Algorithm{plan.AlgBinarySwap, plan.AlgRadixK} {
		cfg := planConfig(16, alg, interconnect.TopoMesh2D)
		_, base := runScheme(t, CHOPIN{}, cfg, fr)
		recovery := int64(0)
		for _, frac := range []float64{0.30, 0.50, 0.70} {
			at := int64(float64(base.TotalCycles) * frac)
			cfg := planConfig(16, alg, interconnect.TopoMesh2D)
			// The 128×128 test screen has 4 tiles, so only GPUs 0–3 own
			// one; a failure of any other GPU costs no re-render.
			cfg.Faults = failPlanAt(1, at)
			sys, st := runScheme(t, CHOPIN{}, cfg, fr)
			if st.GPUsFailed != 1 {
				t.Fatalf("%s fail@%d: GPUsFailed = %d, want 1", alg, at, st.GPUsFailed)
			}
			if st.RecoveryCycles != st.Phase(stats.PhaseRecovery) {
				t.Errorf("%s fail@%d: RecoveryCycles = %d, PhaseRecovery = %d; must agree",
					alg, at, st.RecoveryCycles, st.Phase(stats.PhaseRecovery))
			}
			img := sys.AssembleImage(0)
			if !img.Equal(ref, 1e-9) {
				t.Errorf("%s fail@%d: degraded image differs from reference in %d of %d pixels",
					alg, at, img.DiffCount(ref, 1e-9), fr.Width*fr.Height)
			}
			recovery += int64(st.RecoveryCycles)
		}
		// Across the sweep at least one failure must cost cycles.
		if recovery == 0 {
			t.Errorf("%s: every swept failure recovered for free: sum RecoveryCycles = 0", alg)
		}
	}
}

// TestPlanLinkDownDuringFrameGolden downs a mesh link mid-frame: the fabric
// must reroute every affected exchange transfer around the dead link and
// the image must stay byte-identical — a link fault changes timing, never
// pixels.
func TestPlanLinkDownDuringFrameGolden(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(16).Raster)[0]
	cfg := planConfig(16, plan.AlgBinarySwap, interconnect.TopoMesh2D)
	_, base := runScheme(t, CHOPIN{}, cfg, fr)

	cfg = planConfig(16, plan.AlgBinarySwap, interconnect.TopoMesh2D)
	cfg.Faults = &fault.Plan{Seed: 3, LinkFails: []fault.LinkFail{
		{A: 5, B: 6, At: base.TotalCycles / 4},
	}}
	sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
	if img := sys.AssembleImage(0); !img.Equal(ref, 1e-9) {
		t.Fatalf("link-down image differs from reference in %d pixels", img.DiffCount(ref, 1e-9))
	}
	if got := sys.Fabric.DownedLinks(); len(got) != 1 || got[0] != [2]int{5, 6} {
		t.Errorf("DownedLinks() = %v, want [[5 6]]", got)
	}
	if sys.Fabric.RerouteCount() == 0 {
		t.Error("no transfer was rerouted around the downed mesh link")
	}
	if sys.Fabric.UnroutableCount() != 0 {
		t.Errorf("mesh with one downed link reported %d unroutable transfers",
			sys.Fabric.UnroutableCount())
	}
}

// TestPlanGPUFailPlusLinkDownGolden is the combined acceptance scenario: a
// 16-GPU mesh radix-k frame survives a mid-frame fail-stop of a GPU that
// owns tiles AND a downed link, producing the byte-identical reference
// image with recovery accounted.
func TestPlanGPUFailPlusLinkDownGolden(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(16).Raster)[0]
	cfg := planConfig(16, plan.AlgRadixK, interconnect.TopoMesh2D)
	_, base := runScheme(t, CHOPIN{}, cfg, fr)

	cfg = planConfig(16, plan.AlgRadixK, interconnect.TopoMesh2D)
	cfg.Faults = &fault.Plan{
		Seed:      7,
		GPUs:      []fault.GPUFault{{GPU: 2, At: int64(base.TotalCycles / 2), Fail: true}},
		LinkFails: []fault.LinkFail{{A: 1, B: 2, At: base.TotalCycles / 4}},
	}
	sys, st := runScheme(t, CHOPIN{}, cfg, fr)
	if st.GPUsFailed != 1 {
		t.Fatalf("GPUsFailed = %d, want 1", st.GPUsFailed)
	}
	if st.RecoveryCycles <= 0 {
		t.Error("combined fault left no recovery trace: RecoveryCycles = 0")
	}
	if st.RecoveryCycles != st.Phase(stats.PhaseRecovery) {
		t.Errorf("RecoveryCycles = %d, PhaseRecovery = %d; must agree",
			st.RecoveryCycles, st.Phase(stats.PhaseRecovery))
	}
	img := sys.AssembleImage(0)
	if !img.Equal(ref, 1e-9) {
		t.Fatalf("degraded image differs from reference in %d of %d pixels",
			img.DiffCount(ref, 1e-9), fr.Width*fr.Height)
	}
}

// TestPlanTwoGPUFailStop fail-stops one of two GPUs mid-frame under
// binary-swap: the lone survivor re-renders the failed GPU's tiles at the
// next checkpoint and renders the reference image.
func TestPlanTwoGPUFailStop(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	ref := ReferenceImages(fr, testConfig(2).Raster)[0]
	cfg := planConfig(2, plan.AlgBinarySwap, interconnect.TopoCrossbar)
	_, base := runScheme(t, CHOPIN{}, cfg, fr)

	cfg = planConfig(2, plan.AlgBinarySwap, interconnect.TopoCrossbar)
	cfg.Faults = failPlanAt(1, int64(base.TotalCycles/2))
	sys, st := runScheme(t, CHOPIN{}, cfg, fr)
	if st.GPUsFailed != 1 {
		t.Fatalf("GPUsFailed = %d, want 1", st.GPUsFailed)
	}
	if img := sys.AssembleImage(0); !img.Equal(ref, 1e-9) {
		t.Fatalf("lone-survivor image differs from reference in %d pixels", img.DiffCount(ref, 1e-9))
	}
}
