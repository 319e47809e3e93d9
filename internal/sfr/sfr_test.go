package sfr

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/core"
	"chopin/internal/exec"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

// testFrame returns a reduced-scale benchmark trace. Generation is cached
// per benchmark+scale across tests.
var frameCache = map[string]*primitive.Frame{}

func testFrame(t *testing.T, bench string, scale float64) *primitive.Frame {
	t.Helper()
	key := fmt.Sprintf("%s@%g", bench, scale)
	if fr, ok := frameCache[key]; ok {
		return fr
	}
	b, err := trace.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.Generate(b, scale)
	frameCache[key] = fr
	return fr
}

// testConfig returns a small, fast system configuration with a threshold
// scaled down to match the reduced traces.
func testConfig(n int) multigpu.Config {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = n
	cfg.GroupThreshold = 256 // traces are ~25× smaller than Table III
	return cfg
}

func runScheme(t *testing.T, s Scheme, cfg multigpu.Config, fr *primitive.Frame) (*multigpu.System, *stats.FrameStats) {
	t.Helper()
	sys, err := multigpu.New(cfg, fr.Width, fr.Height)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(sys, fr)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if sys.Eng.Pending() != 0 {
		t.Fatalf("%s: %d events still pending after run", s.Name(), sys.Eng.Pending())
	}
	if st.TotalCycles <= 0 {
		t.Fatalf("%s: no cycles simulated", s.Name())
	}
	return sys, st
}

// TestSchemesMatchReferenceImage is the master correctness test: every
// scheme's assembled display image must equal the single-GPU reference
// (within floating-point blending tolerance).
func TestSchemesMatchReferenceImage(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	ref := ReferenceImages(fr, cfg.Raster)[0]

	naive := testConfig(4)
	naive.UseCompScheduler = false
	ideal := testConfig(4)
	ideal.Link.Ideal = true

	cases := []struct {
		scheme Scheme
		cfg    multigpu.Config
	}{
		{Duplication{}, cfg},
		{GPUpd{}, cfg},
		{GPUpd{}, ideal},
		{CHOPIN{}, cfg},
		{CHOPIN{}, naive},
		{CHOPIN{}, ideal},
		{CHOPIN{RoundRobin: true}, cfg},
	}
	for _, c := range cases {
		name := c.scheme.Name()
		sys, _ := runScheme(t, c.scheme, c.cfg, fr)
		img := sys.AssembleImage(0)
		if !img.Equal(ref, 1e-9) {
			t.Errorf("%s (ideal=%v, compsched=%v): image differs from reference in %d of %d pixels",
				name, c.cfg.Link.Ideal, c.cfg.UseCompScheduler,
				img.DiffCount(ref, 1e-9), fr.Width*fr.Height)
		}
	}
}

// TestSchemesMatchReferenceAcrossBenchmarks widens the correctness net over
// more workload shapes with the flagship scheme.
func TestSchemesMatchReferenceAcrossBenchmarks(t *testing.T) {
	for _, bench := range []string{"grid", "ut3"} {
		fr := testFrame(t, bench, 0.02)
		cfg := testConfig(8)
		ref := ReferenceImages(fr, cfg.Raster)[0]
		sys, _ := runScheme(t, CHOPIN{}, cfg, fr)
		img := sys.AssembleImage(0)
		if !img.Equal(ref, 1e-9) {
			t.Errorf("%s: CHOPIN image differs in %d pixels", bench, img.DiffCount(ref, 1e-9))
		}
	}
}

// TestPhasesSumToTotal is the phase-accounting invariant of the exec
// runtime: for every scheme on every trace, the per-phase cycles must
// partition the frame's wall clock exactly, and a scheme may only report
// phases its pipeline actually has.
func TestPhasesSumToTotal(t *testing.T) {
	valid := map[string]map[stats.Phase]bool{
		"Duplication": {stats.PhaseNormal: true, stats.PhaseSync: true},
		"GPUpd": {stats.PhaseNormal: true, stats.PhaseProjection: true,
			stats.PhaseDistribution: true, stats.PhaseSync: true},
		"SortMiddle": {stats.PhaseNormal: true, stats.PhaseProjection: true,
			stats.PhaseDistribution: true, stats.PhaseSync: true},
		"CHOPIN": {stats.PhaseNormal: true, stats.PhaseComposition: true,
			stats.PhaseSync: true},
	}
	valid["CHOPIN_Round_Robin"] = valid["CHOPIN"]
	valid["CHOPIN_Reorder"] = valid["CHOPIN"]

	frames := map[string]*primitive.Frame{
		"cod2": testFrame(t, "cod2", 0.04),
		"wolf": testFrame(t, "wolf", 0.03),
		"grid": testFrame(t, "grid", 0.02),
	}
	schemes := []Scheme{
		Duplication{}, GPUpd{}, SortMiddle{},
		CHOPIN{}, CHOPIN{RoundRobin: true}, CHOPIN{Reorder: true},
	}
	for bench, fr := range frames {
		for _, s := range schemes {
			_, st := runScheme(t, s, testConfig(4), fr)
			var sum int64
			for _, p := range stats.Phases() {
				sum += int64(st.Phase(p))
				if st.Phase(p) > 0 && !valid[s.Name()][p] {
					t.Errorf("%s/%s: reports %d cycles in invalid phase %s",
						s.Name(), bench, st.Phase(p), p)
				}
			}
			if sum != int64(st.TotalCycles) {
				t.Errorf("%s/%s: phases sum to %d, total %d", s.Name(), bench, sum, st.TotalCycles)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	for _, s := range []Scheme{Duplication{}, GPUpd{}, CHOPIN{}} {
		_, a := runScheme(t, s, testConfig(4), fr)
		_, b := runScheme(t, s, testConfig(4), fr)
		if a.TotalCycles != b.TotalCycles {
			t.Errorf("%s: runs differ: %d vs %d cycles", s.Name(), a.TotalCycles, b.TotalCycles)
		}
	}
}

// TestCHOPINOutperformsDuplication checks the headline direction of paper
// Fig. 13: at 8 GPUs CHOPIN+CompSched beats primitive duplication. The
// scale must be large enough that groups hold many more draws than GPUs.
func TestCHOPINOutperformsDuplication(t *testing.T) {
	b, err := trace.ByName("cry")
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.Generate(b, 0.15)
	cfg := testConfig(8)
	cfg.GroupThreshold = 1024
	_, dup := runScheme(t, Duplication{}, cfg, fr)
	_, ch := runScheme(t, CHOPIN{}, cfg, fr)
	speedup := ch.Speedup(dup)
	if speedup <= 1.0 {
		t.Errorf("CHOPIN speedup = %.3f, want > 1 (dup=%d chopin=%d cycles)",
			speedup, dup.TotalCycles, ch.TotalCycles)
	}
}

// TestDuplicationGeometryShareGrows checks the paper Fig. 2 trend: the
// geometry fraction of pipeline cycles grows with GPU count under
// duplication, because geometry is redundant while fragment work splits.
func TestDuplicationGeometryShareGrows(t *testing.T) {
	fr := testFrame(t, "cry", 0.04)
	var prev float64
	for _, n := range []int{1, 2, 4, 8} {
		_, st := runScheme(t, Duplication{}, testConfig(n), fr)
		share := st.GeometryShare()
		if share <= prev {
			t.Errorf("geometry share at %d GPUs = %.3f, want > %.3f", n, share, prev)
		}
		prev = share
	}
}

// TestCHOPINNoRedundantGeometry: under CHOPIN, the summed geometry busy
// cycles are close to the single-GPU total, while duplication multiplies
// them by the GPU count.
func TestCHOPINNoRedundantGeometry(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	_, one := runScheme(t, Duplication{}, testConfig(1), fr)
	_, dup := runScheme(t, Duplication{}, cfg, fr)
	_, ch := runScheme(t, CHOPIN{}, cfg, fr)

	sumGeom := func(st *stats.FrameStats) int64 {
		var s int64
		for _, g := range st.GPUs {
			s += int64(g.GeomBusy)
		}
		return s
	}
	g1, g4dup, g4ch := sumGeom(one), sumGeom(dup), sumGeom(ch)
	if g4dup < 3*g1 {
		t.Errorf("duplication geometry not redundant: 1 GPU %d, 4 GPUs %d", g1, g4dup)
	}
	// CHOPIN should stay within ~1.5× of the single-GPU geometry total
	// (the overage comes from below-threshold duplicated groups).
	if g4ch > 3*g1/2 {
		t.Errorf("CHOPIN geometry = %d, single GPU = %d; too much redundancy", g4ch, g1)
	}
}

// TestCHOPINExtraFragments checks the Fig. 15 direction: CHOPIN processes
// somewhat more depth-passing fragments than duplication (missing remote
// occluders), but not wildly more.
func TestCHOPINExtraFragments(t *testing.T) {
	fr := testFrame(t, "cry", 0.04)
	cfg := testConfig(8)
	_, dup := runScheme(t, Duplication{}, cfg, fr)
	_, ch := runScheme(t, CHOPIN{}, cfg, fr)
	d := dup.Raster.DepthPassed()
	c := ch.Raster.DepthPassed()
	if c < d {
		t.Errorf("CHOPIN depth-passing fragments (%d) below duplication (%d)?", c, d)
	}
	if float64(c) > 1.6*float64(d) {
		t.Errorf("CHOPIN depth-passing fragments %.2f× duplication; expected modest increase",
			float64(c)/float64(d))
	}
}

// TestCompositionTrafficAccounted: CHOPIN reports composition traffic,
// GPUpd reports distribution traffic, duplication reports neither.
func TestCompositionTrafficAccounted(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	_, dup := runScheme(t, Duplication{}, cfg, fr)
	_, gp := runScheme(t, GPUpd{}, cfg, fr)
	_, ch := runScheme(t, CHOPIN{}, cfg, fr)

	if dup.CompositionBytes != 0 || dup.PrimDistBytes != 0 {
		t.Errorf("duplication traffic: comp=%d dist=%d", dup.CompositionBytes, dup.PrimDistBytes)
	}
	if gp.PrimDistBytes == 0 {
		t.Error("GPUpd reported no primitive-distribution traffic")
	}
	if ch.CompositionBytes == 0 {
		t.Error("CHOPIN reported no composition traffic")
	}
	if ch.ControlBytes == 0 {
		t.Error("CHOPIN reported no scheduler control traffic")
	}
}

// TestGroupAccounting: the plan statistics flow through to FrameStats.
func TestGroupAccounting(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	_, ch := runScheme(t, CHOPIN{}, testConfig(4), fr)
	if ch.GroupsTotal == 0 || ch.GroupsAccelerated == 0 {
		t.Errorf("groups: total=%d accelerated=%d", ch.GroupsTotal, ch.GroupsAccelerated)
	}
	if ch.GroupsAccelerated > ch.GroupsTotal {
		t.Error("accelerated groups exceed total")
	}
	if ch.TrianglesAccelerated <= 0 || ch.TrianglesAccelerated > ch.Triangles {
		t.Errorf("accelerated triangles = %d of %d", ch.TrianglesAccelerated, ch.Triangles)
	}
}

// TestCompSchedulerHelpsOrEqual: the composition scheduler should not slow
// CHOPIN down (it exists to avoid congestion).
func TestCompSchedulerHelpsOrEqual(t *testing.T) {
	fr := testFrame(t, "grid", 0.02)
	with := testConfig(8)
	without := testConfig(8)
	without.UseCompScheduler = false
	_, a := runScheme(t, CHOPIN{}, with, fr)
	_, b := runScheme(t, CHOPIN{}, without, fr)
	// Allow a small tolerance: at tiny scales scheduling noise can flip.
	if float64(a.TotalCycles) > 1.10*float64(b.TotalCycles) {
		t.Errorf("comp scheduler hurt: with=%d without=%d", a.TotalCycles, b.TotalCycles)
	}
}

// TestNaiveDirectSendStagger pins the order naive direct send issues each
// sender's sessions in — g+1, g+2, … mod n — which CHOPIN-without-scheduler
// cycles depend on but the goldens' three-decimal speedups do not resolve.
func TestNaiveDirectSendStagger(t *testing.T) {
	p, err := plan.DirectSend(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{1, 2, 3}, {2, 3, 0}, {3, 0, 1}, {0, 1, 2}}
	for g, row := range staggered(p) {
		var got []int
		for _, s := range row {
			if s.Sender != g {
				t.Fatalf("sender %d's row holds %+v", g, s)
			}
			got = append(got, s.Receiver)
		}
		if !reflect.DeepEqual(got, want[g]) {
			t.Errorf("sender %d issues to %v, want %v", g, got, want[g])
		}
	}
}

// TestIdealCHOPINFastest: removing link constraints can only help.
func TestIdealCHOPINFastest(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(8)
	ideal := testConfig(8)
	ideal.Link.Ideal = true
	_, real := runScheme(t, CHOPIN{}, cfg, fr)
	_, id := runScheme(t, CHOPIN{}, ideal, fr)
	if id.TotalCycles > real.TotalCycles {
		t.Errorf("IdealCHOPIN slower than CHOPIN: %d vs %d", id.TotalCycles, real.TotalCycles)
	}
}

// TestRoundRobinWorseOrEqual reproduces the Fig. 8 direction: round-robin
// draw scheduling does not beat the least-loaded scheduler.
func TestRoundRobinWorseOrEqual(t *testing.T) {
	fr := testFrame(t, "cry", 0.04)
	cfg := testConfig(8)
	_, ll := runScheme(t, CHOPIN{}, cfg, fr)
	_, rr := runScheme(t, CHOPIN{RoundRobin: true}, cfg, fr)
	if float64(rr.TotalCycles) < 0.95*float64(ll.TotalCycles) {
		t.Errorf("round-robin (%d) substantially beat least-loaded (%d)?",
			rr.TotalCycles, ll.TotalCycles)
	}
}

func TestMakeBatches(t *testing.T) {
	draws := []primitive.DrawCommand{
		{Tris: make([]primitive.Triangle, 10)},
		{Tris: make([]primitive.Triangle, 25)},
		{Tris: make([]primitive.Triangle, 5)},
	}
	bs := makeBatches(draws, 0, 3, 16)
	total := 0
	for _, b := range bs {
		if b.tris > 16 {
			t.Errorf("batch exceeds size: %d", b.tris)
		}
		sum := 0
		for _, p := range b.pieces {
			sum += p.hi - p.lo
		}
		if sum != b.tris {
			t.Errorf("batch piece sum %d != tris %d", sum, b.tris)
		}
		total += b.tris
	}
	if total != 40 {
		t.Errorf("batches cover %d triangles, want 40", total)
	}
}

func TestSplitSegments(t *testing.T) {
	mk := func(rt int) primitive.DrawCommand {
		d := primitive.DrawCommand{State: primitive.DefaultState()}
		d.State.RenderTarget = rt
		d.State.DepthBuffer = rt
		return d
	}
	draws := []primitive.DrawCommand{mk(0), mk(0), mk(1), mk(0)}
	segs := exec.SplitSegments(draws)
	if len(segs) != 3 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].End != 2 || segs[1].RT != 1 || segs[2].Start != 3 {
		t.Errorf("segments = %+v", segs)
	}
	if exec.SplitSegments(nil) != nil {
		t.Error("empty input should give nil")
	}
}

// TestSingleGPU: every scheme degenerates gracefully to one GPU.
func TestSingleGPU(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(1)
	ref := ReferenceImages(fr, cfg.Raster)[0]
	for _, s := range []Scheme{Duplication{}, GPUpd{}, CHOPIN{}} {
		sys, st := runScheme(t, s, cfg, fr)
		img := sys.AssembleImage(0)
		if !img.Equal(ref, 1e-9) {
			t.Errorf("%s on 1 GPU differs from reference in %d pixels", s.Name(), img.DiffCount(ref, 1e-9))
		}
		if st.CompositionBytes != 0 {
			t.Errorf("%s on 1 GPU moved %d composition bytes", s.Name(), st.CompositionBytes)
		}
	}
}

// TestReorderedCHOPINMatchesReference: the Section IV-A reordering
// extension must not change the rendered image.
func TestReorderedCHOPINMatchesReference(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	ref := ReferenceImages(fr, cfg.Raster)[0]
	sys, st := runScheme(t, CHOPIN{Reorder: true}, cfg, fr)
	img := sys.AssembleImage(0)
	if !img.Equal(ref, 1e-9) {
		t.Errorf("reordered CHOPIN differs in %d pixels", img.DiffCount(ref, 1e-9))
	}
	if st.Scheme != "CHOPIN_Reorder" {
		t.Errorf("scheme name = %s", st.Scheme)
	}
}

// TestSerializedTraceSimulatesIdentically: saving and re-loading a trace
// must not change a simulation's result (cycle counts and image both).
func TestSerializedTraceSimulatesIdentically(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	var buf bytes.Buffer
	if err := trace.Save(&buf, fr); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4)
	sysA, a := runScheme(t, CHOPIN{}, cfg, fr)
	sysB, b := runScheme(t, CHOPIN{}, cfg, loaded)
	if a.TotalCycles != b.TotalCycles {
		t.Errorf("cycles differ after round trip: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
	if sysA.AssembleImage(0).Checksum() != sysB.AssembleImage(0).Checksum() {
		t.Error("images differ after round trip")
	}
}

// TestSortMiddleMatchesReference: the taxonomy-completing sort-middle
// scheme renders the exact reference image.
func TestSortMiddleMatchesReference(t *testing.T) {
	fr := testFrame(t, "cod2", 0.04)
	cfg := testConfig(4)
	ref := ReferenceImages(fr, cfg.Raster)[0]
	sys, st := runScheme(t, SortMiddle{}, cfg, fr)
	img := sys.AssembleImage(0)
	if !img.Equal(ref, 1e-9) {
		t.Errorf("sort-middle differs in %d pixels", img.DiffCount(ref, 1e-9))
	}
	if st.PrimDistBytes == 0 {
		t.Error("sort-middle reported no exchange traffic")
	}
	// The exchange ships post-geometry attributes: traffic must dwarf
	// GPUpd's 4-byte-per-ID exchange on the same frame.
	_, gp := runScheme(t, GPUpd{}, cfg, fr)
	if st.PrimDistBytes < 10*gp.PrimDistBytes {
		t.Errorf("sort-middle traffic (%d B) should dwarf GPUpd's (%d B)",
			st.PrimDistBytes, gp.PrimDistBytes)
	}
}

// TestTransparentGroupPinned pins CHOPIN's accelerated transparent group:
// nfs at scale 0.1 on 8 GPUs, with the threshold scaled as chopinsim scales
// it, is the one workload in the scale range whose transparent group runs
// distributed rather than duplicated. Cycles, sync and composition traffic
// and the image checksum must hold for scheduled and naive direct send.
func TestTransparentGroupPinned(t *testing.T) {
	const scale = 0.1
	fr := testFrame(t, "nfs", scale)
	cfg := multigpu.DefaultConfig()
	cfg.GroupThreshold = trace.ScaledThreshold(cfg.GroupThreshold, scale)
	accelerated := false
	for _, st := range core.Plan(fr.Draws, cfg.GroupThreshold) {
		accelerated = accelerated || (st.Group.Transparent && !st.Duplicate)
	}
	if !accelerated {
		t.Fatal("nfs at scale 0.1 has no accelerated transparent group")
	}
	for _, tc := range []struct {
		name   string
		sched  bool
		cycles int64
	}{
		{"CHOPIN", true, 420188},
		{"CHOPIN-naive", false, 420109},
	} {
		cfg.UseCompScheduler = tc.sched
		sys, st := runScheme(t, CHOPIN{}, cfg, fr)
		if got := int64(st.TotalCycles); got != tc.cycles {
			t.Errorf("%s: %d cycles, want %d", tc.name, got, tc.cycles)
		}
		if st.SyncBytes != 10060064 || st.CompositionBytes != 9324544 {
			t.Errorf("%s: sync %d B, composition %d B; want 10060064 and 9324544",
				tc.name, st.SyncBytes, st.CompositionBytes)
		}
		if got := fmt.Sprintf("%016x", sys.AssembleImage(0).Checksum()); got != "04b99e1e83867542" {
			t.Errorf("%s: image checksum %s, want 04b99e1e83867542", tc.name, got)
		}
	}
}
