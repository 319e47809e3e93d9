package multigpu

import (
	"reflect"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/gpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/trace"
	"chopin/internal/vecmath"
)

// newSys builds a system, failing the test on config errors.
func newSys(t *testing.T, cfg Config, w, h int) *System {
	t.Helper()
	sys, err := New(cfg, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumGPUs != 8 {
		t.Errorf("NumGPUs = %d", cfg.NumGPUs)
	}
	if cfg.GroupThreshold != 4096 {
		t.Errorf("GroupThreshold = %d", cfg.GroupThreshold)
	}
	if cfg.Link.BytesPerCycle != 64 || cfg.Link.LatencyCycles != 200 {
		t.Errorf("link = %+v", cfg.Link)
	}
	if !cfg.UseCompScheduler || cfg.SchedulerQuantum != 1 {
		t.Errorf("scheduler config = %+v", cfg)
	}
}

func TestNewSystemLayout(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 1280, 1024)
	if len(sys.GPUs) != 8 {
		t.Fatalf("GPUs = %d", len(sys.GPUs))
	}
	if sys.Width() != 1280 || sys.Height() != 1024 {
		t.Errorf("dims = %dx%d", sys.Width(), sys.Height())
	}
	if sys.TileCount() != 320 {
		t.Errorf("tiles = %d", sys.TileCount())
	}
}

func TestMasksPartitionScreen(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	owned := make([]int, sys.TileCount())
	for g := 0; g < 8; g++ {
		mask := sys.Mask(g)
		if len(mask) != sys.TileCount() {
			t.Fatalf("mask length = %d", len(mask))
		}
		for tl, own := range mask {
			if own {
				owned[tl]++
				if sys.Owner(tl) != g {
					t.Fatalf("tile %d in mask of %d but owned by %d", tl, g, sys.Owner(tl))
				}
			}
		}
	}
	for tl, c := range owned {
		if c != 1 {
			t.Fatalf("tile %d covered %d times", tl, c)
		}
	}
}

func TestOwnedDirtyTiles(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	g := sys.GPUs[0]
	fb := g.Target(0)
	fb.ClearDirty()
	fb.MarkDirty(8)  // owned by GPU 0 (8 % 8)
	fb.MarkDirty(9)  // owned by GPU 1
	fb.MarkDirty(16) // owned by GPU 0
	tiles := sys.OwnedDirtyTiles(g, 0, 0)
	if len(tiles) != 2 || tiles[0] != 8 || tiles[1] != 16 {
		t.Errorf("tiles = %v", tiles)
	}
	tiles = sys.OwnedDirtyTiles(g, 0, 1)
	if len(tiles) != 1 || tiles[0] != 9 {
		t.Errorf("tiles = %v", tiles)
	}
}

func TestPixelCount(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	// Tile 0 is full 64x64; the bottom-right tile is 64x(480-7*64)=64x32.
	if got := sys.PixelCount([]int{0}); got != 64*64 {
		t.Errorf("PixelCount(0) = %d", got)
	}
	last := sys.TileCount() - 1
	if got := sys.PixelCount([]int{0, last}); got != 64*64+64*32 {
		t.Errorf("PixelCount(0,last) = %d", got)
	}
	if got := sys.PixelCount(nil); got != 0 {
		t.Errorf("PixelCount(nil) = %d", got)
	}
}

func TestAssembleImagePicksOwners(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 256, 128) // 4x2 tiles, owners 0..7
	red := colorspace.Opaque(1, 0, 0)
	// Each GPU paints a pixel in a tile it owns and one it does not.
	for g, gp := range sys.GPUs {
		fb := gp.Target(0)
		x0, y0, _, _ := fb.TileRect(g)
		fb.Set(x0, y0, red) // owned tile g
		other := (g + 1) % 8
		x1, y1, _, _ := fb.TileRect(other)
		fb.Set(x1, y1, colorspace.Opaque(0, 1, 0)) // not owned
	}
	img := sys.AssembleImage(0)
	for tl := 0; tl < sys.TileCount(); tl++ {
		x, y, _, _ := img.TileRect(tl)
		if img.At(x, y) != red {
			t.Errorf("tile %d corner = %+v, want owner's red", tl, img.At(x, y))
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumGPUs = 0
	if _, err := New(cfg, 64, 64); err == nil {
		t.Error("expected error for zero GPUs")
	}
	if _, err := New(DefaultConfig(), 0, 64); err == nil {
		t.Error("expected error for zero width")
	}
}

// TestSubmitDrawsEquivalence: a SubmitDraws batch with EngineWorkers > 1
// must be byte-identical to the sequential SubmitDraw loop — same
// framebuffers, same completion cycles — and the worker count must
// not leak into the architectural fingerprint.
func TestSubmitDrawsEquivalence(t *testing.T) {
	const w, h = 128, 128
	draw := func(id int, z, x0, y0, x1, y1 float64) primitive.DrawCommand {
		c := colorspace.Opaque(float64(id%3)/2, 1, 0.5)
		v := func(x, y float64) primitive.Vertex {
			return primitive.Vertex{Position: vecmath.Vec3{X: x, Y: y, Z: -z}, Color: c}
		}
		return primitive.DrawCommand{
			ID: id,
			Tris: []primitive.Triangle{
				{V: [3]primitive.Vertex{v(x0, y0), v(x1, y0), v(x1, y1)}},
				{V: [3]primitive.Vertex{v(x0, y0), v(x1, y1), v(x0, y1)}},
			},
			Model: vecmath.Identity(),
			State: primitive.DefaultState(),
		}
	}
	view := vecmath.Identity()
	proj := vecmath.Orthographic(0, w, h, 0, 1, 10)

	run := func(workers int) ([]uint64, []sim.Cycle, string) {
		cfg := DefaultConfig()
		cfg.NumGPUs = 4
		cfg.EngineWorkers = workers
		sys := newSys(t, cfg, w, h)
		var dones []sim.Cycle
		for i := 0; i < 6; i++ {
			reqs := make([]DrawReq, cfg.NumGPUs)
			for g := 0; g < cfg.NumGPUs; g++ {
				reqs[g] = DrawReq{GPU: g, Draw: draw(i, float64(1+i%4), float64(8*i), float64(4*i), float64(40+8*i), float64(60+4*i)),
					Opts: gpu.DrawOpts{OnDone: func(*raster.DrawResult) { dones = append(dones, sys.Eng.Now()) }}}
			}
			sys.SubmitDraws(view, proj, reqs)
		}
		sys.Eng.Run()
		sums := make([]uint64, cfg.NumGPUs)
		for g := range sys.GPUs {
			sums[g] = sys.GPUs[g].Target(0).Checksum()
		}
		return sums, dones, cfg.Fingerprint()
	}

	seqSums, seqDones, seqFP := run(0)
	parSums, parDones, parFP := run(4)
	if seqFP != parFP {
		t.Errorf("EngineWorkers leaked into Fingerprint: %s vs %s", seqFP, parFP)
	}
	if len(seqDones) != len(parDones) {
		t.Fatalf("completions: %d sequential vs %d parallel", len(seqDones), len(parDones))
	}
	for i := range seqDones {
		if seqDones[i] != parDones[i] {
			t.Fatalf("completion %d at cycle %d sequential vs %d parallel", i, seqDones[i], parDones[i])
		}
	}
	for g := range seqSums {
		if seqSums[g] != parSums[g] {
			t.Fatalf("gpu %d framebuffer checksum %x sequential vs %x parallel", g, seqSums[g], parSums[g])
		}
	}
}

// TestEngineWorkersWiring pins that New sizes the engine's worker pool from
// EngineWorkers, with real and with ideal links.
func TestEngineWorkersWiring(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumGPUs = 4
	cfg.EngineWorkers = 3
	for _, ideal := range []bool{false, true} {
		cfg.Link.Ideal = ideal
		if got := newSys(t, cfg, 64, 64).Eng.Workers(); got != 3 {
			t.Errorf("ideal=%v: workers = %d, want 3", ideal, got)
		}
	}
}

// TestSharedSetupMatchesPerGPUSetup: broadcasting draws with SubmitDraws,
// which sets each draw up once and shares that setup across all GPUs, must
// equal submitting each draw to each GPU separately with gpu.SubmitDraw,
// which sets it up per GPU — every DrawResult counter and per-tile fragment
// count, every completion cycle and every render target, for every cod2 and
// wolf draw under each GPU's ownership mask, inline and on the draw worker
// pool. Each SubmitDraws batch carries two consecutive draws to all 8 GPUs,
// so it runs in two rounds, and the larger draws span several setup chunks.
func TestSharedSetupMatchesPerGPUSetup(t *testing.T) {
	type outcome struct {
		results []raster.DrawResult // per draw, per GPU
		dones   []sim.Cycle
		sums    []uint64 // per GPU, per render target
	}
	run := func(fr *primitive.Frame, workers int, shared bool) outcome {
		cfg := DefaultConfig()
		cfg.EngineWorkers = workers
		sys := newSys(t, cfg, fr.Width, fr.Height)
		for g, gp := range sys.GPUs {
			if err := gp.SetOwnership(sys.Mask(g)); err != nil {
				t.Fatal(err)
			}
			gp.SetTextures(fr.Textures)
		}
		var out outcome
		out.results = make([]raster.DrawResult, len(fr.Draws)*cfg.NumGPUs)
		var reqs []DrawReq
		rts := map[int]bool{}
		for i, d := range fr.Draws {
			rts[d.State.RenderTarget] = true
			for g := 0; g < cfg.NumGPUs; g++ {
				slot := &out.results[i*cfg.NumGPUs+g]
				reqs = append(reqs, DrawReq{GPU: g, Draw: d, Opts: gpu.DrawOpts{OnDone: func(res *raster.DrawResult) {
					*slot = *res
					out.dones = append(out.dones, sys.Eng.Now())
				}}})
			}
			if i%2 == 0 && i+1 < len(fr.Draws) {
				continue // batch this draw with the next one
			}
			if shared {
				sys.SubmitDraws(fr.View, fr.Proj, reqs)
			} else {
				for _, r := range reqs {
					sys.GPUs[r.GPU].SubmitDraw(r.Draw, fr.View, fr.Proj, r.Opts)
				}
			}
			reqs = reqs[:0]
		}
		sys.Eng.Run()
		for _, gp := range sys.GPUs {
			for rt := 0; rt <= len(fr.Draws); rt++ {
				if rts[rt] {
					out.sums = append(out.sums, gp.Target(rt).Checksum())
				}
			}
		}
		return out
	}
	for _, bench := range []string{"cod2", "wolf"} {
		b, err := trace.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		fr := trace.Generate(b, 0.05)
		want := run(fr, 1, false)
		frags := 0
		for k := range want.results {
			frags += want.results[k].FragsGenerated
		}
		if frags == 0 || len(want.dones) != len(want.results) {
			t.Fatalf("%s: %d fragments over %d completions; the replay rendered nothing", bench, frags, len(want.dones))
		}
		for _, workers := range []int{1, 4} {
			got := run(fr, workers, true)
			for k := range want.results {
				if !reflect.DeepEqual(got.results[k], want.results[k]) {
					t.Fatalf("%s workers=%d: draw %d gpu %d result %+v, per-GPU setup gives %+v",
						bench, workers, k/8, k%8, got.results[k], want.results[k])
				}
			}
			if len(got.dones) != len(want.dones) {
				t.Fatalf("%s workers=%d: %d completions, per-GPU setup gives %d", bench, workers, len(got.dones), len(want.dones))
			}
			for i := range want.dones {
				if got.dones[i] != want.dones[i] {
					t.Fatalf("%s workers=%d: completion %d at cycle %d, per-GPU setup gives %d",
						bench, workers, i, got.dones[i], want.dones[i])
				}
			}
			for i := range want.sums {
				if got.sums[i] != want.sums[i] {
					t.Fatalf("%s workers=%d: target checksum %d is %x, per-GPU setup gives %x",
						bench, workers, i, got.sums[i], want.sums[i])
				}
			}
		}
	}
}
