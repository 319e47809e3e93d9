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

// TestSharedSetupMatchesPerGPUSetup: broadcasting draws with BroadcastDraw,
// which sets each draw up once and shares that setup across its GPUs, must
// equal submitting the draw to each of those GPUs separately with
// gpu.SubmitDraw, which sets it up per GPU — every DrawResult, every
// completion (GPU and cycle, in firing order) and every render target, for
// every cod2 and wolf draw under each GPU's ownership mask. The larger draws
// span several setup chunks. Each draw goes to all 8 GPUs, and again to a
// subset that leaves two GPUs out, as CHOPIN's duplicate groups broadcast to
// the live GPUs only after a fail-stop.
func TestSharedSetupMatchesPerGPUSetup(t *testing.T) {
	type completion struct {
		gpu int
		at  sim.Cycle
	}
	type outcome struct {
		results []raster.DrawResult // per draw, per GPU
		dones   []completion
		sums    []uint64 // per GPU, per render target
	}
	run := func(fr *primitive.Frame, gpus []int, shared bool) outcome {
		cfg := DefaultConfig()
		sys := newSys(t, cfg, fr.Width, fr.Height)
		for g, gp := range sys.GPUs {
			if err := gp.SetOwnership(sys.Mask(g)); err != nil {
				t.Fatal(err)
			}
			gp.SetTextures(fr.Textures)
		}
		var out outcome
		out.results = make([]raster.DrawResult, len(fr.Draws)*cfg.NumGPUs)
		reqs := make([]DrawReq, len(gpus))
		rts := map[int]bool{}
		for i := range fr.Draws {
			d := &fr.Draws[i]
			rts[d.State.RenderTarget] = true
			for k, g := range gpus {
				slot := &out.results[i*cfg.NumGPUs+g]
				reqs[k] = DrawReq{GPU: g, Opts: gpu.DrawOpts{OnDone: func(res *raster.DrawResult) {
					*slot = *res
					out.dones = append(out.dones, completion{g, sys.Eng.Now()})
				}}}
			}
			if shared {
				sys.BroadcastDraw(d, fr.View, fr.Proj, reqs)
			} else {
				for _, r := range reqs {
					sys.GPUs[r.GPU].SubmitDraw(*d, fr.View, fr.Proj, r.Opts)
				}
			}
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
		for _, gpus := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 2, 3, 4, 5, 7}} {
			want := run(fr, gpus, false)
			frags := 0
			for k := range want.results {
				frags += want.results[k].FragsGenerated
			}
			if frags == 0 || len(want.dones) != len(fr.Draws)*len(gpus) {
				t.Fatalf("%s gpus=%v: %d fragments over %d completions; the replay rendered nothing",
					bench, gpus, frags, len(want.dones))
			}
			got := run(fr, gpus, true)
			for k := range want.results {
				if got.results[k] != want.results[k] {
					t.Fatalf("%s gpus=%v: draw %d gpu %d result %+v, per-GPU setup gives %+v",
						bench, gpus, k/8, k%8, got.results[k], want.results[k])
				}
			}
			if !reflect.DeepEqual(got.dones, want.dones) {
				t.Fatalf("%s gpus=%v: completions differ from per-GPU setup", bench, gpus)
			}
			if !reflect.DeepEqual(got.sums, want.sums) {
				t.Fatalf("%s gpus=%v: target checksums %x, per-GPU setup gives %x", bench, gpus, got.sums, want.sums)
			}
		}
	}
}
