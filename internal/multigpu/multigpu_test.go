package multigpu

import (
	"reflect"
	"slices"
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
	// 640x480 is 10x8 tiles; the bottom tile row spans rows 448-479 only.
	sys := newSys(t, DefaultConfig(), 640, 480)
	fb := sys.GPUs[0].Target(0)
	fb.ClearDirty()
	last := sys.TileCount() - 1 // owned by GPU 7 (79 % 8)
	for _, tl := range []int{8, 9, 16, last} {
		// Tiles 8 (rows 0-63) and 16 (rows 64-127) are owned by GPU 0,
		// tile 9 by GPU 1.
		fb.MarkDirty(tl)
	}
	h := sys.Height()
	for _, c := range []struct {
		owner, lo, hi int
		tiles         []int
		px            int
	}{
		{0, 0, h, []int{8, 16}, 2 * 64 * 64},
		{1, 0, h, []int{9}, 64 * 64},
		{7, 0, h, []int{last}, 64 * 32},
		{2, 0, h, nil, 0},
		// Both tiles straddle a bound: only their rows inside count.
		{0, 32, 96, []int{8, 16}, 2 * 32 * 64},
		// Tile 8 ends where the range starts and is excluded.
		{0, 64, 100, []int{16}, 36 * 64},
		{7, 0, 448, nil, 0},
		{7, 460, 470, []int{last}, 10 * 64},
	} {
		tiles, px := sys.OwnedDirtyTiles(fb, c.owner, c.lo, c.hi)
		if !slices.Equal(tiles, c.tiles) || px != c.px {
			t.Errorf("OwnedDirtyTiles(owner %d, rows [%d,%d)) = %v, %d px; want %v, %d px",
				c.owner, c.lo, c.hi, tiles, px, c.tiles, c.px)
		}
		if c.lo == 0 && c.hi == h {
			sum := 0
			for _, tl := range tiles {
				sum += fb.TilePixelCount(tl)
			}
			if px != sum {
				t.Errorf("owner %d: full-range px %d != tile pixel sum %d", c.owner, px, sum)
			}
		}
	}
}

func TestPixelCount(t *testing.T) {
	sys := newSys(t, DefaultConfig(), 640, 480)
	fb := sys.GPUs[0].Target(0)
	fb.ClearSynced()
	// Tile 0 is full 64x64; the bottom-right tile is 64x(480-7*64)=64x32.
	last := sys.TileCount() - 1
	if got := fb.TilePixelCount(0); got != 64*64 {
		t.Errorf("TilePixelCount(0) = %d", got)
	}
	if got := fb.TilePixelCount(last); got != 64*32 {
		t.Errorf("TilePixelCount(last) = %d", got)
	}
	// OwnedDirtyTiles counts the same pixels over the full row range:
	// nothing while no tile is dirty, then each owner's edge-aware total.
	h := sys.Height()
	if _, px := sys.OwnedDirtyTiles(fb, 0, 0, h); px != 0 {
		t.Errorf("clean owner 0: %d px", px)
	}
	fb.MarkDirty(0)
	fb.MarkDirty(last)
	if _, px := sys.OwnedDirtyTiles(fb, sys.Owner(0), 0, h); px != 64*64 {
		t.Errorf("owner of tile 0: %d px", px)
	}
	if _, px := sys.OwnedDirtyTiles(fb, sys.Owner(last), 0, h); px != 64*32 {
		t.Errorf("owner of last tile: %d px", px)
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

// destMasks returns, for every triangle of d, the bitmask of the GPUs owning
// a tile its projected bounding box overlaps: the destinations sort-first
// rendering sends it to.
func destMasks(sys *System, fr *primitive.Frame, d *primitive.DrawCommand) []uint64 {
	mvp := fr.Proj.Mul(fr.View).Mul(d.Model)
	masks := make([]uint64, len(d.Tris))
	for i := range d.Tris {
		rect, ok := raster.CoveredTiles(&d.Tris[i], &mvp, fr.Width, fr.Height)
		if !ok {
			continue
		}
		for ty := rect.Y0; ty <= rect.Y1; ty++ {
			for tx := rect.X0; tx <= rect.X1; tx++ {
				masks[i] |= 1 << uint(sys.Owner(rect.Tile(tx, ty)))
			}
		}
	}
	return masks
}

// TestSharedSetupMatchesPerGPUSetup: broadcasting draws with BroadcastDraw,
// which sets each draw up once and shares that setup across its GPUs, must
// equal submitting the draw to each of those GPUs separately with
// gpu.SubmitDraw, which sets it up per GPU — every DrawResult, every
// completion (GPU and cycle, in firing order) and every render target, for
// every cod2 and wolf draw under each GPU's ownership mask. The larger draws
// span several setup chunks. Each draw goes to all 8 GPUs, and again to a
// subset that leaves out two GPUs, which fail-stop before the first draw and
// whose tiles the survivors adopt: CHOPIN's duplicate groups broadcast to the
// live GPUs only after a fail-stop. With selections, each GPU's request
// selects the triangles whose covered tiles it owned before the fail-stop,
// as sort-first and sort-middle rendering do, and must equal submitting to
// each GPU a copied draw of just those triangles; a GPU with none gets no
// request. An adopted tile then lies under triangles a survivor was not
// sent, so only the selection, not the ownership mask, keeps it from
// rendering them.
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
	run := func(fr *primitive.Frame, gpus []int, selected, shared bool) outcome {
		cfg := DefaultConfig()
		sys := newSys(t, cfg, fr.Width, fr.Height)
		for g, gp := range sys.GPUs {
			if err := gp.SetOwnership(sys.Mask(g)); err != nil {
				t.Fatal(err)
			}
			gp.SetTextures(fr.Textures)
		}
		masks := make([][]uint64, len(fr.Draws))
		if selected {
			for i := range fr.Draws {
				masks[i] = destMasks(sys, fr, &fr.Draws[i])
			}
		}
		var failed []int
		for g := range sys.GPUs {
			if !slices.Contains(gpus, g) {
				sys.markFailed(g)
				failed = append(failed, g)
			}
		}
		sys.ReassignTiles(failed)
		var out outcome
		out.results = make([]raster.DrawResult, len(fr.Draws)*cfg.NumGPUs)
		var reqs []DrawReq
		rts := map[int]bool{}
		for i := range fr.Draws {
			d := &fr.Draws[i]
			rts[d.State.RenderTarget] = true
			masks := masks[i]
			reqs = reqs[:0]
			for _, g := range gpus {
				sel := raster.Selection{}
				if selected {
					sel = raster.Selection{Masks: masks, Bit: 1 << uint(g)}
					if !slices.ContainsFunc(masks, func(m uint64) bool { return m&sel.Bit != 0 }) {
						continue
					}
				}
				slot := &out.results[i*cfg.NumGPUs+g]
				reqs = append(reqs, DrawReq{GPU: g, Sel: sel, Opts: gpu.DrawOpts{OnDone: func(res *raster.DrawResult) {
					*slot = *res
					out.dones = append(out.dones, completion{g, sys.Eng.Now()})
				}}})
			}
			if shared {
				sys.BroadcastDraw(d, fr.View, fr.Proj, reqs)
				continue
			}
			for _, r := range reqs {
				sub := *d
				if selected {
					sub.Tris = nil
					for ti := range d.Tris {
						if masks[ti]&r.Sel.Bit != 0 {
							sub.Tris = append(sub.Tris, d.Tris[ti])
						}
					}
				}
				sys.GPUs[r.GPU].SubmitDraw(sub, fr.View, fr.Proj, r.Opts)
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
		for _, selected := range []bool{false, true} {
			for _, gpus := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 2, 3, 4, 5, 7}} {
				want := run(fr, gpus, selected, false)
				frags := 0
				for k := range want.results {
					frags += want.results[k].FragsGenerated
				}
				if frags == 0 || len(want.dones) < len(fr.Draws) ||
					!selected && len(want.dones) != len(fr.Draws)*len(gpus) {
					t.Fatalf("%s gpus=%v selected=%v: %d fragments over %d completions; the replay rendered nothing",
						bench, gpus, selected, frags, len(want.dones))
				}
				got := run(fr, gpus, selected, true)
				for k := range want.results {
					if got.results[k] != want.results[k] {
						t.Fatalf("%s gpus=%v selected=%v: draw %d gpu %d result %+v, per-GPU setup gives %+v",
							bench, gpus, selected, k/8, k%8, got.results[k], want.results[k])
					}
				}
				if !reflect.DeepEqual(got.dones, want.dones) {
					t.Fatalf("%s gpus=%v selected=%v: completions differ from per-GPU setup", bench, gpus, selected)
				}
				if !reflect.DeepEqual(got.sums, want.sums) {
					t.Fatalf("%s gpus=%v selected=%v: target checksums %x, per-GPU setup gives %x",
						bench, gpus, selected, got.sums, want.sums)
				}
			}
		}
	}
}
