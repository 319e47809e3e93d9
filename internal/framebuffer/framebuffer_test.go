package framebuffer

import (
	"hash/fnv"
	"image/color"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"chopin/internal/colorspace"
)

func TestNewDimensions(t *testing.T) {
	b := MustNew(1280, 1024)
	if b.Width() != 1280 || b.Height() != 1024 {
		t.Fatalf("dims = %d×%d", b.Width(), b.Height())
	}
	if b.TilesX() != 20 || b.TilesY() != 16 || b.TileCount() != 320 {
		t.Fatalf("tiles = %d×%d (%d)", b.TilesX(), b.TilesY(), b.TileCount())
	}
}

func TestNewPartialTiles(t *testing.T) {
	// 640×480: 480 is not a multiple of 64 → 10×8 grid with short last row.
	b := MustNew(640, 480)
	if b.TilesX() != 10 || b.TilesY() != 8 {
		t.Fatalf("tiles = %d×%d", b.TilesX(), b.TilesY())
	}
	last := b.TileCount() - 1
	if got := b.TilePixelCount(last); got != 64*(480-7*64) {
		t.Errorf("edge tile pixels = %d", got)
	}
	// All tile pixel counts sum to the full screen.
	sum := 0
	for i := 0; i < b.TileCount(); i++ {
		sum += b.TilePixelCount(i)
	}
	if sum != 640*480 {
		t.Errorf("tile pixel sum = %d, want %d", sum, 640*480)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero width")
		}
	}()
	MustNew(0, 100)
}

func TestClearAndPixelAccess(t *testing.T) {
	b := MustNew(128, 128)
	red := colorspace.Opaque(1, 0, 0)
	b.Clear(red, 0.5)
	if got := b.At(64, 64); got != red {
		t.Errorf("At after clear = %+v", got)
	}
	if got := b.DepthAt(0, 0); got != 0.5 {
		t.Errorf("DepthAt after clear = %v", got)
	}
	blue := colorspace.Opaque(0, 0, 1)
	b.Set(10, 20, blue)
	b.SetDepth(10, 20, 0.25)
	if b.At(10, 20) != blue || b.DepthAt(10, 20) != 0.25 {
		t.Error("pixel write/read mismatch")
	}
}

func TestDirtyTracking(t *testing.T) {
	b := MustNew(256, 256) // 4×4 tiles
	b.ClearDirty()
	if len(b.DirtyTiles()) != 0 {
		t.Fatal("fresh buffer should have no dirty tiles after ClearDirty")
	}
	b.Set(0, 0, colorspace.Opaque(1, 1, 1))     // tile 0
	b.Set(100, 100, colorspace.Opaque(1, 1, 1)) // tile (1,1) = 5
	if got := b.DirtyTiles(); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Errorf("DirtyTiles = %v", got)
	}
	// SetDepth alone does not dirty a tile: composition transfers are driven
	// by colour writes, and the rasterizer always writes colour when it
	// writes depth.
	b.ClearDirty()
	b.SetDepth(200, 200, 0.1)
	if len(b.DirtyTiles()) != 0 {
		t.Error("SetDepth should not mark dirty")
	}
	b.MarkDirty(3)
	if !b.Dirty(3) {
		t.Error("MarkDirty(3) not visible")
	}
}

// TestUnsyncedTracking covers the two per-tile flags: ClearDirty starts a
// new dirty set but keeps the tiles unsynced; ClearSynced, Reset and
// ClearTile clear both flags; Clone copies both; CopyTileFrom carries only
// dirty.
func TestUnsyncedTracking(t *testing.T) {
	b := MustNew(256, 256) // 4×4 tiles
	white := colorspace.Opaque(1, 1, 1)
	b.Set(0, 0, white)     // tile 0
	b.Set(100, 100, white) // tile 5
	b.ClearDirty()
	b.Set(200, 0, white) // tile 3
	if got := b.DirtyTiles(); len(got) != 1 || got[0] != 3 {
		t.Errorf("DirtyTiles after ClearDirty and one write = %v, want [3]", got)
	}
	for tl := range b.TileCount() {
		want := tl == 0 || tl == 3 || tl == 5
		if b.Unsynced(tl) != want {
			t.Errorf("Unsynced(%d) = %v, want %v", tl, b.Unsynced(tl), want)
		}
	}

	clone := b.Clone()
	for tl := range b.TileCount() {
		if clone.Dirty(tl) != b.Dirty(tl) || clone.Unsynced(tl) != b.Unsynced(tl) {
			t.Errorf("Clone tile %d: dirty %v unsynced %v, want %v %v",
				tl, clone.Dirty(tl), clone.Unsynced(tl), b.Dirty(tl), b.Unsynced(tl))
		}
	}

	// Tile 0 is unsynced but not dirty in b, so the copy leaves dst's tile 0
	// clean; tile 3 is dirty in b and arrives dirty.
	dst := MustNew(256, 256)
	dst.CopyTileFrom(b, 0)
	dst.CopyTileFrom(b, 3)
	if dst.Dirty(0) || dst.Unsynced(0) || !dst.Dirty(3) {
		t.Errorf("CopyTileFrom flags: tile 0 dirty %v unsynced %v, tile 3 dirty %v; want false false true",
			dst.Dirty(0), dst.Unsynced(0), dst.Dirty(3))
	}

	b.ClearTile(0)
	b.ClearTile(3)
	if b.Dirty(3) || b.Unsynced(0) || b.Unsynced(3) || !b.Unsynced(5) {
		t.Error("ClearTile must clear only its own tile's dirty and unsynced flags")
	}

	clone.ClearSynced()
	b.Reset()
	for tl := range b.TileCount() {
		if clone.Dirty(tl) || clone.Unsynced(tl) {
			t.Errorf("ClearSynced left tile %d dirty or unsynced", tl)
		}
		if b.Dirty(tl) || b.Unsynced(tl) {
			t.Errorf("Reset left tile %d dirty or unsynced", tl)
		}
	}
}

func TestTileOfAndRectRoundTrip(t *testing.T) {
	b := MustNew(300, 200)
	f := func(px, py uint16) bool {
		x := int(px) % b.Width()
		y := int(py) % b.Height()
		tile, _ := b.locate(x, y)
		x0, y0, x1, y1 := b.TileRect(tile)
		return x >= x0 && x < x1 && y >= y0 && y < y1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyTileFrom(t *testing.T) {
	src := MustNew(128, 128)
	dst := MustNew(128, 128)
	green := colorspace.Opaque(0, 1, 0)
	src.Set(70, 70, green) // tile (1,1) = 3 in a 2×2 grid
	src.SetDepth(70, 70, 0.3)
	tile, _ := src.locate(70, 70)
	dst.ClearDirty()
	dst.CopyTileFrom(src, tile)
	if dst.At(70, 70) != green || dst.DepthAt(70, 70) != 0.3 {
		t.Error("tile copy did not transfer pixel planes")
	}
	if !dst.Dirty(tile) {
		t.Error("tile copy should propagate dirty flag")
	}
	// Pixels outside the tile are untouched.
	if dst.At(0, 0) != (colorspace.RGBA{}) {
		t.Error("copy leaked outside tile")
	}
}

func TestCopyTileFromMismatchErrors(t *testing.T) {
	if err := MustNew(64, 64).CopyTileFrom(MustNew(128, 128), 0); err == nil {
		t.Error("expected error on dimension mismatch")
	}
}

func TestCloneIndependent(t *testing.T) {
	b := MustNew(64, 64)
	b.Set(1, 1, colorspace.Opaque(1, 0, 0))
	c := b.Clone()
	if !c.Equal(b, 0) {
		t.Fatal("clone differs from original")
	}
	c.Set(2, 2, colorspace.Opaque(0, 1, 0))
	if b.At(2, 2) == c.At(2, 2) {
		t.Error("clone shares storage with original")
	}
}

func TestEqualAndDiffCount(t *testing.T) {
	a := MustNew(32, 32)
	b := MustNew(32, 32)
	if !a.Equal(b, 0) {
		t.Fatal("fresh buffers should be equal")
	}
	b.Set(5, 5, colorspace.Opaque(1, 1, 1))
	if a.Equal(b, 0) {
		t.Error("buffers should differ")
	}
	if got := a.DiffCount(b, 1e-9); got != 1 {
		t.Errorf("DiffCount = %d, want 1", got)
	}
	if a.Equal(MustNew(64, 64), 0) {
		t.Error("different dimensions should not be equal")
	}
}

func TestChecksumStable(t *testing.T) {
	a := MustNew(32, 32)
	b := MustNew(32, 32)
	if a.Checksum() != b.Checksum() {
		t.Error("identical buffers should checksum equal")
	}
	b.Set(0, 0, colorspace.Opaque(1, 0, 0))
	if a.Checksum() == b.Checksum() {
		t.Error("differing buffers should checksum differently")
	}
}

func TestOwnerInterleaving(t *testing.T) {
	// Tiles 0..7 with 4 GPUs: owners cycle 0,1,2,3,0,1,2,3.
	for tile := 0; tile < 8; tile++ {
		if got := OwnerOf(tile, 4); got != tile%4 {
			t.Errorf("OwnerOf(%d, 4) = %d", tile, got)
		}
	}
}

func TestOwnedTilesPartition(t *testing.T) {
	const tilesX, tilesY, n = 20, 16, 8
	seen := make([]int, tilesX*tilesY)
	total := 0
	for gpu := 0; gpu < n; gpu++ {
		tiles := OwnedTiles(tilesX, tilesY, n, gpu)
		for _, tl := range tiles {
			if OwnerOf(tl, n) != gpu {
				t.Fatalf("tile %d listed for gpu %d but owned by %d", tl, gpu, OwnerOf(tl, n))
			}
			seen[tl]++
		}
		total += len(tiles)
	}
	if total != tilesX*tilesY {
		t.Fatalf("partition covers %d tiles, want %d", total, tilesX*tilesY)
	}
	for tl, c := range seen {
		if c != 1 {
			t.Fatalf("tile %d covered %d times", tl, c)
		}
	}
}

func TestOwnerOfZeroGPUs(t *testing.T) {
	if got := OwnerOf(0, 0); got != -1 {
		t.Errorf("OwnerOf(0, 0) = %d, want -1", got)
	}
}

func TestUntouchedTileReadsClearValue(t *testing.T) {
	b := MustNew(200, 130) // 4×3 tiles, partial edge tiles
	if b.At(199, 129) != colorspace.Transparent || b.DepthAt(199, 129) != ClearDepth {
		t.Fatal("fresh buffer does not read as transparent, far depth")
	}
	red := colorspace.Opaque(1, 0, 0)
	b.Clear(red, 0.5)
	b.Set(10, 10, colorspace.Opaque(0, 1, 0))
	// The written tile's other pixels and every untouched tile read the
	// clear value.
	for _, p := range [][2]int{{11, 10}, {63, 63}, {64, 0}, {199, 129}} {
		if b.At(p[0], p[1]) != red || b.DepthAt(p[0], p[1]) != 0.5 {
			t.Errorf("pixel %v does not read the clear value", p)
		}
	}
}

func TestPixelOrderIsRowMajor(t *testing.T) {
	const w, h = 150, 70 // edge tiles on both axes
	b := MustNew(w, h)
	want := make([]colorspace.RGBA, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := colorspace.Opaque(float64(x)/w, float64(y)/h, float64((x*7+y*3)%11)/11)
			b.Set(x, y, c)
			b.SetDepth(x, y, float64(x+y*w)/(w*h))
			want = append(want, c)
		}
	}
	hsh := fnv.New64a()
	for _, c := range want {
		r, g, bl, a := c.RGBA8()
		hsh.Write([]byte{r, g, bl, a})
	}
	if got := b.Checksum(); got != hsh.Sum64() {
		t.Errorf("Checksum = %x, want row-major %x", got, hsh.Sum64())
	}
	img := b.ToImage()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := want[y*w+x]
			r, g, bl, a := c.RGBA8()
			if img.RGBAAt(x, y) != (color.RGBA{R: r, G: g, B: bl, A: a}) {
				t.Fatalf("ToImage(%d, %d) differs", x, y)
			}
			if b.At(x, y) != c || b.DepthAt(x, y) != float64(x+y*w)/(w*h) {
				t.Fatalf("pixel (%d, %d) did not round-trip", x, y)
			}
		}
	}
}

func TestCopyTileFromWritesStayPrivate(t *testing.T) {
	src := MustNew(128, 128)
	src.Set(70, 70, colorspace.Opaque(1, 0, 0))
	src.SetDepth(70, 70, 0.3)
	tile, _ := src.locate(70, 70)
	dst := MustNew(128, 128)
	if err := dst.CopyTileFrom(src, tile); err != nil {
		t.Fatal(err)
	}

	// A write through the copy does not show in the source.
	dst.Set(70, 70, colorspace.Opaque(0, 1, 0))
	dst.SetDepth(70, 70, 0.7)
	if src.At(70, 70) != colorspace.Opaque(1, 0, 0) || src.DepthAt(70, 70) != 0.3 {
		t.Error("write to the copy changed the source")
	}
	// A write through the source does not show in a second copy.
	dst2 := MustNew(128, 128)
	if err := dst2.CopyTileFrom(src, tile); err != nil {
		t.Fatal(err)
	}
	src.Set(71, 71, colorspace.Opaque(0, 0, 1))
	src.SetDepth(71, 71, 0.2)
	if dst2.At(71, 71) != colorspace.Transparent || dst2.DepthAt(71, 71) != ClearDepth {
		t.Error("write to the source changed the copy")
	}
	if dst2.At(70, 70) != colorspace.Opaque(1, 0, 0) {
		t.Error("copy lost the source's pixels")
	}
	if dst.At(70, 70) != colorspace.Opaque(0, 1, 0) || dst.DepthAt(70, 70) != 0.7 {
		t.Error("copy lost its own write")
	}
}

func TestCloneFillColorLeavesOriginal(t *testing.T) {
	b := MustNew(128, 128)
	red := colorspace.Opaque(1, 0, 0)
	b.Set(5, 5, red)
	b.SetDepth(5, 5, 0.25)
	c := b.Clone()
	c.FillColor(colorspace.Transparent)
	c.Set(6, 6, colorspace.Opaque(0, 1, 0))
	if b.At(5, 5) != red || b.At(6, 6) != colorspace.Transparent {
		t.Error("FillColor or a write on the clone changed the original's colour")
	}
	if c.At(5, 5) != colorspace.Transparent || c.DepthAt(5, 5) != 0.25 {
		t.Error("clone did not keep depth under a transparent fill")
	}
	// A depth write on the original after the clone stays private.
	b.SetDepth(5, 5, 0.5)
	if c.DepthAt(5, 5) != 0.25 {
		t.Error("write to the original changed the clone's depth")
	}
}

func TestClearTileAndResetOnSharedBlock(t *testing.T) {
	src := MustNew(128, 128)
	green := colorspace.Opaque(0, 1, 0)
	src.Set(1, 1, green)
	src.SetDepth(1, 1, 0.4)

	dst := MustNew(128, 128)
	if err := dst.CopyTileFrom(src, 0); err != nil {
		t.Fatal(err)
	}
	dst.ClearTile(0)
	if dst.At(1, 1) != colorspace.Transparent || dst.DepthAt(1, 1) != ClearDepth || dst.Dirty(0) {
		t.Error("ClearTile did not reset the shared tile")
	}
	clone := src.Clone()
	clone.Reset()
	if clone.At(1, 1) != colorspace.Transparent || clone.DepthAt(1, 1) != ClearDepth || len(clone.DirtyTiles()) != 0 {
		t.Error("Reset did not reset the clone")
	}
	src.ClearTile(0)
	if src.At(1, 1) != colorspace.Transparent {
		t.Error("ClearTile on the source did not reset it")
	}
	// Neither side's reset reaches a buffer still holding the block.
	keep := MustNew(128, 128)
	src.Set(1, 1, green)
	if err := keep.CopyTileFrom(src, 0); err != nil {
		t.Fatal(err)
	}
	src.Reset()
	if keep.At(1, 1) != green {
		t.Error("Reset of the source changed a copy")
	}

	// ClearTile resets to transparent and far depth even when the buffer's
	// clear value differs.
	red := colorspace.Opaque(1, 0, 0)
	b := MustNew(128, 128)
	b.Clear(red, 0.5)
	b.ClearTile(3)
	if b.At(127, 127) != colorspace.Transparent || b.DepthAt(127, 127) != ClearDepth || b.At(0, 0) != red {
		t.Error("ClearTile on a non-default clear value")
	}
}

func TestCopyTileFromDifferentClearColour(t *testing.T) {
	red := colorspace.Opaque(1, 0, 0)
	layer := MustNew(128, 128)
	layer.FillColor(red)
	layer.MarkDirty(1)

	// An untouched tile of the layer reads red, and so must its copy.
	dst := MustNew(128, 128)
	if err := dst.CopyTileFrom(layer, 1); err != nil {
		t.Fatal(err)
	}
	if dst.At(100, 10) != red || dst.DepthAt(100, 10) != ClearDepth || !dst.Dirty(1) {
		t.Error("untouched tile copied from a red layer does not read red")
	}
	if dst.At(10, 10) != colorspace.Transparent {
		t.Error("copy leaked the layer's clear colour outside the tile")
	}
	// The other way round: a transparent tile copied into the red layer.
	if err := layer.CopyTileFrom(MustNew(128, 128), 2); err != nil {
		t.Fatal(err)
	}
	if layer.At(10, 100) != colorspace.Transparent || layer.At(100, 100) != red {
		t.Error("transparent tile copied into a red layer")
	}
	// Different clear depth too.
	deep := MustNew(128, 128)
	deep.Clear(red, 0.5)
	if err := dst.CopyTileFrom(deep, 3); err != nil {
		t.Fatal(err)
	}
	if dst.DepthAt(100, 100) != 0.5 || dst.At(100, 100) != red {
		t.Error("tile copied from a buffer with a different clear depth")
	}
}

func TestConcurrentWritersCopySharedBlocks(t *testing.T) {
	// Draw workers write to their own buffers at once while those buffers
	// share blocks; each must copy before writing.
	src := MustNew(256, 256)
	for tl := 0; tl < src.TileCount(); tl++ {
		x0, y0, _, _ := src.TileRect(tl)
		src.Set(x0, y0, colorspace.Opaque(1, 1, 1))
		src.SetDepth(x0, y0, 0.5)
	}
	const workers = 4
	bufs := make([]*Buffer, workers)
	for w := range bufs {
		if w%2 == 0 {
			bufs[w] = src.Clone()
			continue
		}
		bufs[w] = MustNew(256, 256)
		for tl := 0; tl < src.TileCount(); tl++ {
			if err := bufs[w].CopyTileFrom(src, tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	for w := range bufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := colorspace.Opaque(float64(w)/workers, 0, 0)
			for y := 0; y < 256; y += 3 {
				for x := 0; x < 256; x += 5 {
					_ = bufs[w].At(x, y)
					bufs[w].Set(x, y, c)
					bufs[w].SetDepth(x, y, float64(w)/workers)
				}
			}
		}(w)
	}
	wg.Wait()
	for tl := 0; tl < src.TileCount(); tl++ {
		x0, y0, _, _ := src.TileRect(tl)
		if src.At(x0, y0) != colorspace.Opaque(1, 1, 1) || src.DepthAt(x0, y0) != 0.5 {
			t.Fatalf("a worker's write reached the source in tile %d", tl)
		}
	}
	for w, b := range bufs {
		if b.At(255, 255) != colorspace.Opaque(float64(w)/workers, 0, 0) {
			t.Errorf("worker %d's write is missing", w)
		}
	}
}

func TestCopyTileFromResidentTileAllocatesNothing(t *testing.T) {
	src := MustNew(256, 256)
	src.Set(10, 10, colorspace.Opaque(1, 0, 0))
	src.SetDepth(10, 10, 0.5)
	dst := MustNew(256, 256)
	if n := testing.AllocsPerRun(100, func() { _ = dst.CopyTileFrom(src, 0) }); n != 0 {
		t.Errorf("CopyTileFrom of a resident tile: %v allocs, want 0", n)
	}
}

func TestNewAllocatesNoPixelStorage(t *testing.T) {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		b := MustNew(1280, 1024)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(b)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("New(1280, 1024) allocated %d B, want < 64 KiB", least)
	}
}
