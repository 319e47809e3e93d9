// Package framebuffer implements the render-target memory the pipeline draws
// into: a colour + depth + stencil buffer organized as a grid of 64×64-pixel
// tiles.
//
// Tiles are the unit of screen-space distribution in split-frame rendering
// (the simulated systems interleave tiles across GPUs, Section V of the
// paper) and the unit of composition traffic: only tiles actually touched by
// a draw command ("dirty" tiles) are exchanged between GPUs during image
// composition (Section VI-C).
//
// Tiles are also the unit of storage. Each of a buffer's colour, depth and
// stencil planes holds one slot per tile, and a slot points to a fixed-size
// 64×64 block allocated on the first write to that tile. An empty slot reads
// as the plane's clear value, so New, Clear, Reset and FillColor allocate no
// pixel storage, and a buffer costs memory only for the tiles drawn into.
//
// Blocks are copy-on-write. CopyTileFrom and Clone share a block between two
// buffers instead of copying it, and mark it shared in both; a shared block
// is never written again, and the next write to it through any holder
// copies it first. Distinct buffers can therefore be written concurrently
// even while they share blocks: a writer only reads a shared block. Sharing
// marks the source buffer too, so CopyTileFrom and Clone must not run
// concurrently with any use of their source. A simulation uses its buffers
// from one goroutine only.
package framebuffer

import (
	"fmt"
	"hash/fnv"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"slices"

	"chopin/internal/colorspace"
)

// TileSize is the width and height in pixels of a framebuffer tile. The
// simulated SFR implementations interleave tiles of this size across GPUs,
// matching the paper's 64×64 split.
const TileSize = 64

// Bytes-per-pixel costs used for inter-GPU traffic accounting.
const (
	// ColorBytesPerPixel is the size of one colour sample (RGBA8).
	ColorBytesPerPixel = 4
	// DepthBytesPerPixel is the size of one depth sample (D24S8).
	DepthBytesPerPixel = 4
	// OpaqueCompositionBytesPerPixel is transferred per pixel when composing
	// opaque sub-images: colour plus the depth needed for the z-compare.
	OpaqueCompositionBytesPerPixel = ColorBytesPerPixel + DepthBytesPerPixel
	// TransparentCompositionBytesPerPixel is transferred per pixel when
	// composing transparent sub-images: premultiplied colour with alpha.
	TransparentCompositionBytesPerPixel = ColorBytesPerPixel
)

// ClearDepth is the depth value of an empty buffer (farthest possible) under
// the standard less-than depth test.
const ClearDepth = 1.0

// Buffer is a 2D render target with tile-sparse, copy-on-write colour,
// depth and stencil planes and per-tile dirty tracking.
type Buffer struct {
	width, height  int
	tilesX, tilesY int

	color   plane[colorspace.RGBA]
	depth   plane[float64]
	stencil plane[uint8]
	dirty   []bool
}

// tilePixels is the pixel count of one block: one tile of one plane,
// row-major with a TileSize stride. The rows and columns of an edge tile
// that fall outside the buffer are unused.
const tilePixels = TileSize * TileSize

// plane is one tile-sparse pixel plane: a block per tile, or nil for a tile
// that reads as clear everywhere.
type plane[T comparable] struct {
	blocks []*[tilePixels]T
	// shared[t] marks blocks[t] as possibly held by another plane too.
	// Such a block is never written again; a writer first replaces it with
	// a private copy.
	shared []bool
	clear  T
}

func newPlane[T comparable](tiles int, clear T) plane[T] {
	return plane[T]{
		blocks: make([]*[tilePixels]T, tiles),
		shared: make([]bool, tiles),
		clear:  clear,
	}
}

// at returns pixel i of tile t.
func (p *plane[T]) at(t, i int) T {
	if blk := p.blocks[t]; blk != nil {
		return blk[i]
	}
	return p.clear
}

// writable returns tile t's block, private to this plane and ready for
// writing.
func (p *plane[T]) writable(t int) *[tilePixels]T {
	if blk := p.blocks[t]; blk != nil && !p.shared[t] {
		return blk
	}
	return p.own(t)
}

// own replaces tile t's slot with a private block holding the tile's
// current contents: a copy of the shared block, or the clear value.
func (p *plane[T]) own(t int) *[tilePixels]T {
	var nb *[tilePixels]T
	if blk := p.blocks[t]; blk != nil {
		// slices.Clone does not zero memory it is about to overwrite, as
		// new followed by a copy would.
		nb = (*[tilePixels]T)(slices.Clone(blk[:]))
	} else {
		nb = filled(p.clear)
	}
	p.blocks[t] = nb
	p.shared[t] = false
	return nb
}

// filled returns a new block with every pixel set to v.
func filled[T comparable](v T) *[tilePixels]T {
	blk := new([tilePixels]T)
	var zero T
	if v != zero {
		for i := range blk {
			blk[i] = v
		}
	}
	return blk
}

// reset drops every block, so every pixel reads as v.
func (p *plane[T]) reset(v T) {
	clear(p.blocks)
	clear(p.shared)
	p.clear = v
}

// fillTile makes every pixel of tile t read as v.
func (p *plane[T]) fillTile(t int, v T) {
	p.blocks[t] = nil
	if v != p.clear {
		p.blocks[t] = filled(v)
	}
	p.shared[t] = false
}

// copyTile makes tile t read as it does in src, sharing src's block.
func (p *plane[T]) copyTile(src *plane[T], t int) {
	blk := src.blocks[t]
	if blk == nil {
		p.fillTile(t, src.clear)
		return
	}
	p.blocks[t] = blk
	p.shared[t] = true
	src.shared[t] = true
}

// clone returns a plane sharing all of p's blocks.
func (p *plane[T]) clone() plane[T] {
	for t, blk := range p.blocks {
		if blk != nil {
			p.shared[t] = true
		}
	}
	return plane[T]{blocks: slices.Clone(p.blocks), shared: slices.Clone(p.shared), clear: p.clear}
}

// New returns a cleared buffer of the given pixel dimensions: transparent
// colour, far depth, zero stencil, nothing dirty. It allocates no pixel
// storage. Width and height must be positive.
func New(width, height int) (*Buffer, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("framebuffer: invalid dimensions %d×%d", width, height)
	}
	b := &Buffer{
		width:  width,
		height: height,
		tilesX: (width + TileSize - 1) / TileSize,
		tilesY: (height + TileSize - 1) / TileSize,
	}
	n := b.tilesX * b.tilesY
	b.color = newPlane(n, colorspace.Transparent)
	b.depth = newPlane(n, ClearDepth)
	b.stencil = newPlane(n, uint8(0))
	b.dirty = make([]bool, n)
	return b, nil
}

// MustNew is like New but panics on invalid dimensions. It is the sanctioned
// convenience for tests, examples, and call sites whose dimensions were
// already validated at a configuration boundary (the regexp.MustCompile
// idiom); library code handling external input must use New.
func MustNew(width, height int) *Buffer {
	b, err := New(width, height)
	if err != nil {
		panic(err)
	}
	return b
}

// Width returns the buffer width in pixels.
func (b *Buffer) Width() int { return b.width }

// Height returns the buffer height in pixels.
func (b *Buffer) Height() int { return b.height }

// TilesX returns the number of tile columns.
func (b *Buffer) TilesX() int { return b.tilesX }

// TilesY returns the number of tile rows.
func (b *Buffer) TilesY() int { return b.tilesY }

// TileCount returns the total number of tiles.
func (b *Buffer) TileCount() int { return b.tilesX * b.tilesY }

// Clear sets every pixel to the given colour and depth, zeroes the stencil
// plane, and marks every tile dirty (a full-screen clear touches everything).
// It drops every block instead of writing pixels.
func (b *Buffer) Clear(c colorspace.RGBA, depth float64) {
	b.color.reset(c)
	b.depth.reset(depth)
	b.stencil.reset(0)
	for i := range b.dirty {
		b.dirty[i] = true
	}
}

// FillColor sets every pixel's colour without touching depth, stencil or
// dirty flags. Transparent sub-image render targets are initialized this
// way: they inherit the opaque depth buffer (for occlusion tests) but start
// from a fully transparent colour plane. It drops every colour block, so a
// layer cloned from a target goes on sharing the target's depth blocks.
func (b *Buffer) FillColor(c colorspace.RGBA) {
	b.color.reset(c)
}

// ClearDirty resets all dirty-tile flags.
func (b *Buffer) ClearDirty() {
	for i := range b.dirty {
		b.dirty[i] = false
	}
}

// Reset returns the buffer to its freshly constructed state: transparent
// colour, far depth, zero stencil, nothing dirty. Degraded-mode recovery uses
// this to drop a failed GPU's targets so stale content cannot be read back.
func (b *Buffer) Reset() {
	b.Clear(colorspace.Transparent, ClearDepth)
	b.ClearDirty()
}

// InBounds reports whether pixel (x, y) lies inside the buffer.
func (b *Buffer) InBounds(x, y int) bool {
	return x >= 0 && x < b.width && y >= 0 && y < b.height
}

// locate returns the tile holding pixel (x, y) and the pixel's index in that
// tile's blocks.
func (b *Buffer) locate(x, y int) (t, i int) {
	tx, ty := x/TileSize, y/TileSize
	return ty*b.tilesX + tx, (y-ty*TileSize)*TileSize + x - tx*TileSize
}

// At returns the colour at (x, y).
func (b *Buffer) At(x, y int) colorspace.RGBA {
	t, i := b.locate(x, y)
	return b.color.at(t, i)
}

// Set writes the colour at (x, y) and marks its tile dirty.
func (b *Buffer) Set(x, y int, c colorspace.RGBA) {
	t, i := b.locate(x, y)
	b.color.writable(t)[i] = c
	b.dirty[t] = true
}

// DepthAt returns the depth at (x, y).
func (b *Buffer) DepthAt(x, y int) float64 {
	t, i := b.locate(x, y)
	return b.depth.at(t, i)
}

// SetDepth writes the depth at (x, y).
func (b *Buffer) SetDepth(x, y int, d float64) {
	t, i := b.locate(x, y)
	b.depth.writable(t)[i] = d
}

// StencilAt returns the stencil value at (x, y).
func (b *Buffer) StencilAt(x, y int) uint8 {
	t, i := b.locate(x, y)
	return b.stencil.at(t, i)
}

// SetStencil writes the stencil value at (x, y).
func (b *Buffer) SetStencil(x, y int, s uint8) {
	t, i := b.locate(x, y)
	b.stencil.writable(t)[i] = s
}

// TileOf returns the tile index containing pixel (x, y).
func (b *Buffer) TileOf(x, y int) int {
	return (y/TileSize)*b.tilesX + x/TileSize
}

// TileRect returns the pixel bounds [x0, x1)×[y0, y1) of tile t, clipped to
// the buffer edge for partial tiles.
func (b *Buffer) TileRect(t int) (x0, y0, x1, y1 int) {
	tx, ty := t%b.tilesX, t/b.tilesX
	x0, y0 = tx*TileSize, ty*TileSize
	x1 = min(x0+TileSize, b.width)
	y1 = min(y0+TileSize, b.height)
	return
}

// TilePixelCount returns the number of pixels in tile t (smaller than
// TileSize² for edge tiles).
func (b *Buffer) TilePixelCount(t int) int {
	x0, y0, x1, y1 := b.TileRect(t)
	return (x1 - x0) * (y1 - y0)
}

// Dirty reports whether tile t has been written since the last ClearDirty.
func (b *Buffer) Dirty(t int) bool { return b.dirty[t] }

// MarkDirty marks tile t as written.
func (b *Buffer) MarkDirty(t int) { b.dirty[t] = true }

// DirtyTiles returns the indices of all dirty tiles in ascending order.
func (b *Buffer) DirtyTiles() []int {
	var out []int
	for i, d := range b.dirty {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// CopyTileFrom copies tile t (colour, depth and stencil) from src, which must
// have identical dimensions, and marks it dirty if it was dirty in src. The
// copy shares src's blocks (see the package comment), so it allocates
// nothing unless src's tile reads as a clear value b's plane does not share.
func (b *Buffer) CopyTileFrom(src *Buffer, t int) error {
	if src.width != b.width || src.height != b.height {
		return fmt.Errorf("framebuffer: CopyTileFrom dimension mismatch: %d×%d vs %d×%d",
			src.width, src.height, b.width, b.height)
	}
	b.color.copyTile(&src.color, t)
	b.depth.copyTile(&src.depth, t)
	b.stencil.copyTile(&src.stencil, t)
	if src.dirty[t] {
		b.dirty[t] = true
	}
	return nil
}

// ClearTile resets tile t to the cleared state (transparent colour, far
// depth, zero stencil) and clears its dirty flag. Degraded-mode recovery
// uses this before re-rendering a reassigned tile from scratch.
func (b *Buffer) ClearTile(t int) {
	b.color.fillTile(t, colorspace.Transparent)
	b.depth.fillTile(t, ClearDepth)
	b.stencil.fillTile(t, 0)
	b.dirty[t] = false
}

// Clone returns a copy of the buffer that shares every block with b.
func (b *Buffer) Clone() *Buffer {
	return &Buffer{
		width:   b.width,
		height:  b.height,
		tilesX:  b.tilesX,
		tilesY:  b.tilesY,
		color:   b.color.clone(),
		depth:   b.depth.clone(),
		stencil: b.stencil.clone(),
		dirty:   slices.Clone(b.dirty),
	}
}

// Equal reports whether two buffers have identical dimensions and whether
// every pixel's colour is within eps per channel and depth within eps.
// Stencil must match exactly. Dirty flags are not compared.
func (b *Buffer) Equal(o *Buffer, eps float64) bool {
	if b.width != o.width || b.height != o.height {
		return false
	}
	for y := 0; y < b.height; y++ {
		for x := 0; x < b.width; x++ {
			t, i := b.locate(x, y)
			if !b.color.at(t, i).ApproxEqual(o.color.at(t, i), eps) ||
				math.Abs(b.depth.at(t, i)-o.depth.at(t, i)) > eps ||
				b.stencil.at(t, i) != o.stencil.at(t, i) {
				return false
			}
		}
	}
	return true
}

// DiffCount returns the number of pixels whose colour differs by more than
// eps in any channel, for test diagnostics.
func (b *Buffer) DiffCount(o *Buffer, eps float64) int {
	if b.width != o.width || b.height != o.height {
		return b.width * b.height
	}
	n := 0
	for y := 0; y < b.height; y++ {
		for x := 0; x < b.width; x++ {
			if !b.At(x, y).ApproxEqual(o.At(x, y), eps) {
				n++
			}
		}
	}
	return n
}

// Checksum returns a stable hash of the quantized (8-bit) colour contents in
// row-major order, used by regression tests to pin rendered output.
func (b *Buffer) Checksum() uint64 {
	h := fnv.New64a()
	var quad [4]byte
	for y := 0; y < b.height; y++ {
		for x := 0; x < b.width; x++ {
			quad[0], quad[1], quad[2], quad[3] = b.At(x, y).RGBA8()
			h.Write(quad[:])
		}
	}
	return h.Sum64()
}

// ToImage converts the colour plane to a standard-library RGBA image
// (premultiplied channels quantized to 8 bits).
func (b *Buffer) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, b.width, b.height))
	for y := 0; y < b.height; y++ {
		for x := 0; x < b.width; x++ {
			r, g, bl, a := b.At(x, y).RGBA8()
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: bl, A: a})
		}
	}
	return img
}

// WritePNG encodes the colour plane as a PNG.
func (b *Buffer) WritePNG(w io.Writer) error {
	return png.Encode(w, b.ToImage())
}

// OwnerOf returns the GPU that owns tile t when tiles are interleaved
// round-robin across numGPUs, the initial screen split used by all simulated
// SFR schemes (degraded-mode recovery remaps ownership dynamically). It
// returns -1 when numGPUs is not positive.
func OwnerOf(t, numGPUs int) int {
	if numGPUs <= 0 {
		return -1
	}
	return t % numGPUs
}

// OwnedTiles returns the tiles of a tilesX×tilesY grid owned by gpu under
// round-robin interleaving.
func OwnedTiles(tilesX, tilesY, numGPUs, gpu int) []int {
	var out []int
	for t := gpu; t < tilesX*tilesY; t += numGPUs {
		out = append(out, t)
	}
	return out
}
