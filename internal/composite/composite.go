// Package composite implements parallel image composition: the reduction of
// several sub-images into one (paper Section II-D).
//
// Two kinds of reduction appear in sort-last rendering:
//
//   - Opaque composition keeps, per pixel, the fragment closest to the
//     camera. It is commutative and associative, so sub-images can be
//     composed out-of-order ([DepthMerge]).
//
//   - Transparent composition blends pixels with an operator such as
//     Porter–Duff over. Blending is NOT commutative — order matters — but it
//     IS associative, so adjacent sub-images in draw order may be merged in
//     any grouping ([ChainCompose], [TreeCompose]). CHOPIN exploits exactly
//     this property.
//
// [Exchange] executes any exchange plan from package plan (direct-send,
// binary-swap, radix-k, mixed-radix, or a repaired survivor plan) on real
// sub-images, with per-message traffic accounting. The planners are the one
// definition of each schedule: the simulator plays the same plans over its
// timed fabric, and Exchange is their standalone library form and the
// image-level oracle they are tested against.
package composite

import (
	"fmt"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// Traffic is the communication cost of an exchange.
type Traffic struct {
	// Messages is the number of point-to-point transfers.
	Messages int
	// Bytes is the total payload transferred.
	Bytes int64
	// Rounds is the number of communication rounds (the critical-path
	// length of the schedule).
	Rounds int
}

// DepthMerge composes src into dst over the given tiles by keeping, per
// pixel, the value whose depth passes cmp against the current one (for
// CmpLess: the nearer fragment). Only src's dirty tiles are examined —
// untouched tiles cannot contribute — and the number of transferred pixels
// is returned for traffic accounting. Passing nil tiles merges every tile.
func DepthMerge(dst, src *framebuffer.Buffer, cmp colorspace.CompareFunc, tiles []int) (pixels int) {
	return DepthMergeRegion(dst, src, cmp, 0, dst.Height(), tiles)
}

// BlendMerge composes the FRONT sub-image src over the BACK sub-image dst
// with the given operator over the given tiles: dst = op(src, dst) per
// pixel. Only src's dirty tiles are examined; the number of transferred
// pixels is returned. Passing nil tiles merges every tile.
//
// "Front" means later in draw-command order: sub-images must be merged
// respecting the stream order, though associativity allows any grouping.
func BlendMerge(dst, src *framebuffer.Buffer, op colorspace.BlendOp, tiles []int) (pixels int) {
	if tiles == nil {
		tiles = allTiles(dst)
	}
	for _, tl := range tiles {
		if !src.Dirty(tl) {
			continue
		}
		x0, y0, x1, y1 := dst.TileRect(tl)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				dst.Set(x, y, colorspace.Blend(op, src.At(x, y), dst.At(x, y)))
			}
		}
		pixels += dst.TilePixelCount(tl)
	}
	return pixels
}

func allTiles(b *framebuffer.Buffer) []int {
	tiles := make([]int, b.TileCount())
	for i := range tiles {
		tiles[i] = i
	}
	return tiles
}

// ChainCompose folds an ordered back-to-front list of transparent layers
// into a single image by merging left to right: layer i+1 is composed over
// the accumulated result of layers 0..i. The input buffers are not modified.
func ChainCompose(op colorspace.BlendOp, layers []*framebuffer.Buffer) *framebuffer.Buffer {
	if len(layers) == 0 {
		return nil
	}
	acc := layers[0].Clone()
	for _, l := range layers[1:] {
		BlendMerge(acc, l, op, nil)
	}
	return acc
}

// TreeCompose composes the same ordered layer list as ChainCompose but by
// recursively merging adjacent halves — the asynchronous pairing CHOPIN's
// composition scheduler performs. By associativity the result equals
// ChainCompose up to floating-point rounding. The input buffers are not
// modified.
func TreeCompose(op colorspace.BlendOp, layers []*framebuffer.Buffer) *framebuffer.Buffer {
	switch len(layers) {
	case 0:
		return nil
	case 1:
		return layers[0].Clone()
	}
	mid := len(layers) / 2
	back := TreeCompose(op, layers[:mid])
	front := TreeCompose(op, layers[mid:])
	BlendMerge(back, front, op, nil)
	return back
}

// DepthReference sequentially depth-merges all sub-images into a fresh
// buffer, the golden reference the parallel schedules are tested against.
func DepthReference(subs []*framebuffer.Buffer, cmp colorspace.CompareFunc) *framebuffer.Buffer {
	if len(subs) == 0 {
		return nil
	}
	acc := subs[0].Clone()
	for _, s := range subs[1:] {
		DepthMerge(acc, s, cmp, nil)
	}
	return acc
}

// Exchange composes the per-GPU sub-images subs by playing the exchange
// plan p round by round with the merges the simulator's plan executor
// applies, and returns the assembled image with the plan's traffic. p must
// pass plan.Check; subs[g] may be nil for a GPU outside p's live set. The
// input sub-images are not modified.
//
// Row-region sessions depth-merge the sender's current rows into the
// receiver ([DepthMergeRegion]) and are charged their whole region at
// OpaqueCompositionBytesPerPixel, as the fabric carries them. Every other
// live GPU then sends its Final rows to the display GPU (the lowest live
// id): one extra round of colour-only messages.
//
// Direct-send (OwnerRegions) sessions merge the sender's dirty tiles among
// the receiver's owned tiles ([DepthMerge]) and are charged only when
// pixels move. The composed image then already sits with its tile owners,
// so assembling it is free.
func Exchange(p *plan.Plan, subs []*framebuffer.Buffer, cmp colorspace.CompareFunc) (*framebuffer.Buffer, Traffic, error) {
	if len(subs) != p.N {
		return nil, Traffic{}, fmt.Errorf("composite: a %d-GPU plan given %d sub-images", p.N, len(subs))
	}
	work := make([]*framebuffer.Buffer, p.N)
	display := -1
	for g, s := range subs {
		if !p.IsLive(g) {
			continue
		}
		if s == nil || s.Height() != p.Height {
			return nil, Traffic{}, fmt.Errorf("composite: GPU %d's sub-image does not match the plan's %d-row screen", g, p.Height)
		}
		if display < 0 {
			display = g
		}
		work[g] = s.Clone()
	}
	if display < 0 {
		return nil, Traffic{}, fmt.Errorf("composite: plan has no live GPUs")
	}
	w := work[display].Width()
	var owned [][]int
	if p.OwnerRegions {
		owned = make([][]int, p.N)
		for g := range owned {
			owned[g] = framebuffer.OwnedTiles(work[display].TilesX(), work[display].TilesY(), p.N, g)
		}
	}
	tr := Traffic{Rounds: len(p.Rounds)}
	for _, round := range p.Rounds {
		for _, s := range round {
			dst, src := work[s.Receiver], work[s.Sender]
			if p.OwnerRegions {
				if px := DepthMerge(dst, src, cmp, owned[s.Receiver]); px > 0 {
					tr.Messages++
					tr.Bytes += int64(px) * framebuffer.OpaqueCompositionBytesPerPixel
				}
			} else if rows := s.Region.Rows(); rows > 0 {
				DepthMergeRegion(dst, src, cmp, s.Region.Lo, s.Region.Hi, nil)
				tr.Messages++
				tr.Bytes += int64(rows*w) * framebuffer.OpaqueCompositionBytesPerPixel
			}
		}
	}

	result := work[display].Clone()
	if p.OwnerRegions {
		for g, tiles := range owned {
			if g == display {
				continue
			}
			for _, tl := range tiles {
				x0, y0, x1, y1 := result.TileRect(tl)
				copyRect(result, work[g], x0, y0, x1, y1)
			}
		}
		return result, tr, nil
	}
	tr.Rounds++
	for g, fr := range p.Final {
		if g == display || fr.Empty() {
			continue
		}
		copyRect(result, work[g], 0, fr.Lo, w, fr.Hi)
		tr.Messages++
		tr.Bytes += int64(fr.Rows()*w) * framebuffer.ColorBytesPerPixel
	}
	return result, tr, nil
}

// DepthMergeRegion composes src into dst over rows [y0, y1), restricted to
// src's dirty tiles (and, when tiles is non-nil, to that tile subset): each
// tile's rectangle is clipped to the row range before merging. This is the
// region-exchange primitive of the scheme layer's plan executor — payload
// regions are row ranges that need not align with tile boundaries, and
// clipping to dirty tiles keeps a buffer's cleared pixels (depth exactly
// ClearDepth) from overwriting real far-plane content under CmpLessEqual
// ties. Returns the merged pixel count.
func DepthMergeRegion(dst, src *framebuffer.Buffer, cmp colorspace.CompareFunc, y0, y1 int, tiles []int) (pixels int) {
	if tiles == nil {
		tiles = src.DirtyTiles()
	}
	for _, tl := range tiles {
		if !src.Dirty(tl) {
			continue
		}
		x0, ty0, x1, ty1 := dst.TileRect(tl)
		cy0, cy1 := max(ty0, y0), min(ty1, y1)
		for y := cy0; y < cy1; y++ {
			for x := x0; x < x1; x++ {
				if colorspace.Compare(cmp, src.DepthAt(x, y), dst.DepthAt(x, y)) {
					dst.Set(x, y, src.At(x, y))
					dst.SetDepth(x, y, src.DepthAt(x, y))
				}
			}
		}
		if cy1 > cy0 {
			pixels += (cy1 - cy0) * (x1 - x0)
		}
	}
	return pixels
}

// copyRect copies the rectangle [x0, x1) × [y0, y1) of src into dst.
func copyRect(dst, src *framebuffer.Buffer, x0, y0, x1, y1 int) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			dst.Set(x, y, src.At(x, y))
			dst.SetDepth(x, y, src.DepthAt(x, y))
		}
	}
}
