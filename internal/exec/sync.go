package exec

import (
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
)

// SyncTarget broadcasts each GPU's owned authoritative region of render
// target rt to all other GPUs (colour + depth), functionally copying owner
// tiles into each peer's buffer. ownedTiles(src) selects the tiles GPU src
// broadcasts (nil provider = src's currently dirty owned tiles, under the
// system's current — possibly remapped — ownership). done fires when the
// last transfer has drained. Failed GPUs neither broadcast nor receive.
//
// This is the memory-consistency synchronization of paper Section V. It
// runs automatically between segments under RunSegments; CHOPIN additionally
// invokes it when entering a transparent composition group so that every
// GPU holds the true opaque depth buffer (see DESIGN.md §4.3).
func (r *Runtime) SyncTarget(rt int, ownedTiles func(src int) []int, done func()) {
	sys := r.Sys
	n := sys.Cfg.NumGPUs
	b := r.TracedBarrier("target sync", done)
	for src := 0; src < n; src++ {
		if !sys.Alive(src) {
			continue
		}
		var tiles []int
		var px int
		if ownedTiles != nil {
			tiles = ownedTiles(src)
			px = sys.PixelCount(tiles)
		} else {
			tiles, px = sys.OwnedDirtyTiles(sys.GPUs[src].Target(rt), src, 0, sys.Height())
		}
		if px == 0 {
			continue
		}
		bytes := int64(px) * framebuffer.OpaqueCompositionBytesPerPixel
		for dst := 0; dst < n; dst++ {
			if dst == src || !sys.Alive(dst) {
				continue
			}
			b.Add(1)
			src, dst, tiles := src, dst, tiles
			sys.Fabric.Send(src, dst, bytes, interconnect.ClassSync, func() {
				dstFB := sys.GPUs[dst].Target(rt)
				for _, t := range tiles {
					// Identical dimensions by construction: every target in
					// the system is built to the configured screen size.
					_ = dstFB.CopyTileFrom(sys.GPUs[src].Target(rt), t)
				}
				b.Done()
			})
		}
	}
	b.SealDeferred(sys.Eng)
}
