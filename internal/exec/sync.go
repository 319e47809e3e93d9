package exec

import (
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/stats"
)

// Sync runs the consistency sync of render target rt (SyncTarget),
// attributes its wait to PhaseSync, and then runs then.
func (r *Runtime) Sync(rt int, then func()) {
	t := r.StartPhase(stats.PhaseSync)
	r.SyncTarget(rt, func() {
		t.Stop()
		then()
	})
}

// SyncTarget broadcasts each live GPU's owned unsynced tiles of render
// target rt (see framebuffer.Buffer.Unsynced), under the system's current —
// possibly remapped — ownership, to every other live GPU (colour + depth),
// functionally copying them into each peer's buffer. When the last transfer
// has drained it clears rt's dirty and unsynced flags on every GPU, so the
// next sync sends only tiles written after this one (delta
// synchronization), and runs done. Failed GPUs neither broadcast nor
// receive.
//
// This is the memory-consistency synchronization of paper Section V. It
// runs between segments under RunSegments; CHOPIN also runs it at its
// render-target switches and when entering a transparent composition group,
// so that every GPU holds the true opaque depth buffer (see DESIGN.md §4.3b).
func (r *Runtime) SyncTarget(rt int, done func()) {
	sys := r.Sys
	n := sys.Cfg.NumGPUs
	b := r.TracedBarrier("target sync", func() {
		for _, g := range sys.GPUs {
			g.Target(rt).ClearSynced()
		}
		done()
	})
	for src := 0; src < n; src++ {
		if !sys.Alive(src) {
			continue
		}
		srcFB := sys.GPUs[src].Target(rt)
		var tiles []int
		px := 0
		for t := range sys.TileCount() {
			if sys.Owner(t) == src && srcFB.Unsynced(t) {
				tiles = append(tiles, t)
				px += srcFB.TilePixelCount(t)
			}
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
