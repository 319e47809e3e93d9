// Package check is the verification subsystem: runtime invariant checks that
// validate the load-bearing properties of the simulator while it runs.
//
// The paper's headline claim is that CHOPIN's out-of-order image composition
// produces exactly the image sequential back-to-front composition would,
// while removing the serialization bottleneck. That property — and the
// simulator machinery it rests on — is easy to break silently while
// refactoring for performance. When a run is verified (Config.Verify), a
// [Checker] rides along and asserts:
//
//   - composition order-independence: the final distributed image equals the
//     sequential single-GPU reference, pixel by pixel ([Checker.VerifyImage]);
//   - fragment conservation: every byte sent across the inter-GPU fabric is
//     delivered exactly once — nothing lost in a blocked egress queue, nothing
//     duplicated (the Checker is an interconnect.Observer;
//     [Checker.VerifyConservation]);
//   - depth-test monotonicity: a composition depth-merge only ever moves a
//     pixel nearer to the camera, and resolves every pixel to the exact
//     cmp-winner of the two inputs ([Checker.DepthMerge]);
//   - event-time monotonicity: the discrete-event engine never fires an event
//     before one it already fired ([Checker.EventWatcher]).
//
// Violations are collected, not panicked, so a verified run reports every
// broken invariant at once. A Checker belongs to a single simulation and is
// not safe for concurrent use.
package check

import (
	"fmt"
	"math"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/sim"
)

// maxDetailed bounds the number of fully rendered violation messages; past
// it, further violations are only counted (a badly broken run could
// otherwise produce one message per pixel).
const maxDetailed = 32

// DefaultImageEps is the per-channel tolerance for image comparisons.
// Opaque composition is exact (depth merges select, they do not blend), but
// transparent groups accumulate floating-point blends whose grouping differs
// between the distributed schedule and the sequential reference; 1e-9 allows
// for that associativity rounding and nothing more.
const DefaultImageEps = 1e-9

// linkKey identifies one directed traffic ledger entry.
type linkKey struct {
	src, dst int
	class    interconnect.Class
}

// Checker accumulates invariant violations during one verified simulation.
type Checker struct {
	violations []string
	suppressed int

	// conservation ledger
	sent, delivered map[linkKey]int64
	sentBytes       map[linkKey]int64
	deliveredBytes  map[linkKey]int64

	// event-time monotonicity
	events    int64
	lastEvent sim.Cycle
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{
		sent:           map[linkKey]int64{},
		delivered:      map[linkKey]int64{},
		sentBytes:      map[linkKey]int64{},
		deliveredBytes: map[linkKey]int64{},
	}
}

// Violatef records one invariant violation.
func (c *Checker) Violatef(format string, args ...any) {
	if len(c.violations) >= maxDetailed {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Violations returns the recorded violation messages (with a trailing
// summary line if some were suppressed past the detail cap).
func (c *Checker) Violations() []string {
	if c.suppressed == 0 {
		return c.violations
	}
	return append(append([]string(nil), c.violations...),
		fmt.Sprintf("... and %d further violations suppressed", c.suppressed))
}

// Ok reports whether no invariant has been violated.
func (c *Checker) Ok() bool { return len(c.violations) == 0 }

// Err returns nil if every invariant held, or an error summarizing the
// violations.
func (c *Checker) Err() error {
	v := c.Violations()
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s): %v", len(v), v)
}

// Sent implements interconnect.Observer.
func (c *Checker) Sent(src, dst int, bytes int64, class interconnect.Class) {
	k := linkKey{src, dst, class}
	c.sent[k]++
	c.sentBytes[k] += bytes
}

// Delivered implements interconnect.Observer.
func (c *Checker) Delivered(src, dst int, bytes int64, class interconnect.Class) {
	k := linkKey{src, dst, class}
	c.delivered[k]++
	c.deliveredBytes[k] += bytes
	if c.delivered[k] > c.sent[k] {
		c.Violatef("fabric %d->%d %v: delivered %d transfers but only %d were sent",
			src, dst, class, c.delivered[k], c.sent[k])
	}
}

// VerifyConservation asserts, at the end of a run, that every transfer sent
// over the fabric was delivered exactly once, byte for byte.
func (c *Checker) VerifyConservation() {
	for k, n := range c.sent {
		if d := c.delivered[k]; d != n {
			c.Violatef("fabric %d->%d %v: %d transfers sent but %d delivered",
				k.src, k.dst, k.class, n, d)
		} else if sb, db := c.sentBytes[k], c.deliveredBytes[k]; sb != db {
			c.Violatef("fabric %d->%d %v: %d bytes sent but %d delivered",
				k.src, k.dst, k.class, sb, db)
		}
	}
	for k, d := range c.delivered {
		if _, ok := c.sent[k]; !ok && d > 0 {
			c.Violatef("fabric %d->%d %v: %d transfers delivered that were never sent",
				k.src, k.dst, k.class, d)
		}
	}
}

// EventWatcher returns a sim.Engine watcher asserting that event timestamps
// never decrease — simulated time only moves forward.
func (c *Checker) EventWatcher() func(at sim.Cycle) {
	return func(at sim.Cycle) {
		if c.events > 0 && at < c.lastEvent {
			c.Violatef("sim: event fired at cycle %d after one at cycle %d", at, c.lastEvent)
		}
		c.lastEvent = at
		c.events++
	}
}

// DepthMerge performs composite.DepthMerge(dst, src, cmp, tiles) and then
// verifies, pixel by pixel over the merged tiles, that the merge was a
// monotone selection: the surviving depth is exactly the cmp-winner of the
// two inputs, the surviving colour travelled with it, and no pixel moved
// away from the camera. The transferred pixel count is returned, like the
// unchecked merge.
func (c *Checker) DepthMerge(dst, src *framebuffer.Buffer, cmp colorspace.CompareFunc, tiles []int) int {
	if tiles == nil {
		tiles = make([]int, dst.TileCount())
		for i := range tiles {
			tiles[i] = i
		}
	}
	// Snapshot the pre-merge state of the affected tiles.
	type pix struct {
		depth float64
		color colorspace.RGBA
	}
	pre := map[[2]int]pix{}
	for _, tl := range tiles {
		if !src.Dirty(tl) {
			continue
		}
		x0, y0, x1, y1 := dst.TileRect(tl)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				pre[[2]int{x, y}] = pix{dst.DepthAt(x, y), dst.At(x, y)}
			}
		}
	}
	px := composite.DepthMerge(dst, src, cmp, tiles)
	for at, p := range pre {
		x, y := at[0], at[1]
		want := p
		if colorspace.Compare(cmp, src.DepthAt(x, y), p.depth) {
			want = pix{src.DepthAt(x, y), src.At(x, y)}
		}
		got := pix{dst.DepthAt(x, y), dst.At(x, y)}
		if got != want {
			c.Violatef("depth merge at (%d,%d): got depth %g colour %v, want the cmp-winner depth %g colour %v",
				x, y, got.depth, got.color, want.depth, want.color)
			continue
		}
		// Monotonicity: the pixel never moves away from the camera — the
		// post-merge depth must not lose a cmp comparison against what the
		// destination already held.
		if colorspace.Compare(cmp, p.depth, got.depth) && p.depth != got.depth {
			c.Violatef("depth merge at (%d,%d): depth regressed from %g to %g under %v",
				x, y, p.depth, got.depth, cmp)
		}
	}
	return px
}

// VerifyImage compares a scheme's final image against the sequential
// reference, pixel by pixel, recording per-pixel diffs (up to the detail
// cap) and a summary violation when they differ beyond eps.
func (c *Checker) VerifyImage(name string, got, want *framebuffer.Buffer, eps float64) {
	if got == nil || want == nil {
		if got != want {
			c.Violatef("image %s: got %v, want %v", name, got != nil, want != nil)
		}
		return
	}
	if got.Width() != want.Width() || got.Height() != want.Height() {
		c.Violatef("image %s: dimensions %dx%d, want %dx%d",
			name, got.Width(), got.Height(), want.Width(), want.Height())
		return
	}
	diffs := 0
	var firstX, firstY = -1, -1
	var worst float64
	for y := 0; y < got.Height(); y++ {
		for x := 0; x < got.Width(); x++ {
			g, w := got.At(x, y), want.At(x, y)
			if g.ApproxEqual(w, eps) && math.Abs(got.DepthAt(x, y)-want.DepthAt(x, y)) <= eps {
				continue
			}
			diffs++
			if firstX < 0 {
				firstX, firstY = x, y
			}
			for _, d := range []float64{g.R - w.R, g.G - w.G, g.B - w.B, g.A - w.A,
				got.DepthAt(x, y) - want.DepthAt(x, y)} {
				if a := math.Abs(d); a > worst {
					worst = a
				}
			}
		}
	}
	if diffs > 0 {
		c.Violatef("image %s: %d of %d pixels differ from the sequential reference (first at (%d,%d), worst channel delta %g, eps %g)",
			name, diffs, got.Width()*got.Height(), firstX, firstY, worst, eps)
	}
}
