package composite

import (
	"math/rand"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// These property-style tests back the paper's central claim (Section IV-B):
// opaque depth merging is commutative and associative, so sub-images may be
// composed in any grouping and any order — by any schedule — and the result
// equals the sequential reference exactly. Depths are drawn from a
// continuous distribution, so cross-image ties (whose resolution is
// legitimately order-sensitive under CmpLess vs CmpLessEqual) do not occur.

// isPowerOf reports whether n is a positive power of k (k, k², ...).
func isPowerOf(n, k int) bool {
	if k < 2 {
		return false
	}
	for m := n; m > 1; m /= k {
		if m%k != 0 {
			return false
		}
	}
	return n > 1
}

// TestPropertyParallelSchedulesMatchReference plays every exchange plan over randomized GPU counts, screen sizes (including
// non-tile-aligned ones), and contents, requiring exact equality with the
// sequential reference.
func TestPropertyParallelSchedulesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(8)    // 2..9 GPUs
		w := 33 + r.Intn(160) // deliberately off tile boundaries
		h := 33 + r.Intn(160)
		cmp := colorspace.CmpLess
		if trial%2 == 1 {
			cmp = colorspace.CmpLessEqual
		}
		subs := randomSubImages(t, n, w, h, int64(1000+trial))
		ref := DepthReference(subs, cmp)

		if got, _ := exchange(t, plan.AlgDirectSend, 0, subs, cmp); !got.Equal(ref, 0) {
			t.Fatalf("trial %d (n=%d %dx%d): direct-send differs from reference", trial, n, w, h)
		}
		if n&(n-1) == 0 {
			if got, _ := exchange(t, plan.AlgBinarySwap, 0, subs, cmp); !got.Equal(ref, 0) {
				t.Fatalf("trial %d (n=%d %dx%d): binary-swap differs from reference", trial, n, w, h)
			}
		}
		for _, k := range []int{2, 3, n} {
			if !isPowerOf(n, k) {
				continue
			}
			if got, _ := exchange(t, plan.AlgRadixK, k, subs, cmp); !got.Equal(ref, 0) {
				t.Fatalf("trial %d (n=%d %dx%d): radix-%d differs from reference", trial, n, w, h, k)
			}
		}
	}
}

// TestPropertyArbitraryMergeScheduleMatchesReference goes beyond the named
// schedules: it merges the sub-image pool pairwise in a completely random
// order (a random binary merge tree with random operand order) and still
// requires the exact reference image — commutativity and associativity in
// full generality.
func TestPropertyArbitraryMergeScheduleMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 2 + r.Intn(9)
		w := 40 + r.Intn(120)
		h := 40 + r.Intn(120)
		subs := randomSubImages(t, n, w, h, int64(2000+trial))
		ref := DepthReference(subs, colorspace.CmpLess)

		pool := make([]*framebuffer.Buffer, n)
		for i, s := range subs {
			pool[i] = s.Clone()
		}
		for len(pool) > 1 {
			i := r.Intn(len(pool))
			j := r.Intn(len(pool) - 1)
			if j >= i {
				j++
			}
			DepthMerge(pool[i], pool[j], colorspace.CmpLess, nil)
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
		}
		if !pool[0].Equal(ref, 0) {
			t.Fatalf("trial %d (n=%d %dx%d): random merge schedule differs from reference", trial, n, w, h)
		}
	}
}

// composeRandomGrouping composes an ordered layer list with a random
// parenthesization: a random split point, recursive composition of each
// side, then one merge. Back-to-front ORDER is preserved (transparent
// blending is not commutative) — only the grouping varies.
func composeRandomGrouping(r *rand.Rand, op colorspace.BlendOp, layers []*framebuffer.Buffer) *framebuffer.Buffer {
	if len(layers) == 1 {
		return layers[0].Clone()
	}
	cut := 1 + r.Intn(len(layers)-1)
	back := composeRandomGrouping(r, op, layers[:cut])
	front := composeRandomGrouping(r, op, layers[cut:])
	BlendMerge(back, front, op, nil)
	return back
}

// TestPropertyBlendGroupingIndependent checks associativity of transparent
// composition: any random parenthesization of an ordered layer list matches
// the sequential chain within floating-point tolerance.
func TestPropertyBlendGroupingIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 2 + r.Intn(7)
		w := 24 + r.Intn(60)
		h := 24 + r.Intn(60)
		layers := randomLayers(n, w, h, int64(3000+trial))
		ref := ChainCompose(colorspace.BlendOver, layers)
		got := composeRandomGrouping(r, colorspace.BlendOver, layers)
		if !got.Equal(ref, 1e-9) {
			t.Fatalf("trial %d (n=%d %dx%d): random grouping differs from chain", trial, n, w, h)
		}
		tree := TreeCompose(colorspace.BlendOver, layers)
		if !tree.Equal(ref, 1e-9) {
			t.Fatalf("trial %d (n=%d %dx%d): tree differs from chain", trial, n, w, h)
		}
	}
}

// TestPropertyMergeIdempotentOnSelfContent verifies that re-merging content
// a buffer already holds never changes it — depth-test monotonicity means a
// merge can only move pixels nearer, and identical depth/colour is a no-op.
func TestPropertyMergeIdempotentOnSelfContent(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 1 + r.Intn(4)
		subs := randomSubImages(t, n, 70, 50, int64(4000+trial))
		ref := DepthReference(subs, colorspace.CmpLess)
		again := ref.Clone()
		DepthMerge(again, ref, colorspace.CmpLess, nil)
		if !again.Equal(ref, 0) {
			t.Fatalf("trial %d: merging an image into itself changed it", trial)
		}
		for _, s := range subs {
			DepthMerge(again, s, colorspace.CmpLess, nil)
		}
		if !again.Equal(ref, 0) {
			t.Fatalf("trial %d: re-merging already-composed sub-images changed the image", trial)
		}
	}
}
