package composite

import (
	"math/rand"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// exchange builds the alg plan (radix k for radix-k) for len(subs) GPUs and
// plays it on subs with Exchange.
func exchange(t *testing.T, alg plan.Algorithm, k int, subs []*framebuffer.Buffer, cmp colorspace.CompareFunc) (*framebuffer.Buffer, Traffic) {
	t.Helper()
	p, err := plan.For(alg, len(subs), subs[0].Height(), k)
	if err != nil {
		t.Fatalf("%s n=%d k=%d: %v", alg, len(subs), k, err)
	}
	img, tr, err := Exchange(p, subs, cmp)
	if err != nil {
		t.Fatalf("%s n=%d k=%d: exchange: %v", alg, len(subs), k, err)
	}
	return img, tr
}

// randomSubImages builds n full-screen sub-images with random opaque content
// at random depths, as if each GPU had rendered a disjoint subset of draws.
func randomSubImages(t *testing.T, n, w, h int, seed int64) []*framebuffer.Buffer {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	subs := make([]*framebuffer.Buffer, n)
	for i := range subs {
		b := framebuffer.MustNew(w, h)
		b.ClearDirty()
		// Each sub-image gets a few random rectangles of content.
		for k := 0; k < 5; k++ {
			x0, y0 := r.Intn(w), r.Intn(h)
			x1 := x0 + 1 + r.Intn(w-x0)
			y1 := y0 + 1 + r.Intn(h-y0)
			c := colorspace.Opaque(r.Float64(), r.Float64(), r.Float64())
			d := r.Float64()
			for y := y0; y < y1; y++ {
				for x := x0; x < x1; x++ {
					if d < b.DepthAt(x, y) {
						b.Set(x, y, c)
						b.SetDepth(x, y, d)
					}
				}
			}
		}
		subs[i] = b
	}
	return subs
}

// randomLayers builds n translucent layers (for blend composition).
func randomLayers(n, w, h int, seed int64) []*framebuffer.Buffer {
	r := rand.New(rand.NewSource(seed))
	layers := make([]*framebuffer.Buffer, n)
	for i := range layers {
		b := framebuffer.MustNew(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if r.Float64() < 0.7 {
					b.Set(x, y, colorspace.FromStraight(r.Float64(), r.Float64(), r.Float64(), r.Float64()))
				}
			}
		}
		layers[i] = b
	}
	return layers
}

func TestDepthMergeKeepsNearer(t *testing.T) {
	a := framebuffer.MustNew(64, 64)
	b := framebuffer.MustNew(64, 64)
	red := colorspace.Opaque(1, 0, 0)
	green := colorspace.Opaque(0, 1, 0)
	a.Set(1, 1, red)
	a.SetDepth(1, 1, 0.5)
	b.Set(1, 1, green)
	b.SetDepth(1, 1, 0.3) // nearer
	DepthMerge(a, b, colorspace.CmpLess, nil)
	if a.At(1, 1) != green || a.DepthAt(1, 1) != 0.3 {
		t.Errorf("merge kept %+v at depth %v", a.At(1, 1), a.DepthAt(1, 1))
	}
	// Merging the other direction: red (0.5) loses against green (0.3).
	b2 := framebuffer.MustNew(64, 64)
	b2.Set(1, 1, red)
	b2.SetDepth(1, 1, 0.5)
	DepthMerge(a, b2, colorspace.CmpLess, nil)
	if a.At(1, 1) != green {
		t.Error("farther pixel overwrote nearer one")
	}
}

func TestDepthMergeSkipsCleanTiles(t *testing.T) {
	dst := framebuffer.MustNew(128, 128)
	src := framebuffer.MustNew(128, 128)
	src.ClearDirty()
	src.Set(1, 1, colorspace.Opaque(1, 1, 1)) // dirties tile 0 only
	src.SetDepth(1, 1, 0.1)
	px := DepthMerge(dst, src, colorspace.CmpLess, nil)
	if px != 64*64 {
		t.Errorf("transferred %d pixels, want one tile (%d)", px, 64*64)
	}
}

func TestDepthMergeRestrictedTiles(t *testing.T) {
	dst := framebuffer.MustNew(128, 128) // 2×2 tiles
	src := framebuffer.MustNew(128, 128)
	src.Set(1, 1, colorspace.Opaque(1, 0, 0)) // tile 0
	src.SetDepth(1, 1, 0.1)
	src.Set(100, 100, colorspace.Opaque(0, 1, 0)) // tile 3
	src.SetDepth(100, 100, 0.1)
	DepthMerge(dst, src, colorspace.CmpLess, []int{3})
	if dst.At(1, 1) == colorspace.Opaque(1, 0, 0) {
		t.Error("merged tile outside restriction")
	}
	if dst.At(100, 100) != colorspace.Opaque(0, 1, 0) {
		t.Error("restricted tile not merged")
	}
}

// TestDepthMergeOutOfOrder is the opaque-composition property CHOPIN relies
// on (Section III-B): sub-images may be composed in ANY order.
func TestDepthMergeOutOfOrder(t *testing.T) {
	subs := randomSubImages(t, 6, 96, 96, 7)
	ref := DepthReference(subs, colorspace.CmpLess)

	perm := rand.New(rand.NewSource(8)).Perm(len(subs))
	shuffled := make([]*framebuffer.Buffer, len(subs))
	for i, p := range perm {
		shuffled[i] = subs[p]
	}
	got := DepthReference(shuffled, colorspace.CmpLess)
	if !got.Equal(ref, 0) {
		t.Errorf("out-of-order depth composition differs in %d pixels", got.DiffCount(ref, 0))
	}
}

func TestBlendMergeOverSemantics(t *testing.T) {
	back := framebuffer.MustNew(64, 64)
	front := framebuffer.MustNew(64, 64)
	back.Set(2, 2, colorspace.Opaque(1, 1, 1))             // white background layer
	front.Set(2, 2, colorspace.FromStraight(0, 0, 0, 0.5)) // 50% black glass
	BlendMerge(back, front, colorspace.BlendOver, nil)
	want := colorspace.RGBA{R: 0.5, G: 0.5, B: 0.5, A: 1}
	if got := back.At(2, 2); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("blend merge = %+v, want %+v", got, want)
	}
}

// TestChainVsTreeCompose verifies the associativity of transparent
// composition: the sequential chain and CHOPIN's pairwise tree produce the
// same image (up to floating-point rounding).
func TestChainVsTreeCompose(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		layers := randomLayers(n, 48, 48, int64(n))
		chain := ChainCompose(colorspace.BlendOver, layers)
		tree := TreeCompose(colorspace.BlendOver, layers)
		if !chain.Equal(tree, 1e-9) {
			t.Errorf("n=%d: chain and tree compositions differ in %d pixels",
				n, chain.DiffCount(tree, 1e-9))
		}
	}
}

// TestChainOrderMatters documents non-commutativity: reversing the layer
// order changes the image, which is why transparent sub-images may only
// merge with ADJACENT neighbours.
func TestChainOrderMatters(t *testing.T) {
	layers := randomLayers(3, 16, 16, 99)
	fwd := ChainCompose(colorspace.BlendOver, layers)
	rev := ChainCompose(colorspace.BlendOver,
		[]*framebuffer.Buffer{layers[2], layers[1], layers[0]})
	if fwd.Equal(rev, 1e-9) {
		t.Error("expected reversed composition order to differ")
	}
}

func TestComposeEmptyInputs(t *testing.T) {
	if ChainCompose(colorspace.BlendOver, nil) != nil {
		t.Error("ChainCompose(nil) should be nil")
	}
	if TreeCompose(colorspace.BlendOver, nil) != nil {
		t.Error("TreeCompose(nil) should be nil")
	}
	if DepthReference(nil, colorspace.CmpLess) != nil {
		t.Error("DepthReference(nil) should be nil")
	}
}

func TestDirectSendMatchesReference(t *testing.T) {
	subs := randomSubImages(t, 8, 128, 96, 11)
	ref := DepthReference(subs, colorspace.CmpLess)
	got, tr := exchange(t, plan.AlgDirectSend, 0, subs, colorspace.CmpLess)
	if !got.Equal(ref, 0) {
		t.Fatalf("direct-send differs from reference in %d pixels", got.DiffCount(ref, 0))
	}
	if tr.Rounds != 1 {
		t.Errorf("direct-send rounds = %d, want 1", tr.Rounds)
	}
	if tr.Messages == 0 || tr.Bytes == 0 {
		t.Errorf("traffic not accounted: %+v", tr)
	}
	// Direct-send sends at most N·(N−1) messages.
	if tr.Messages > 8*7 {
		t.Errorf("messages = %d, want <= 56", tr.Messages)
	}
}

// TestExchangeDirectSendTraffic pins direct-send's accounting on sparse
// input: only tiles that hold content and belong to another GPU move. On a
// 256×128 screen (4×2 tiles) with 4 GPUs, GPU 0 draws only in tile 1
// (owned by GPU 1) and GPU 2 only in its own tiles 2 and 6, so the whole
// exchange is one 4096-pixel message 0→1.
func TestExchangeDirectSendTraffic(t *testing.T) {
	subs := make([]*framebuffer.Buffer, 4)
	for g := range subs {
		subs[g] = framebuffer.MustNew(256, 128)
		subs[g].ClearDirty()
	}
	draw := func(b *framebuffer.Buffer, x, y int, d float64) {
		b.Set(x, y, colorspace.Opaque(d, 1-d, 0.5))
		b.SetDepth(x, y, d)
	}
	draw(subs[0], 70, 10, 0.3)  // tile 1
	draw(subs[2], 130, 20, 0.4) // tile 2
	draw(subs[2], 140, 90, 0.5) // tile 6
	got, tr := exchange(t, plan.AlgDirectSend, 0, subs, colorspace.CmpLess)
	if want := (Traffic{Messages: 1, Bytes: 4096 * framebuffer.OpaqueCompositionBytesPerPixel, Rounds: 1}); tr != want {
		t.Errorf("traffic = %+v, want %+v", tr, want)
	}
	if ref := DepthReference(subs, colorspace.CmpLess); !got.Equal(ref, 0) {
		t.Errorf("direct-send differs from reference in %d pixels", got.DiffCount(ref, 0))
	}
}

func TestBinarySwapMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		subs := randomSubImages(t, n, 64, 64, int64(20+n))
		ref := DepthReference(subs, colorspace.CmpLess)
		got, tr := exchange(t, plan.AlgBinarySwap, 0, subs, colorspace.CmpLess)
		if !got.Equal(ref, 0) {
			t.Fatalf("n=%d: binary-swap differs in %d pixels", n, got.DiffCount(ref, 0))
		}
		wantRounds := 1 // gather
		for m := 1; m < n; m *= 2 {
			wantRounds++
		}
		if tr.Rounds != wantRounds {
			t.Errorf("n=%d: rounds = %d, want %d", n, tr.Rounds, wantRounds)
		}
	}
}

func TestRadixKMatchesReference(t *testing.T) {
	cases := []struct{ n, k int }{{4, 2}, {8, 2}, {9, 3}, {4, 4}, {8, 8}}
	for _, c := range cases {
		subs := randomSubImages(t, c.n, 64, 64, int64(30+c.n*c.k))
		ref := DepthReference(subs, colorspace.CmpLess)
		got, _ := exchange(t, plan.AlgRadixK, c.k, subs, colorspace.CmpLess)
		if !got.Equal(ref, 0) {
			t.Fatalf("n=%d k=%d: radix-k differs in %d pixels", c.n, c.k, got.DiffCount(ref, 0))
		}
	}
}

// TestRadixKDegenerateCases covers radix-k at its edges: k = n (a prime
// count, one direct-send-shaped round of row regions)
// and a single GPU (no rounds; the image is its own sub-image).
func TestRadixKDegenerateCases(t *testing.T) {
	prime := randomSubImages(t, 7, 32, 32, 43)
	ref := DepthReference(prime, colorspace.CmpLess)
	rk, rkTr := exchange(t, plan.AlgRadixK, 7, prime, colorspace.CmpLess)
	if !rk.Equal(ref, 0) {
		t.Error("radix-k(n=7, k=7) differs from reference")
	}
	if rkTr.Rounds != 2 || rkTr.Messages != 7*6+6 {
		t.Errorf("radix-7 traffic %+v: want one exchange round of 42 sessions plus a 6-message gather", rkTr)
	}

	one := randomSubImages(t, 1, 32, 32, 44)
	got, tr := exchange(t, plan.AlgRadixK, 2, one, colorspace.CmpLess)
	if !got.Equal(one[0], 0) || tr.Messages != 0 {
		t.Errorf("radix-k(n=1): traffic %+v, image equal %v", tr, got.Equal(one[0], 0))
	}
}

// TestExchangeSwapTraffic pins the row-region accounting: every session
// moves its whole region at 8 B/px, and the gather moves each GPU's final
// rows at 4 B/px. At n=8 on 64×64, binary-swap is 3 rounds of 8 sessions
// (7/8 of the screen per GPU in total) plus 7 gather messages.
func TestExchangeSwapTraffic(t *testing.T) {
	subs := randomSubImages(t, 8, 64, 64, 77)
	want := Traffic{Messages: 31, Bytes: 243712, Rounds: 4}
	if _, tr := exchange(t, plan.AlgBinarySwap, 0, subs, colorspace.CmpLess); tr != want {
		t.Errorf("binary-swap traffic = %+v, want %+v", tr, want)
	}
}

func TestRadixKEqualsBinarySwapTraffic(t *testing.T) {
	// radix-2 is binary-swap: same rounds, same messages, same bytes.
	subs := randomSubImages(t, 8, 64, 64, 77)
	_, bs := exchange(t, plan.AlgBinarySwap, 0, subs, colorspace.CmpLess)
	_, rk := exchange(t, plan.AlgRadixK, 2, subs, colorspace.CmpLess)
	if bs != rk {
		t.Errorf("radix-2 should equal binary-swap: %+v vs %+v", rk, bs)
	}
}

func TestScheduleTrafficScaling(t *testing.T) {
	// Binary-swap moves asymptotically less data per GPU than direct-send's
	// naive all-to-all when sub-images are fully dirty.
	subs := randomSubImages(t, 8, 64, 64, 55)
	for _, s := range subs {
		// Make everything dirty so direct-send cannot skip tiles.
		for i := 0; i < s.TileCount(); i++ {
			s.MarkDirty(i)
		}
	}
	_, ds := exchange(t, plan.AlgDirectSend, 0, subs, colorspace.CmpLess)
	_, bs := exchange(t, plan.AlgBinarySwap, 0, subs, colorspace.CmpLess)
	if bs.Bytes >= ds.Bytes {
		t.Errorf("binary-swap bytes (%d) should be below direct-send (%d)", bs.Bytes, ds.Bytes)
	}
}
