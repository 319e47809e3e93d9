package composite

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

// TestEveryCountMatchesReferenceTo64 is the exhaustive scale sweep: for
// every GPU count from 2 through 64, every plan that supports the count
// must reproduce the sequential depth reference pixel-exactly when played
// by Exchange. This is the image-level guarantee the 64-GPU plan executor
// rests on.
func TestEveryCountMatchesReferenceTo64(t *testing.T) {
	const w, h = 48, 37 // off tile boundaries on purpose
	for n := 2; n <= 64; n++ {
		cmp := colorspace.CmpLess
		if n%2 == 1 {
			cmp = colorspace.CmpLessEqual
		}
		subs := randomSubImages(t, n, w, h, int64(9000+n))
		ref := DepthReference(subs, cmp)

		if got, _ := exchange(t, plan.AlgDirectSend, 0, subs, cmp); !got.Equal(ref, 0) {
			t.Errorf("n=%d: direct-send differs from reference", n)
		}
		if n&(n-1) == 0 {
			if got, _ := exchange(t, plan.AlgBinarySwap, 0, subs, cmp); !got.Equal(ref, 0) {
				t.Errorf("n=%d: binary-swap differs from reference", n)
			}
		}
		for _, k := range []int{2, 3, 4, 8} {
			if !isPowerOf(n, k) {
				continue
			}
			if got, _ := exchange(t, plan.AlgRadixK, k, subs, cmp); !got.Equal(ref, 0) {
				t.Errorf("n=%d: radix-%d differs from reference", n, k)
			}
		}
	}
}

// TestScheduleErrorContract pins Exchange's error contract: a plan and
// sub-image set that do not fit together is reported through the error
// return, never a panic or a silently wrong image.
func TestScheduleErrorContract(t *testing.T) {
	subs := randomSubImages(t, 4, 32, 32, 42)
	p, err := plan.BinarySwap(4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Exchange(p, subs[:3], colorspace.CmpLess); err == nil {
		t.Error("3 sub-images for a 4-GPU plan: want error")
	}
	short := append([]*framebuffer.Buffer(nil), subs...)
	short[2] = framebuffer.MustNew(32, 16)
	if _, _, err := Exchange(p, short, colorspace.CmpLess); err == nil {
		t.Error("sub-image height differs from the plan's: want error")
	}
	missing := append([]*framebuffer.Buffer(nil), subs...)
	missing[1] = nil
	if _, _, err := Exchange(p, missing, colorspace.CmpLess); err == nil {
		t.Error("nil sub-image: want error")
	}
}
