package colorspace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randColor(r *rand.Rand) RGBA {
	a := r.Float64()
	return FromStraight(r.Float64(), r.Float64(), r.Float64(), a)
}

func TestFromStraightPremultiplies(t *testing.T) {
	c := FromStraight(1, 0.5, 0.25, 0.5)
	want := RGBA{0.5, 0.25, 0.125, 0.5}
	if !c.ApproxEqual(want, 1e-12) {
		t.Errorf("FromStraight = %+v, want %+v", c, want)
	}
}

func TestOverIdentity(t *testing.T) {
	// Transparent is the identity of Over on both sides.
	c := FromStraight(0.3, 0.6, 0.9, 0.7)
	if got := Transparent.Over(c); !got.ApproxEqual(c, 0) {
		t.Errorf("transparent over c = %+v", got)
	}
	if got := c.Over(Transparent); !got.ApproxEqual(c, 0) {
		t.Errorf("c over transparent = %+v", got)
	}
}

func TestOverOpaqueWins(t *testing.T) {
	front := Opaque(0.1, 0.2, 0.3)
	back := Opaque(0.9, 0.8, 0.7)
	if got := front.Over(back); !got.ApproxEqual(front, 0) {
		t.Errorf("opaque front should fully hide back, got %+v", got)
	}
}

func TestOverKnownValue(t *testing.T) {
	// 50% white over opaque black = mid grey.
	front := FromStraight(1, 1, 1, 0.5)
	back := Opaque(0, 0, 0)
	got := front.Over(back)
	want := RGBA{0.5, 0.5, 0.5, 1}
	if !got.ApproxEqual(want, 1e-12) {
		t.Errorf("50%% white over black = %+v, want %+v", got, want)
	}
}

// TestOverAssociative is the property CHOPIN's transparent composition
// depends on (Section II-D): over is associative, so adjacent sub-images may
// be composed in any grouping that preserves order.
func TestOverAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := randColor(r), randColor(r), randColor(r)
		left := a.Over(b).Over(c)
		right := a.Over(b.Over(c))
		if !left.ApproxEqual(right, 1e-12) {
			t.Fatalf("over not associative: (a∘b)∘c=%+v a∘(b∘c)=%+v", left, right)
		}
	}
}

// TestOverNotCommutative documents why composition order matters for
// transparency: over is associative but NOT commutative.
func TestOverNotCommutative(t *testing.T) {
	a := FromStraight(1, 0, 0, 0.5)
	b := FromStraight(0, 0, 1, 0.5)
	ab := a.Over(b)
	ba := b.Over(a)
	if ab.ApproxEqual(ba, 1e-12) {
		t.Error("expected a over b != b over a for these colours")
	}
}

func TestAddAssociativeWhenUnsaturated(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		// Keep sums below 1 so saturation (which breaks associativity at the
		// clamp boundary) does not kick in.
		a := randColor(r).Scale(0.3)
		b := randColor(r).Scale(0.3)
		c := randColor(r).Scale(0.3)
		left := a.Add(b).Add(c)
		right := a.Add(b.Add(c))
		if !left.ApproxEqual(right, 1e-12) {
			t.Fatalf("add not associative: %+v vs %+v", left, right)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b, c := randColor(r), randColor(r), randColor(r)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.ApproxEqual(right, 1e-12) {
			t.Fatalf("mul not associative: %+v vs %+v", left, right)
		}
	}
}

// TestMixedOperatorsNotAssociative documents the paper's Event 5: regrouping
// across *different* blend operators is not valid, which is why a change of
// operator forces a composition-group boundary.
func TestMixedOperatorsNotAssociative(t *testing.T) {
	a := FromStraight(0.8, 0.1, 0.1, 0.5)
	b := FromStraight(0.1, 0.8, 0.1, 0.5)
	c := FromStraight(0.1, 0.1, 0.8, 0.5)
	// (a over b) add c vs a over (b add c)
	left := Blend(BlendAdd, a.Over(b), c)
	right := a.Over(Blend(BlendAdd, b, c))
	if left.ApproxEqual(right, 1e-9) {
		t.Error("expected mixed over/add to be non-associative for these colours")
	}
}

func TestBlendDispatch(t *testing.T) {
	src := FromStraight(0.2, 0.4, 0.6, 0.5)
	dst := Opaque(1, 1, 1)
	if got := Blend(BlendNone, src, dst); !got.ApproxEqual(src, 0) {
		t.Errorf("BlendNone = %+v, want src", got)
	}
	if got := Blend(BlendOver, src, dst); !got.ApproxEqual(src.Over(dst), 0) {
		t.Errorf("BlendOver mismatch: %+v", got)
	}
	if got := Blend(BlendAdd, src, dst); !got.ApproxEqual(src.Add(dst), 0) {
		t.Errorf("BlendAdd mismatch: %+v", got)
	}
	if got := Blend(BlendMul, src, dst); !got.ApproxEqual(src.Mul(dst), 0) {
		t.Errorf("BlendMul mismatch: %+v", got)
	}
}

func TestBlendOpMetadata(t *testing.T) {
	for _, op := range []BlendOp{BlendNone, BlendOver, BlendAdd, BlendMul} {
		if op.String() == "unknown" {
			t.Errorf("op %d has no name", op)
		}
	}
}

func TestRGBA8Quantization(t *testing.T) {
	r, g, b, a := Opaque(1, 0, 0.5).RGBA8()
	if r != 255 || g != 0 || b != 128 || a != 255 {
		t.Errorf("RGBA8 = %d %d %d %d", r, g, b, a)
	}
	// Out-of-range values clamp.
	r, _, _, _ = RGBA{R: 2, A: 1}.RGBA8()
	if r != 255 {
		t.Errorf("clamped R = %d", r)
	}
	r, _, _, _ = RGBA{R: -1, A: 1}.RGBA8()
	if r != 0 {
		t.Errorf("clamped negative R = %d", r)
	}
}

func TestCompareFuncs(t *testing.T) {
	cases := []struct {
		f        CompareFunc
		in, st   float64
		wantPass bool
	}{
		{CmpLess, 0.3, 0.5, true},
		{CmpLess, 0.5, 0.5, false},
		{CmpLessEqual, 0.5, 0.5, true},
		{CmpGreater, 0.6, 0.5, true},
		{CmpGreater, 0.5, 0.5, false},
		{CmpGreaterEqual, 0.5, 0.5, true},
		{CmpEqual, 0.5, 0.5, true},
		{CmpEqual, 0.4, 0.5, false},
		{CmpNotEqual, 0.4, 0.5, true},
		{CmpAlways, 9, -9, true},
		{CmpNever, -9, 9, false},
	}
	for _, c := range cases {
		if got := Compare(c.f, c.in, c.st); got != c.wantPass {
			t.Errorf("Compare(%v, %v, %v) = %v, want %v", c.f, c.in, c.st, got, c.wantPass)
		}
	}
}

func TestCompareLessGreaterDual(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		// less(a,b) == greater(b,a)
		return Compare(CmpLess, a, b) == Compare(CmpGreater, b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareFuncNames(t *testing.T) {
	funcs := []CompareFunc{CmpLess, CmpLessEqual, CmpGreater, CmpGreaterEqual,
		CmpEqual, CmpNotEqual, CmpAlways, CmpNever}
	seen := map[string]bool{}
	for _, f := range funcs {
		name := f.String()
		if name == "unknown" || seen[name] {
			t.Errorf("bad or duplicate name %q for %d", name, f)
		}
		seen[name] = true
	}
}
