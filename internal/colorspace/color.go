// Package colorspace defines the pixel value type and the per-pixel
// operators the rendering pipeline and image composition are built on:
// premultiplied-alpha RGBA colours, the Porter–Duff "over" operator and the
// other blending operators the paper discusses (Section II-D), and the
// depth/stencil comparison functions.
//
// Colours are premultiplied: the R, G and B channels already include the
// alpha factor. Premultiplication is what makes "over" associative
// (f1∘f2∘f3∘f4 = (f1∘f2)∘(f3∘f4)), the property CHOPIN exploits to compose
// adjacent transparent sub-images asynchronously.
package colorspace

// RGBA is a premultiplied-alpha colour with channels in [0, 1].
type RGBA struct {
	R, G, B, A float64
}

// FromStraight converts a straight (non-premultiplied) colour to
// premultiplied form.
func FromStraight(r, g, b, a float64) RGBA {
	return RGBA{R: r * a, G: g * a, B: b * a, A: a}
}

// Opaque returns a fully opaque premultiplied colour.
func Opaque(r, g, b float64) RGBA { return RGBA{R: r, G: g, B: b, A: 1} }

// Transparent is the fully transparent pixel, the identity element of Over.
var Transparent = RGBA{}

// Over composes c over dst using the Porter–Duff over operator on
// premultiplied colours: result = c + (1-c.A)·dst. c is in front.
func (c RGBA) Over(dst RGBA) RGBA {
	k := 1 - c.A
	return RGBA{
		R: c.R + k*dst.R,
		G: c.G + k*dst.G,
		B: c.B + k*dst.B,
		A: c.A + k*dst.A,
	}
}

// Add returns the saturating additive blend of c and dst.
func (c RGBA) Add(dst RGBA) RGBA {
	return RGBA{
		R: clamp01(c.R + dst.R),
		G: clamp01(c.G + dst.G),
		B: clamp01(c.B + dst.B),
		A: clamp01(c.A + dst.A),
	}
}

// Mul returns the multiplicative (modulate) blend of c and dst.
func (c RGBA) Mul(dst RGBA) RGBA {
	return RGBA{R: c.R * dst.R, G: c.G * dst.G, B: c.B * dst.B, A: c.A * dst.A}
}

// Scale returns c with every channel scaled by s.
func (c RGBA) Scale(s float64) RGBA {
	return RGBA{R: c.R * s, G: c.G * s, B: c.B * s, A: c.A * s}
}

// ApproxEqual reports whether c and d differ by at most eps in every channel.
// It is the comparison used by tests that check the associativity of blending
// chains, where floating-point rounding may differ by a few ulps between
// groupings.
func (c RGBA) ApproxEqual(d RGBA, eps float64) bool {
	return abs(c.R-d.R) <= eps && abs(c.G-d.G) <= eps &&
		abs(c.B-d.B) <= eps && abs(c.A-d.A) <= eps
}

// RGBA8 returns the 8-bit quantization of c (premultiplied channels).
func (c RGBA) RGBA8() (r, g, b, a uint8) {
	q := func(v float64) uint8 {
		v = clamp01(v)
		return uint8(v*255 + 0.5)
	}
	return q(c.R), q(c.G), q(c.B), q(c.A)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BlendOp identifies a pixel blending operator. Draw commands carry a
// BlendOp in their render state; a change of operator forces a
// composition-group boundary (Section IV-A, Event 5) because associativity
// does not hold across different operators.
type BlendOp uint8

const (
	// BlendNone overwrites the destination (opaque rendering).
	BlendNone BlendOp = iota
	// BlendOver is the Porter–Duff over operator on premultiplied colours.
	BlendOver
	// BlendAdd is saturating additive blending.
	BlendAdd
	// BlendMul is multiplicative (modulate) blending.
	BlendMul
)

// String returns the operator's name.
func (op BlendOp) String() string {
	switch op {
	case BlendNone:
		return "none"
	case BlendOver:
		return "over"
	case BlendAdd:
		return "add"
	case BlendMul:
		return "mul"
	default:
		return "unknown"
	}
}

// Blend applies op with src in front of (or combined into) dst.
// For BlendNone the source simply replaces the destination.
func Blend(op BlendOp, src, dst RGBA) RGBA {
	switch op {
	case BlendOver:
		return src.Over(dst)
	case BlendAdd:
		return src.Add(dst)
	case BlendMul:
		return src.Mul(dst)
	default:
		return src
	}
}

// CompareFunc is a depth/stencil comparison function, as set by the
// fragment-occlusion-test render state. A change of CompareFunc forces a
// composition-group boundary (Section IV-A, Event 4).
type CompareFunc uint8

const (
	// CmpLess passes when the incoming value is strictly smaller.
	CmpLess CompareFunc = iota
	// CmpLessEqual passes when the incoming value is smaller or equal.
	CmpLessEqual
	// CmpGreater passes when the incoming value is strictly greater.
	CmpGreater
	// CmpGreaterEqual passes when the incoming value is greater or equal.
	CmpGreaterEqual
	// CmpEqual passes on exact equality.
	CmpEqual
	// CmpNotEqual passes on inequality.
	CmpNotEqual
	// CmpAlways always passes.
	CmpAlways
	// CmpNever never passes.
	CmpNever
)

// String returns the comparison's name.
func (f CompareFunc) String() string {
	switch f {
	case CmpLess:
		return "less"
	case CmpLessEqual:
		return "lequal"
	case CmpGreater:
		return "greater"
	case CmpGreaterEqual:
		return "gequal"
	case CmpEqual:
		return "equal"
	case CmpNotEqual:
		return "notequal"
	case CmpAlways:
		return "always"
	case CmpNever:
		return "never"
	default:
		return "unknown"
	}
}

// Compare applies f to an incoming value and the stored value, returning
// whether the incoming fragment passes.
func Compare(f CompareFunc, incoming, stored float64) bool {
	switch f {
	case CmpLess:
		return incoming < stored
	case CmpLessEqual:
		return incoming <= stored
	case CmpGreater:
		return incoming > stored
	case CmpGreaterEqual:
		return incoming >= stored
	case CmpEqual:
		return incoming == stored
	case CmpNotEqual:
		return incoming != stored
	case CmpAlways:
		return true
	case CmpNever:
		return false
	default:
		return false
	}
}
