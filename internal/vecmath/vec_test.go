package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func close(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func vec3Close(a, b Vec3) bool { return close(a.X, b.X) && close(a.Y, b.Y) && close(a.Z, b.Z) }

func vec4Close(a, b Vec4) bool {
	return close(a.X, b.X) && close(a.Y, b.Y) && close(a.Z, b.Z) && close(a.W, b.W)
}

func TestVec2Basics(t *testing.T) {
	a := Vec2{1, 2}
	b := Vec2{3, -4}
	if got := a.Add(b); got != (Vec2{4, -2}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 6}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != -5 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != -10 {
		t.Errorf("Cross = %v", got)
	}
	if got := (Vec2{3, 4}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestVec2CrossAntisymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e6)
		}
		a, b := Vec2{clamp(ax), clamp(ay)}, Vec2{clamp(bx), clamp(by)}
		return a.Cross(b) == -b.Cross(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3Basics(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Vec3{4, 10, 18}) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Cross(b); got != (Vec3{-3, 6, -3}) {
		t.Errorf("Cross = %v", got)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Bound inputs so products stay finite.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		// c ⟂ a and c ⟂ b, allowing numeric slop scaled to magnitudes.
		tol := 1e-9 * (1 + a.Len()*b.Len()) * (1 + a.Len() + b.Len())
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3Normalize(t *testing.T) {
	v := Vec3{3, 4, 12}.Normalize()
	if !close(v.Len(), 1) {
		t.Errorf("normalized length = %v", v.Len())
	}
	zero := Vec3{}
	if zero.Normalize() != zero {
		t.Error("normalizing zero vector should return zero")
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := Vec3{0, 0, 0}, Vec3{2, 4, 6}
	if got := a.Lerp(b, 0.5); !vec3Close(got, Vec3{1, 2, 3}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
	if got := a.Lerp(b, 0); !vec3Close(got, a) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !vec3Close(got, b) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestVec4PerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	if got := v.PerspectiveDivide(); !vec3Close(got, Vec3{1, 2, 3}) {
		t.Errorf("PerspectiveDivide = %v", got)
	}
}

func TestVec4Lerp(t *testing.T) {
	a, b := Vec4{0, 0, 0, 1}, Vec4{4, 8, 12, 3}
	got := a.Lerp(b, 0.25)
	if !vec4Close(got, Vec4{1, 2, 3, 1.5}) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestMat4Identity(t *testing.T) {
	v := Vec4{1, 2, 3, 4}
	id := Identity()
	if got := id.MulVec4(v); got != v {
		t.Errorf("I·v = %v", got)
	}
}

func TestMat4MulAssociative(t *testing.T) {
	a := Translate(Vec3{1, 2, 3})
	b := RotateY(0.7)
	c := ScaleUniform(2)
	v := Vec4{1, -1, 2, 1}
	abc := a.Mul(b).Mul(c)
	left := abc.MulVec4(v)
	right := a.MulVec4(b.MulVec4(c.MulVec4(v)))
	if !vec4Close(left, right) {
		t.Errorf("associativity broken: %v vs %v", left, right)
	}
}

func TestMat4Transpose(t *testing.T) {
	m := Translate(Vec3{1, 2, 3})
	tt := m.Transpose().Transpose()
	if tt != m {
		t.Error("double transpose should be identity operation")
	}
}

func TestTranslate(t *testing.T) {
	m := Translate(Vec3{1, 2, 3})
	if got := m.MulPoint(Vec3{0, 0, 0}); !vec3Close(got, Vec3{1, 2, 3}) {
		t.Errorf("translate origin = %v", got)
	}
	// Directions are unaffected by translation.
	if got := m.MulDir(Vec3{1, 0, 0}); !vec3Close(got, Vec3{1, 0, 0}) {
		t.Errorf("translate dir = %v", got)
	}
}

func TestRotations(t *testing.T) {
	rz, rx, ry := RotateZ(math.Pi/2), RotateX(math.Pi/2), RotateY(math.Pi/2)
	if got := rz.MulPoint(Vec3{1, 0, 0}); !vec3Close(got, Vec3{0, 1, 0}) {
		t.Errorf("RotateZ(90°)·x̂ = %v", got)
	}
	if got := rx.MulPoint(Vec3{0, 1, 0}); !vec3Close(got, Vec3{0, 0, 1}) {
		t.Errorf("RotateX(90°)·ŷ = %v", got)
	}
	if got := ry.MulPoint(Vec3{0, 0, 1}); !vec3Close(got, Vec3{1, 0, 0}) {
		t.Errorf("RotateY(90°)·ẑ = %v", got)
	}
}

func TestRotationPreservesLength(t *testing.T) {
	f := func(angle, x, y, z float64) bool {
		angle = math.Mod(angle, 2*math.Pi)
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 100)
		}
		v := Vec3{clamp(x), clamp(y), clamp(z)}
		rot := RotateY(angle)
		r := rot.MulDir(v)
		return math.Abs(r.Len()-v.Len()) < 1e-9*(1+v.Len())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookAt(t *testing.T) {
	// Camera at origin looking down -Z: view transform should be identity on
	// a point in front of the camera.
	m := LookAt(Vec3{0, 0, 0}, Vec3{0, 0, -1}, Vec3{0, 1, 0})
	p := m.MulPoint(Vec3{0, 0, -5})
	if !vec3Close(p, Vec3{0, 0, -5}) {
		t.Errorf("LookAt identity case = %v", p)
	}
	// Camera at (0,0,10) looking at origin: the origin should land 10 units
	// in front (z = -10 in view space).
	m = LookAt(Vec3{0, 0, 10}, Vec3{0, 0, 0}, Vec3{0, 1, 0})
	p = m.MulPoint(Vec3{0, 0, 0})
	if !vec3Close(p, Vec3{0, 0, -10}) {
		t.Errorf("LookAt view pos = %v", p)
	}
}

func TestPerspectiveDepthRange(t *testing.T) {
	near, far := 1.0, 100.0
	proj := Perspective(math.Pi/2, 1, near, far)
	// A point on the near plane maps to depth 0; far plane to depth 1.
	pNear := proj.MulVec4(Vec4{0, 0, -near, 1}).PerspectiveDivide()
	pFar := proj.MulVec4(Vec4{0, 0, -far, 1}).PerspectiveDivide()
	if !close(pNear.Z, 0) {
		t.Errorf("near-plane depth = %v, want 0", pNear.Z)
	}
	if !close(pFar.Z, 1) {
		t.Errorf("far-plane depth = %v, want 1", pFar.Z)
	}
}

func TestPerspectiveDepthMonotonic(t *testing.T) {
	proj := Perspective(math.Pi/3, 16.0/9.0, 0.5, 200)
	prev := -1.0
	for z := 0.5; z <= 200; z *= 1.5 {
		d := proj.MulVec4(Vec4{0, 0, -z, 1}).PerspectiveDivide().Z
		if d < prev {
			t.Fatalf("depth not monotonic at z=%v: %v < %v", z, d, prev)
		}
		prev = d
	}
}

func TestOrthographic(t *testing.T) {
	proj := Orthographic(-2, 2, -1, 1, 1, 10)
	p := proj.MulPoint(Vec3{2, 1, -1})
	if !vec3Close(p, Vec3{1, 1, 0}) {
		t.Errorf("ortho corner = %v", p)
	}
	p = proj.MulPoint(Vec3{-2, -1, -10})
	if !vec3Close(p, Vec3{-1, -1, 1}) {
		t.Errorf("ortho far corner = %v", p)
	}
}

func TestViewport(t *testing.T) {
	vp := Viewport(640, 480)
	// NDC (-1, 1) is the top-left corner → pixel (0, 0).
	p := vp.MulPoint(Vec3{-1, 1, 0.5})
	if !vec3Close(p, Vec3{0, 0, 0.5}) {
		t.Errorf("viewport top-left = %v", p)
	}
	// NDC (1, -1) is the bottom-right corner → pixel (640, 480).
	p = vp.MulPoint(Vec3{1, -1, 0.5})
	if !vec3Close(p, Vec3{640, 480, 0.5}) {
		t.Errorf("viewport bottom-right = %v", p)
	}
	// Center maps to center, depth passes through.
	p = vp.MulPoint(Vec3{0, 0, 0.25})
	if !vec3Close(p, Vec3{320, 240, 0.25}) {
		t.Errorf("viewport center = %v", p)
	}
}
