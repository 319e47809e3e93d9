package vecmath

import "math"

// Mat4 is a 4×4 matrix stored row-major; vectors are treated as columns, so a
// point p transforms as M.MulVec4(p) and composition reads right-to-left:
// (A.Mul(B)).MulVec4(p) == A.MulVec4(B.MulVec4(p)).
type Mat4 [4][4]float64

// Identity returns the identity matrix.
func Identity() Mat4 {
	return Mat4{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
}

// Mul returns the matrix product m·n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			s := 0.0
			for k := 0; k < 4; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// MulVec4 returns m·v.
func (m *Mat4) MulVec4(v Vec4) Vec4 {
	return Vec4{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z + m[0][3]*v.W,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z + m[1][3]*v.W,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z + m[2][3]*v.W,
		m[3][0]*v.X + m[3][1]*v.Y + m[3][2]*v.Z + m[3][3]*v.W,
	}
}

// MulPoint transforms the 3D point p (w=1) and applies the perspective
// divide.
func (m *Mat4) MulPoint(p Vec3) Vec3 {
	return m.MulVec4(FromVec3(p, 1)).PerspectiveDivide()
}

// MulDir transforms the direction d (w=0), ignoring translation.
func (m *Mat4) MulDir(d Vec3) Vec3 {
	return m.MulVec4(FromVec3(d, 0)).Vec3()
}

// Transpose returns the transpose of m.
func (m Mat4) Transpose() Mat4 {
	var r Mat4
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Translate returns a translation matrix by t.
func Translate(t Vec3) Mat4 {
	m := Identity()
	m[0][3], m[1][3], m[2][3] = t.X, t.Y, t.Z
	return m
}

// ScaleUniform returns a uniform scaling matrix.
func ScaleUniform(s float64) Mat4 { return ScaleXYZ(Vec3{s, s, s}) }

// ScaleXYZ returns a per-axis scaling matrix.
func ScaleXYZ(s Vec3) Mat4 {
	m := Identity()
	m[0][0], m[1][1], m[2][2] = s.X, s.Y, s.Z
	return m
}

// RotateX returns a rotation about the X axis by angle radians.
func RotateX(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		{1, 0, 0, 0},
		{0, c, -s, 0},
		{0, s, c, 0},
		{0, 0, 0, 1},
	}
}

// RotateY returns a rotation about the Y axis by angle radians.
func RotateY(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		{c, 0, s, 0},
		{0, 1, 0, 0},
		{-s, 0, c, 0},
		{0, 0, 0, 1},
	}
}

// RotateZ returns a rotation about the Z axis by angle radians.
func RotateZ(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		{c, -s, 0, 0},
		{s, c, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
}

// LookAt returns a right-handed view matrix with the camera at eye looking at
// center, with the given approximate up direction.
func LookAt(eye, center, up Vec3) Mat4 {
	f := center.Sub(eye).Normalize()
	s := f.Cross(up.Normalize()).Normalize()
	u := s.Cross(f)
	m := Mat4{
		{s.X, s.Y, s.Z, -s.Dot(eye)},
		{u.X, u.Y, u.Z, -u.Dot(eye)},
		{-f.X, -f.Y, -f.Z, f.Dot(eye)},
		{0, 0, 0, 1},
	}
	return m
}

// Perspective returns a right-handed perspective projection with the given
// vertical field of view (radians), aspect ratio (width/height), and near/far
// clip distances. Depth maps to [0, 1] (DirectX convention), matching the
// depth-buffer range used throughout the pipeline.
func Perspective(fovY, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovY/2)
	return Mat4{
		{f / aspect, 0, 0, 0},
		{0, f, 0, 0},
		{0, 0, far / (near - far), near * far / (near - far)},
		{0, 0, -1, 0},
	}
}

// Orthographic returns a right-handed orthographic projection mapping the box
// [l,r]×[b,t]×[near,far] to NDC with depth in [0,1].
func Orthographic(l, r, b, t, near, far float64) Mat4 {
	return Mat4{
		{2 / (r - l), 0, 0, -(r + l) / (r - l)},
		{0, 2 / (t - b), 0, -(t + b) / (t - b)},
		{0, 0, 1 / (near - far), near / (near - far)},
		{0, 0, 0, 1},
	}
}

// Viewport maps NDC coordinates ([-1,1]² with depth [0,1]) to pixel
// coordinates for a width×height screen. Y is flipped so that pixel (0,0) is
// the top-left corner, matching framebuffer addressing.
func Viewport(width, height int) Mat4 {
	w, h := float64(width), float64(height)
	return Mat4{
		{w / 2, 0, 0, w / 2},
		{0, -h / 2, 0, h / 2},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	}
}
