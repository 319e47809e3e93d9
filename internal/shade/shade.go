// Package shade models the programmable vertex stage of the pipeline: the
// vertex shader that projects object-space vertices to clip space.
//
// The shader is an ordinary Go function. The rasterizer's per-draw setup
// invokes it once per vertex, at the point a real GPU's SMs would, and the
// timing model charges per-invocation cycle costs scaled by each draw
// command's VertexCost factor. Fragments keep their interpolated colour:
// the pixel stage is the fixed-function texture modulate in package raster,
// charged by each draw's PixelCost factor.
package shade

import (
	"chopin/internal/colorspace"
	"chopin/internal/primitive"
	"chopin/internal/vecmath"
)

// VertexOut is the vertex-shader output consumed by primitive assembly:
// a clip-space position plus the interpolated attributes.
type VertexOut struct {
	// ClipPos is the homogeneous clip-space position (before perspective
	// divide).
	ClipPos vecmath.Vec4
	// Color is the premultiplied vertex colour.
	Color colorspace.RGBA
	// UV is the texture coordinate, passed through to interpolation.
	UV vecmath.Vec2
}

// TransformVertex is the vertex shader: it writes v's position through the
// MVP matrix, and its colour and texture coordinate unchanged, to out. All
// three are pointers so the per-vertex call copies no vertex or matrix.
func TransformVertex(out *VertexOut, v *primitive.Vertex, mvp *vecmath.Mat4) {
	out.ClipPos = mvp.MulVec4(vecmath.FromVec3(v.Position, 1))
	out.Color = v.Color
	out.UV = v.UV
}
