package shade

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/primitive"
	"chopin/internal/vecmath"
)

func TestTransformVertex(t *testing.T) {
	v := primitive.Vertex{
		Position: vecmath.Vec3{X: 1, Y: 2, Z: 3},
		Color:    colorspace.Opaque(1, 0, 0),
	}
	mvp := vecmath.Translate(vecmath.Vec3{X: 10})
	var out VertexOut
	TransformVertex(&out, &v, &mvp)
	if out.ClipPos.X != 11 || out.ClipPos.Y != 2 || out.ClipPos.Z != 3 || out.ClipPos.W != 1 {
		t.Errorf("ClipPos = %+v", out.ClipPos)
	}
	if out.Color != v.Color {
		t.Error("colour not passed through")
	}
}
