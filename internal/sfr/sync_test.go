package sfr

import (
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/primitive"
	"chopin/internal/vecmath"
)

// rectDraw returns a draw into render target rt covering [x0,x1)×[y0,y1)
// at object depth z with the given triangles of a two-triangle quad (1
// or 2), so a test controls which composition groups reach the threshold.
func rectDraw(rt, tris int, z, x0, y0, x1, y1 float64) primitive.DrawCommand {
	c := colorspace.Opaque(0.2*float64(rt+1), 0.5, 1/z)
	v := func(x, y float64) primitive.Vertex {
		return primitive.Vertex{Position: vecmath.Vec3{X: x, Y: y, Z: -z}, Color: c}
	}
	quad := []primitive.Triangle{
		{V: [3]primitive.Vertex{v(x0, y0), v(x1, y0), v(x1, y1)}},
		{V: [3]primitive.Vertex{v(x0, y0), v(x1, y1), v(x0, y1)}},
	}
	d := primitive.DrawCommand{Tris: quad[:tris], Model: vecmath.Identity(), State: primitive.DefaultState()}
	d.State.RenderTarget = rt
	d.State.DepthBuffer = rt
	return d
}

// noDepthWrite turns off d's depth writes, which starts a new composition
// group.
func noDepthWrite(d primitive.DrawCommand) primitive.DrawCommand {
	d.State.DepthWrite = false
	return d
}

// TestCHOPINSyncSendsOnlyUnsyncedTiles pins CHOPIN's consistency sync as a
// delta broadcast. On a 256×128 screen (4×2 tiles, GPU g owns tiles g and
// g+4) the frame is: a full-screen opaque group on rt0, a one-triangle pass
// on rt1 inside tile 0, a revisit of rt0, and rt1 again. Its three syncs
// send rt0's 8 tiles, rt1's tile 0, and then only the tiles the revisit
// wrote since rt0's first sync: none when it writes nothing on screen, and
// tiles 1 and 2 (owned by GPUs 1 and 2) when two opaque groups cover one
// each, so tile 1 must outlive the second group's dirty reset. Each owner
// sends its tiles to each of its 3 peers, after which every GPU holds the
// composed rt0.
func TestCHOPINSyncSendsOnlyUnsyncedTiles(t *testing.T) {
	const w, h, n = 256, 128, 4
	const tilePx = framebuffer.TileSize * framebuffer.TileSize
	const peerBytes = (n - 1) * framebuffer.OpaqueCompositionBytesPerPixel
	for _, c := range []struct {
		name    string
		revisit []primitive.DrawCommand
		// tiles is the revisit's written tiles and senders their owners.
		tiles, senders int
	}{
		{"no writes", []primitive.DrawCommand{rectDraw(0, 2, 3, w+10, 0, w+50, 40)}, 0, 0},
		{"two tiles", []primitive.DrawCommand{
			rectDraw(0, 2, 3, 70, 10, 120, 50),
			noDepthWrite(rectDraw(0, 2, 3, 140, 10, 180, 50)),
		}, 2, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			draws := []primitive.DrawCommand{
				rectDraw(0, 2, 5, 0, 0, w, h),
				rectDraw(1, 1, 5, 4, 4, 20, 20),
			}
			draws = append(draws, c.revisit...)
			draws = append(draws, rectDraw(1, 2, 4, 0, 0, 30, 30))
			fr := &primitive.Frame{
				Draws: draws,
				View:  vecmath.Identity(),
				Proj:  vecmath.Orthographic(0, w, h, 0, 1, 10),
				Width: w, Height: h,
			}
			for i := range fr.Draws {
				fr.Draws[i].ID = i
			}
			cfg := testConfig(n)
			cfg.GroupThreshold = 2 // quads are accelerated, the rt1 triangle is not
			sys, st := runScheme(t, CHOPIN{}, cfg, fr)

			// Syncs: rt0 after the first group (every tile, from all 4
			// owners), rt1 after its pass (tile 0, from GPU 0), then rt0
			// after the revisit.
			wantTiles := 8 + 1 + c.tiles
			if want := int64(wantTiles * tilePx * peerBytes); st.SyncBytes != want {
				t.Errorf("sync bytes = %d (%d tiles to each peer), want %d (%d tiles)",
					st.SyncBytes, st.SyncBytes/(tilePx*peerBytes), want, wantTiles)
			}
			wantMsgs := int64((n + 1 + c.senders) * (n - 1))
			if got := sys.Fabric.Stats().Messages[interconnect.ClassSync]; got != wantMsgs {
				t.Errorf("sync transfers = %d, want %d", got, wantMsgs)
			}
			img := sys.AssembleImage(0)
			for g, gp := range sys.GPUs {
				if !gp.Target(0).Equal(img, 0) {
					t.Errorf("GPU %d's rt0 differs from the composed image in %d pixels",
						g, gp.Target(0).DiffCount(img, 0))
				}
			}
		})
	}
}
