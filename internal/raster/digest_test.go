package raster

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"chopin/internal/framebuffer"
	"chopin/internal/primitive"
	"chopin/internal/trace"
)

var updateDigest = flag.Bool("update-digest", false, "re-record testdata/draw_digest.txt")

// digestScale, digestGPUs and digestGPU fix the corpus: every draw of each
// benchmark at this scale, unmasked and with digestGPU's ownership mask
// under round-robin interleaving across digestGPUs. The corpus also replays
// every cod2 draw at full scale under GPU wideGPU's mask across wideGPUs,
// the sparse 64-GPU ownership of the full-scale frame, and replays cod2's
// draws as every GPU's share of a digestGPUs-GPU sort-first (GPUpd, pieces
// of gpupdBatch-triangle batches) and sort-middle (whole draws) exchange.
const (
	digestScale = 0.05
	digestGPUs  = 8
	digestGPU   = 3
	wideGPUs    = 64
	wideGPU     = 37
	gpupdBatch  = 192
)

var digestBenches = []string{"cod2", "wolf"}

// digestWriter feeds fixed-width little-endian words into a hash.
type digestWriter struct {
	h   hash.Hash64
	buf [8]byte
}

func (w *digestWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// ownerMask returns gpu's tile-ownership mask for fr's screen under
// round-robin interleaving across gpus.
func ownerMask(fr *primitive.Frame, gpu, gpus int) []bool {
	ts := framebuffer.TileSize
	own := make([]bool, ((fr.Width+ts-1)/ts)*((fr.Height+ts-1)/ts))
	for tl := range own {
		own[tl] = framebuffer.OwnerOf(tl, gpus) == gpu
	}
	return own
}

// drawDigest replays every draw of the benchmark's frame through one
// Renderer, restricted to own (nil owns every tile), and returns a line
// naming the run (bench and mode), its draw and fragment totals, a hash of
// every draw's DrawResult counters, and a hash of every
// render target's final colour and depth in row-major order.
func drawDigest(t *testing.T, bench, mode string, fr *primitive.Frame, own []bool) string {
	t.Helper()
	targets := map[int]*framebuffer.Buffer{}
	for _, d := range fr.Draws {
		if targets[d.State.RenderTarget] == nil {
			targets[d.State.RenderTarget] = framebuffer.MustNew(fr.Width, fr.Height)
		}
	}
	rend := New(targets[fr.Draws[0].State.RenderTarget], DefaultConfig())
	rend.SetTextures(fr.Textures)
	if err := rend.SetOwnership(own); err != nil {
		t.Fatal(err)
	}

	draws := &digestWriter{h: fnv.New64a()}
	frags := 0
	for _, d := range fr.Draws {
		if err := rend.SetTarget(targets[d.State.RenderTarget]); err != nil {
			t.Fatal(err)
		}
		r := rend.Draw(d, fr.View, fr.Proj)
		frags += r.FragsGenerated
		draws.result(&r)
	}

	pixels := &digestWriter{h: fnv.New64a()}
	pixels.targets(targets)

	return fmt.Sprintf("%s %s draws=%d frags=%d results=%016x targets=%016x",
		bench, mode, len(fr.Draws), frags, draws.h.Sum64(), pixels.h.Sum64())
}

// result feeds every counter of r.
func (w *digestWriter) result(r *DrawResult) {
	for _, v := range []int{
		r.VerticesShaded, r.TrianglesIn, r.TrianglesRasterized,
		r.FragsGenerated, r.FragsEarlyTested, r.FragsEarlyPassed,
		r.FragsShaded, r.FragsLateTested, r.FragsLatePassed,
		r.FragsWritten, r.FragsRetained, r.TexSamples,
	} {
		w.u64(uint64(v))
	}
}

// targets feeds every render target's id and then its colour and depth in
// row-major order, in ascending target order.
func (w *digestWriter) targets(targets map[int]*framebuffer.Buffer) {
	rts := make([]int, 0, len(targets))
	for rt := range targets {
		rts = append(rts, rt)
	}
	sort.Ints(rts)
	for _, rt := range rts {
		fb := targets[rt]
		w.u64(uint64(rt))
		for y := 0; y < fb.Height(); y++ {
			for x := 0; x < fb.Width(); x++ {
				c := fb.At(x, y)
				w.f64(c.R)
				w.f64(c.G)
				w.f64(c.B)
				w.f64(c.A)
				w.f64(fb.DepthAt(x, y))
			}
		}
	}
}

// piece is the triangle range [lo, hi) of draw draw.
type piece struct{ draw, lo, hi int }

// batchPieces slices draws into the pieces of GPUpd's primitive batches: a
// batch holds size triangles and may span draws, so a piece is one draw's
// share of one batch.
func batchPieces(draws []primitive.DrawCommand, size int) []piece {
	var out []piece
	room := size
	for di := range draws {
		n := len(draws[di].Tris)
		for lo := 0; lo < n; {
			take := min(n-lo, room)
			out = append(out, piece{di, lo, lo + take})
			lo += take
			if room -= take; room == 0 {
				room = size
			}
		}
	}
	return out
}

// wholeDraws returns one piece per draw: sort-middle's unit of exchange.
func wholeDraws(draws []primitive.DrawCommand) []piece {
	out := make([]piece, len(draws))
	for di := range draws {
		out[di] = piece{di, 0, len(draws[di].Tris)}
	}
	return out
}

// destMasks returns, for every triangle of d, the bitmask of the GPUs whose
// round-robin tiles its projected bounding box overlaps across gpus GPUs:
// the GPUs sort-first and sort-middle rendering send it to.
func destMasks(fr *primitive.Frame, d *primitive.DrawCommand, gpus int) []uint64 {
	mvp := fr.Proj.Mul(fr.View).Mul(d.Model)
	masks := make([]uint64, len(d.Tris))
	for i := range d.Tris {
		rect, ok := CoveredTiles(&d.Tris[i], &mvp, fr.Width, fr.Height)
		if !ok {
			continue
		}
		for ty := rect.Y0; ty <= rect.Y1; ty++ {
			for tx := rect.X0; tx <= rect.X1; tx++ {
				masks[i] |= 1 << uint(framebuffer.OwnerOf(rect.Tile(tx, ty), gpus))
			}
		}
	}
	return masks
}

// selectionDigest replays the pieces on every GPU of a digestGPUs-GPU system,
// each under its round-robin ownership mask and with its own render targets.
// GPU g renders a piece's triangles whose destination mask has bit g, in
// piece order, and a piece that selects none of them is not drawn there. The
// line names the run, its sub-draw and fragment totals, a hash of every
// sub-draw's DrawResult counters in piece-major, GPU-minor order, and a hash
// of every GPU's render targets. The lines were recorded by drawing each
// GPU's share as a copied draw of just its triangles; the selection path
// must reproduce them.
func selectionDigest(t *testing.T, bench, mode string, fr *primitive.Frame, pieces []piece) string {
	t.Helper()
	rends := make([]*Renderer, digestGPUs)
	targets := make([]map[int]*framebuffer.Buffer, digestGPUs)
	for g := range rends {
		targets[g] = map[int]*framebuffer.Buffer{}
		for _, d := range fr.Draws {
			if targets[g][d.State.RenderTarget] == nil {
				targets[g][d.State.RenderTarget] = framebuffer.MustNew(fr.Width, fr.Height)
			}
		}
		rends[g] = New(targets[g][fr.Draws[0].State.RenderTarget], DefaultConfig())
		rends[g].SetTextures(fr.Textures)
		if err := rends[g].SetOwnership(ownerMask(fr, g, digestGPUs)); err != nil {
			t.Fatal(err)
		}
	}
	masks := make([][]uint64, len(fr.Draws))
	results := &digestWriter{h: fnv.New64a()}
	subdraws, frags := 0, 0
	s := GetSetup()
	defer PutSetup(s)
	res := make([]DrawResult, digestGPUs)
	for _, p := range pieces {
		d := &fr.Draws[p.draw]
		if masks[p.draw] == nil {
			masks[p.draw] = destMasks(fr, d, digestGPUs)
		}
		var union uint64
		for _, m := range masks[p.draw][p.lo:p.hi] {
			union |= m
		}
		if union == 0 {
			continue
		}
		// One setup of the piece; every GPU rasterizes the triangles its
		// bit selects, chunk by chunk.
		s.BuildSelected(d, p.lo, p.hi, Selection{Masks: masks[p.draw], Bit: union},
			fr.View, fr.Proj, fr.Width, fr.Height)
		clear(res)
		for more := true; more; more = s.Next() {
			for g, rend := range rends {
				if bit := uint64(1) << uint(g); union&bit != 0 {
					if err := rend.SetTarget(targets[g][d.State.RenderTarget]); err != nil {
						t.Fatal(err)
					}
					rend.Raster(s, Selection{Masks: masks[p.draw], Bit: bit}, &res[g])
				}
			}
		}
		for g := range rends {
			if union&(1<<uint(g)) != 0 {
				subdraws++
				frags += res[g].FragsGenerated
				results.result(&res[g])
			}
		}
	}
	pixels := &digestWriter{h: fnv.New64a()}
	for g := range targets {
		pixels.u64(uint64(g))
		pixels.targets(targets[g])
	}
	return fmt.Sprintf("%s %s subdraws=%d frags=%d results=%016x targets=%016x",
		bench, mode, subdraws, frags, results.h.Sum64(), pixels.h.Sum64())
}

// TestDrawDigestCorpus is the raster layer's bit-exact oracle: any change to
// rasterization, depth testing, blending or framebuffer storage that alters
// one counter or one bit of one pixel changes a digest. Re-record with `go
// test ./internal/raster -run TestDrawDigestCorpus -update-digest` only when
// a change sets out to alter raster output.
func TestDrawDigestCorpus(t *testing.T) {
	var lines []string
	for _, bench := range digestBenches {
		b, err := trace.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		fr := trace.Generate(b, digestScale)
		lines = append(lines, drawDigest(t, bench, "all", fr, nil))
		lines = append(lines, drawDigest(t, bench, fmt.Sprintf("gpu%d/%d", digestGPU, digestGPUs),
			fr, ownerMask(fr, digestGPU, digestGPUs)))
		if bench == "cod2" {
			lines = append(lines,
				selectionDigest(t, bench, fmt.Sprintf("gpupd-b%d/%d", gpupdBatch, digestGPUs),
					fr, batchPieces(fr.Draws, gpupdBatch)),
				selectionDigest(t, bench, fmt.Sprintf("sort-middle/%d", digestGPUs),
					fr, wholeDraws(fr.Draws)))
		}
	}
	b, err := trace.ByName("cod2")
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.Generate(b, 1.0)
	lines = append(lines, drawDigest(t, "cod2@1.0", fmt.Sprintf("gpu%d/%d", wideGPU, wideGPUs),
		fr, ownerMask(fr, wideGPU, wideGPUs)))
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "draw_digest.txt")
	if *updateDigest {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with -update-digest)", err)
	}
	if string(want) != got {
		t.Errorf("raster digest changed\n got:\n%s want:\n%s", got, want)
	}
	for _, l := range lines {
		t.Log(l)
	}
}

// BenchmarkDraw replays every draw of cod2 at scale 0.25 into fresh targets,
// owning every tile and then with GPU 0's 8-GPU ownership mask, and reports
// the generated fragments per second.
func BenchmarkDraw(b *testing.B) {
	bench, err := trace.ByName("cod2")
	if err != nil {
		b.Fatal(err)
	}
	fr := trace.Generate(bench, 0.25)
	own := ownerMask(fr, 0, 8)
	for _, c := range []struct {
		name string
		own  []bool
	}{{"all", nil}, {"masked", own}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			frags := 0
			for i := 0; i < b.N; i++ {
				targets := map[int]*framebuffer.Buffer{}
				rend := New(framebuffer.MustNew(fr.Width, fr.Height), DefaultConfig())
				rend.SetTextures(fr.Textures)
				if err := rend.SetOwnership(c.own); err != nil {
					b.Fatal(err)
				}
				for _, d := range fr.Draws {
					fb := targets[d.State.RenderTarget]
					if fb == nil {
						fb = framebuffer.MustNew(fr.Width, fr.Height)
						targets[d.State.RenderTarget] = fb
					}
					if err := rend.SetTarget(fb); err != nil {
						b.Fatal(err)
					}
					frags += rend.Draw(d, fr.View, fr.Proj).FragsGenerated
				}
			}
			b.ReportMetric(float64(frags)/b.Elapsed().Seconds(), "frags/s")
		})
	}
}
