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
// the sparse 64-GPU ownership of the full-scale frame.
const (
	digestScale = 0.05
	digestGPUs  = 8
	digestGPU   = 3
	wideGPUs    = 64
	wideGPU     = 37
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
// render target's final colour, depth and stencil in row-major order.
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
		for _, v := range []int{
			r.VerticesShaded, r.TrianglesIn, r.TrianglesRasterized,
			r.FragsGenerated, r.FragsEarlyTested, r.FragsEarlyPassed,
			r.FragsShaded, r.FragsLateTested, r.FragsLatePassed,
			r.FragsWritten, r.FragsRetained, r.TexSamples,
		} {
			draws.u64(uint64(v))
		}
	}

	pixels := &digestWriter{h: fnv.New64a()}
	rts := make([]int, 0, len(targets))
	for rt := range targets {
		rts = append(rts, rt)
	}
	sort.Ints(rts)
	for _, rt := range rts {
		fb := targets[rt]
		pixels.u64(uint64(rt))
		for y := 0; y < fb.Height(); y++ {
			for x := 0; x < fb.Width(); x++ {
				c := fb.At(x, y)
				pixels.f64(c.R)
				pixels.f64(c.G)
				pixels.f64(c.B)
				pixels.f64(c.A)
				pixels.f64(fb.DepthAt(x, y))
				pixels.u64(uint64(fb.StencilAt(x, y)))
			}
		}
	}

	return fmt.Sprintf("%s %s draws=%d frags=%d results=%016x targets=%016x",
		bench, mode, len(fr.Draws), frags, draws.h.Sum64(), pixels.h.Sum64())
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
