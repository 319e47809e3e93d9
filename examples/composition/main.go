// Composition: use the parallel image-composition library standalone, the
// way a scientific-visualization cluster would (paper Section II-D).
//
// Sixteen "GPUs" each render a slice of a synthetic particle volume into
// their own full-screen sub-image. The example builds the direct-send,
// binary-swap and radix-k (k=4) exchange plans the simulator runs,
// executes each on the sub-images with composite.Exchange, verifies all
// three produce the reference image, and compares their communication
// costs — the trade-off CHOPIN's composition scheduler navigates.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/composite/plan"
	"chopin/internal/framebuffer"
)

const (
	gpus   = 16
	width  = 640
	height = 480
)

// renderSubImage renders GPU g's slab of a randomly scattered particle
// cloud: opaque splats at depths within the slab.
func renderSubImage(g int) *framebuffer.Buffer {
	fb := framebuffer.MustNew(width, height)
	rng := rand.New(rand.NewSource(int64(g) + 1))
	zLo := float64(g) / gpus
	zHi := float64(g+1) / gpus
	for p := 0; p < 4000; p++ {
		cx, cy := rng.Intn(width), rng.Intn(height)
		z := zLo + (zHi-zLo)*rng.Float64()
		r := 1 + rng.Intn(4)
		col := colorspace.Opaque(0.3+0.7*rng.Float64(), 0.2+0.6*z, 1-z)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := cx+dx, cy+dy
				if dx*dx+dy*dy > r*r || !fb.InBounds(x, y) {
					continue
				}
				if z < fb.DepthAt(x, y) {
					fb.Set(x, y, col)
					fb.SetDepth(x, y, z)
				}
			}
		}
	}
	return fb
}

func main() {
	subs := make([]*framebuffer.Buffer, gpus)
	for g := range subs {
		subs[g] = renderSubImage(g)
	}
	fmt.Printf("composed %d sub-images of %dx%d pixels\n\n", gpus, width, height)

	ref := composite.DepthReference(subs, colorspace.CmpLess)

	type algo struct {
		name string
		plan func() (*plan.Plan, error)
	}
	algos := []algo{
		{"direct-send", func() (*plan.Plan, error) { return plan.DirectSend(gpus, height) }},
		{"binary-swap", func() (*plan.Plan, error) { return plan.BinarySwap(gpus, height) }},
		{"radix-k (k=4)", func() (*plan.Plan, error) { return plan.RadixK(gpus, height, 4) }},
	}
	fmt.Printf("%-14s %8s %10s %8s %8s\n", "algorithm", "rounds", "messages", "MB", "correct")
	for _, a := range algos {
		p, err := a.plan()
		var img *framebuffer.Buffer
		var tr composite.Traffic
		if err == nil {
			img, tr, err = composite.Exchange(p, subs, colorspace.CmpLess)
		}
		if err != nil {
			fmt.Printf("%-14s failed: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %8d %10d %8.2f %8v\n",
			a.name, tr.Rounds, tr.Messages, float64(tr.Bytes)/(1<<20), img.Equal(ref, 0))
	}

	// Transparent composition: associativity lets adjacent layers merge in
	// any grouping — the property CHOPIN exploits for transparent groups.
	layers := make([]*framebuffer.Buffer, gpus)
	for g := range layers {
		l := framebuffer.MustNew(width, height)
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for p := 0; p < 2000; p++ {
			x, y := rng.Intn(width), rng.Intn(height)
			l.Set(x, y, colorspace.FromStraight(rng.Float64(), rng.Float64(), 1, 0.4))
		}
		layers[g] = l
	}
	chain := composite.ChainCompose(colorspace.BlendOver, layers)
	tree := composite.TreeCompose(colorspace.BlendOver, layers)
	fmt.Printf("\ntransparent layers: sequential chain vs pairwise tree equal within 1e-9: %v\n",
		chain.Equal(tree, 1e-9))
}
