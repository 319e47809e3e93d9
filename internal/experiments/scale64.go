package experiments

import (
	"fmt"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/sfr"
)

func init() {
	register("scale64", "Scale-out: CHOPIN at 8-64 GPUs across fabric topologies and exchange plans", scale64)
}

// scale64Topos is the fabric sweep: the paper's crossbar plus the two routed
// topologies whose diameter grows with the GPU count.
var scale64Topos = []struct {
	name string
	kind interconnect.TopologyKind
}{
	{"crossbar", interconnect.TopoCrossbar},
	{"ring", interconnect.TopoRing},
	{"mesh", interconnect.TopoMesh2D},
}

// scale64Algs is the exchange-plan sweep: the paper's direct send plus the
// classic parallel-compositing schedules.
var scale64Algs = []struct {
	name string
	alg  plan.Algorithm
}{
	{"direct-send", plan.AlgDirectSend},
	{"binary-swap", plan.AlgBinarySwap},
	{"radix-k", plan.AlgRadixK},
}

// scale64 extends the paper's Fig. 13/19 methodology past its 16-GPU
// evaluation: CHOPIN under every exchange plan is normalized to the
// Duplication baseline at the same GPU count on the same fabric, so each
// cell isolates what the composition schedule contributes at that scale.
func scale64(opt *Options) (*Result, error) {
	var pts []point
	for _, n := range []int{8, 16, 32, 64} {
		for _, tp := range scale64Topos {
			pts = append(pts, point{n, "topo-" + tp.name, func(c *multigpu.Config) {
				c.Link.Topology = tp.kind
			}, []string{fmt.Sprint(n), tp.name}})
		}
	}
	vars := []variant{dup}
	header := []string{"GPUs", "topology"}
	for _, a := range scale64Algs {
		vars = append(vars, variant{"CHOPIN/" + a.name, sfr.CHOPIN{}, func(c *multigpu.Config) {
			c.CompAlg = a.alg
		}})
		header = append(header, a.name)
	}
	tbl, err := gmeanSweep(opt, pts, vars, header...)
	if err != nil {
		return nil, err
	}
	return &Result{ID: "scale64", Title: Title("scale64"), Table: tbl,
		Notes: []string{
			"gmean speedup vs duplication at the SAME GPU count and topology",
			"direct-send (the paper's exchange) transfers only dirty tiles; the classic plans exchange dense row regions each round, which favours direct-send at sparse screen coverage and long-haul pairings on high-diameter fabrics",
		}}, nil
}
