// Chaos topology×plan matrix: the randomized fault sweep of chaos_test.go,
// crossed over interconnect topologies and composition exchange plans. Every
// cell must uphold the same contract — a byte-identical golden image or a
// typed error — under GPU fail-stops, stalls, transfer faults, AND downed
// links, whose recovery differs per topology (crossbar surfaces a typed
// UnroutableError, ring reverses direction, mesh reroutes around the link).
package fault_test

import (
	"fmt"
	"testing"

	"chopin/internal/composite/plan"
	"chopin/internal/fault"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
)

// chaosMatrix is the 3×3 topology × exchange-plan grid. Direct-send is the
// paper's baseline exchange; binary-swap and radix-k are the plan-composed
// paths, which recover from a fail-stop at the same step-boundary
// checkpoint.
var chaosMatrix = []struct {
	name string
	topo interconnect.TopologyKind
	alg  plan.Algorithm
}{
	{"crossbar/direct-send", interconnect.TopoCrossbar, plan.AlgDirectSend},
	{"crossbar/binary-swap", interconnect.TopoCrossbar, plan.AlgBinarySwap},
	{"crossbar/radix-k", interconnect.TopoCrossbar, plan.AlgRadixK},
	{"ring/direct-send", interconnect.TopoRing, plan.AlgDirectSend},
	{"ring/binary-swap", interconnect.TopoRing, plan.AlgBinarySwap},
	{"ring/radix-k", interconnect.TopoRing, plan.AlgRadixK},
	{"mesh2d/direct-send", interconnect.TopoMesh2D, plan.AlgDirectSend},
	{"mesh2d/binary-swap", interconnect.TopoMesh2D, plan.AlgBinarySwap},
	{"mesh2d/radix-k", interconnect.TopoMesh2D, plan.AlgRadixK},
}

func chaosCellMutator(topo interconnect.TopologyKind, alg plan.Algorithm) func(*multigpu.Config) {
	return func(cfg *multigpu.Config) {
		cfg.Link.Topology = topo
		cfg.CompAlg = alg
	}
}

// TestChaosTopology sweeps randomized fault schedules across the full
// topology × plan matrix under CHOPIN, round-robining seeds over cells so the
// default 100-seed budget covers every cell with distinct schedules.
func TestChaosTopology(t *testing.T) {
	seeds := chaosSeeds
	if testing.Short() {
		seeds = chaosSeedsShort
	}
	env := chaosSetup(t)
	for seed := 0; seed < seeds; seed++ {
		cell := chaosMatrix[seed%len(chaosMatrix)]
		t.Run(fmt.Sprintf("%s/seed=%d", cell.name, seed), func(t *testing.T) {
			p := fault.RandomPlan(int64(seed), chaosGPUs)
			runChaosOneWith(t, env, "CHOPIN", p, chaosCellMutator(cell.topo, cell.alg))
		})
	}
}

// TestChaosTopologyFixedSeeds is the CI chaos-topology job's entry point:
// three pinned seeds run against every cell of the matrix, so each topology's
// link-down recovery path (reroute, reversal, typed unroutable) and each
// plan's fail-stop recovery are exercised on every CI run.
func TestChaosTopologyFixedSeeds(t *testing.T) {
	env := chaosSetup(t)
	for _, seed := range []int64{7, 42, 1337} {
		for _, cell := range chaosMatrix {
			seed, cell := seed, cell
			t.Run(fmt.Sprintf("%s/seed=%d", cell.name, seed), func(t *testing.T) {
				p := fault.RandomPlan(seed, chaosGPUs)
				runChaosOneWith(t, env, "CHOPIN", p, chaosCellMutator(cell.topo, cell.alg))
			})
		}
	}
}

// TestChaosTopologyDeterministic re-runs one seed per cell and requires
// bit-for-bit identical outcomes across repeats.
func TestChaosTopologyDeterministic(t *testing.T) {
	env := chaosSetup(t)
	for i, cell := range chaosMatrix {
		p := fault.RandomPlan(int64(i), chaosGPUs)
		mut := chaosCellMutator(cell.topo, cell.alg)
		a := runChaosOneWith(t, env, "CHOPIN", p, mut)
		b := runChaosOneWith(t, env, "CHOPIN", p, mut)
		if a != b {
			t.Errorf("%s seed %d: runs diverged: %+v vs %+v", cell.name, i, a, b)
		}
	}
}
