package experiments

import (
	"fmt"
	"strings"

	"chopin/internal/composite/plan"
	"chopin/internal/interconnect"
	"chopin/internal/sfr"
	"chopin/internal/stats"
)

// Digest is the observable outcome of one simulation, used to check that
// runs are reproducible: the same (scheme, benchmark, configuration, trace)
// must always yield the same cycle count and the same final image.
type Digest struct {
	Scheme string
	Bench  string
	GPUs   int
	// Cfg labels a non-default configuration axis (e.g. "ring/binary-swap"
	// on the scale-out matrix); empty for the default crossbar/direct-send.
	Cfg    string
	Cycles int64
	Image  uint64
}

func (d Digest) key() string {
	k := fmt.Sprintf("%s/%s/n=%d", d.Scheme, d.Bench, d.GPUs)
	if d.Cfg != "" {
		k += "/" + d.Cfg
	}
	return k
}

// determinismMatrix is the scheme × GPU-count grid the self-check runs over
// every benchmark in the options.
func determinismMatrix() []struct {
	scheme sfr.Scheme
	gpus   int
} {
	return []struct {
		scheme sfr.Scheme
		gpus   int
	}{
		{sfr.Duplication{}, 2},
		{sfr.GPUpd{}, 2},
		{sfr.CHOPIN{}, 2},
		{sfr.SortMiddle{}, 2},
		{sfr.Duplication{}, 8},
		{sfr.GPUpd{}, 8},
		{sfr.CHOPIN{}, 8},
		{sfr.SortMiddle{}, 8},
	}
}

// runDigests executes the determinism matrix with the given worker count and
// returns one digest per simulation, in matrix order.
func runDigests(opt Options, workers int) ([]Digest, error) {
	opt.Workers = workers
	opt.normalize()
	matrix := determinismMatrix()
	n := len(matrix) * len(opt.Benchmarks)
	outs := make([]*stats.FrameStats, n)
	imgs := make([]uint64, n)
	var jobs []job
	i := 0
	for _, bench := range opt.Benchmarks {
		for _, m := range matrix {
			cfg := opt.baseConfig()
			cfg.NumGPUs = m.gpus
			jobs = append(jobs, job{bench: bench, scheme: m.scheme, cfg: cfg, out: &outs[i], img: &imgs[i]})
			i++
		}
	}
	if err := runJobs(&opt, jobs); err != nil {
		return nil, err
	}
	digests := make([]Digest, n)
	for i, st := range outs {
		digests[i] = Digest{
			Scheme: jobs[i].scheme.Name(),
			Bench:  jobs[i].bench,
			GPUs:   jobs[i].cfg.NumGPUs,
			Cycles: int64(st.TotalCycles),
			Image:  imgs[i],
		}
	}
	return digests, nil
}

// scaleOutMatrix is the topology × exchange-plan axis of the self-check:
// CHOPIN cells off the default crossbar/direct-send path, at GPU counts
// that exercise multi-round plans and routed fabrics.
func scaleOutMatrix() []struct {
	topo interconnect.TopologyKind
	alg  plan.Algorithm
	gpus int
} {
	return []struct {
		topo interconnect.TopologyKind
		alg  plan.Algorithm
		gpus int
	}{
		{interconnect.TopoCrossbar, plan.AlgBinarySwap, 8},
		{interconnect.TopoRing, plan.AlgDirectSend, 8},
		{interconnect.TopoRing, plan.AlgAuto, 16},
		{interconnect.TopoMesh2D, plan.AlgRadixK, 16},
	}
}

// scaleOutLabel renders the matrix entry's Cfg axis label.
func scaleOutLabel(topo interconnect.TopologyKind, alg plan.Algorithm) string {
	return fmt.Sprintf("%s/%s", topo, alg)
}

// runScaleOutDigests executes the scale-out matrix over every benchmark in
// the options with the given worker count and returns one digest per
// simulation, in matrix order.
func runScaleOutDigests(opt Options, workers int) ([]Digest, error) {
	opt.Workers = workers
	opt.normalize()
	matrix := scaleOutMatrix()
	n := len(matrix) * len(opt.Benchmarks)
	outs := make([]*stats.FrameStats, n)
	imgs := make([]uint64, n)
	var jobs []job
	i := 0
	for _, bench := range opt.Benchmarks {
		for _, m := range matrix {
			cfg := opt.baseConfig()
			cfg.NumGPUs = m.gpus
			cfg.Link.Topology = m.topo
			cfg.CompAlg = m.alg
			jobs = append(jobs, job{bench: bench, scheme: sfr.CHOPIN{}, cfg: cfg, out: &outs[i], img: &imgs[i]})
			i++
		}
	}
	if err := runJobs(&opt, jobs); err != nil {
		return nil, err
	}
	digests := make([]Digest, n)
	for i, st := range outs {
		digests[i] = Digest{
			Scheme: jobs[i].scheme.Name(),
			Bench:  jobs[i].bench,
			GPUs:   jobs[i].cfg.NumGPUs,
			Cfg:    scaleOutLabel(jobs[i].cfg.Link.Topology, jobs[i].cfg.CompAlg),
			Cycles: int64(st.TotalCycles),
			Image:  imgs[i],
		}
	}
	return digests, nil
}

// diffDigests compares two digest slices run-by-run and describes every
// cycle-count or image mismatch, labelling the two sides a and b.
func diffDigests(seq, par []Digest, a, b string) []string {
	var diffs []string
	for i := range seq {
		s, p := seq[i], par[i]
		if s.Cycles != p.Cycles {
			diffs = append(diffs, fmt.Sprintf("%s: cycles %d (%s) vs %d (%s)", s.key(), s.Cycles, a, p.Cycles, b))
		}
		if s.Image != p.Image {
			diffs = append(diffs, fmt.Sprintf("%s: image %016x (%s) vs %016x (%s)", s.key(), s.Image, a, p.Image, b))
		}
	}
	return diffs
}

// CheckDeterminism runs the self-check along two independent axes and
// compares cycle counts and image checksums run-by-run.
//
// Axis 1 — concurrent simulations: the scheme × GPU-count matrix runs once
// strictly sequentially (Workers=1) and once with the options' full
// parallelism. A difference means concurrent simulations influence each
// other (shared mutable state, map-iteration order leaking into event
// order, ...).
//
// Axis 2 — the scale-out configuration space: the topology × exchange-plan
// matrix (routed fabrics, multi-round plans) runs sequentially and with full
// parallelism, extending axis 1's guarantee off the default
// crossbar/direct-send path.
//
// It returns the digests of the sequential passes of both axes and an
// error describing each mismatch.
func CheckDeterminism(opt Options) ([]Digest, error) {
	opt.normalize()
	seq, err := runDigests(opt, 1)
	if err != nil {
		return nil, fmt.Errorf("sequential pass: %w", err)
	}
	par, err := runDigests(opt, opt.Workers)
	if err != nil {
		return seq, fmt.Errorf("parallel pass: %w", err)
	}
	diffs := diffDigests(seq, par, "sequential", "parallel")

	sseq, err := runScaleOutDigests(opt, 1)
	if err != nil {
		return seq, fmt.Errorf("sequential scale-out pass: %w", err)
	}
	spar, err := runScaleOutDigests(opt, opt.Workers)
	if err != nil {
		return seq, fmt.Errorf("parallel scale-out pass: %w", err)
	}
	diffs = append(diffs, diffDigests(sseq, spar, "sequential", "parallel")...)

	all := append(seq, sseq...)
	if len(diffs) > 0 {
		return all, fmt.Errorf("experiments: %d determinism violation(s):\n  %s",
			len(diffs), strings.Join(diffs, "\n  "))
	}
	return all, nil
}
