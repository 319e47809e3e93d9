// Package core implements the paper's primary contribution: the CHOPIN
// split-frame-rendering architecture (Section IV).
//
// CHOPIN distributes whole draw commands across GPUs — eliminating the
// redundant per-GPU geometry processing of conventional SFR — and composes
// the resulting sub-images in parallel, exploiting two properties of image
// composition (Section II-D):
//
//   - opaque sub-images compose out-of-order (depth comparison is
//     commutative and associative), and
//   - transparent sub-images compose associatively, so adjacent sub-images
//     in draw order can merge asynchronously.
//
// The package provides the three hardware mechanisms of Section IV:
//
//   - [LeastLoadedScheduler], the draw-command scheduler of Fig. 10, which
//     tracks scheduled and processed triangle counts per GPU and assigns
//     each draw to the GPU with the fewest remaining triangles;
//   - [PlanScheduler], the image-composition scheduler of Table I and
//     Figs. 11–12, which pairs up ready GPUs so sub-image exchange never
//     congests the fabric, for the paper's direct-send exchange and for the
//     multi-round plans of package plan alike; and
//   - [TransparentComposer], the adjacent-merge tracker for transparent
//     groups.
//
// The composition-group software layer (the CompGroupStart/CompGroupEnd API
// of Section IV-A) is implemented by [Plan] on top of the group builder in
// package primitive.
package core

import (
	"fmt"

	"chopin/internal/gpu"
	"chopin/internal/primitive"
	"chopin/internal/sim"
)

// DrawScheduler decides which GPU executes a draw command.
type DrawScheduler interface {
	// Assign returns the GPU for a draw of the given triangle count at the
	// given time, updating any internal bookkeeping.
	Assign(tris int, now sim.Cycle) int
	// Name identifies the scheduler in reports.
	Name() string
}

// RoundRobinScheduler distributes draws cyclically, the naive baseline of
// paper Fig. 8.
type RoundRobinScheduler struct {
	n, next int
}

// NewRoundRobin returns a round-robin scheduler over n GPUs.
func NewRoundRobin(n int) *RoundRobinScheduler { return &RoundRobinScheduler{n: n} }

// Assign returns GPUs 0, 1, ..., n-1, 0, ... in turn.
func (s *RoundRobinScheduler) Assign(tris int, now sim.Cycle) int {
	g := s.next
	s.next = (s.next + 1) % s.n
	return g
}

// Name implements DrawScheduler.
func (s *RoundRobinScheduler) Name() string { return "round-robin" }

// LeastLoadedScheduler is the draw-command scheduler of paper Fig. 10: a
// table with, per GPU, the number of scheduled and processed triangles in
// the geometry stage; each draw goes to the GPU with the fewest remaining
// triangles.
//
// Processed counts are read from the GPUs quantized to UpdateInterval
// triangles and delayed by the link latency, modelling the periodic
// hardware status updates of Section VI-D (swept in Fig. 18).
type LeastLoadedScheduler struct {
	gpus []*gpu.GPU
	// UpdateInterval is the status-update granularity in triangles.
	UpdateInterval int
	// UpdateLatency is the staleness of processed counts.
	UpdateLatency sim.Cycle

	scheduled []int64
}

// NewLeastLoaded returns the Fig. 10 scheduler over the given GPUs.
func NewLeastLoaded(gpus []*gpu.GPU, updateInterval int, updateLatency sim.Cycle) *LeastLoadedScheduler {
	if updateInterval < 1 {
		updateInterval = 1
	}
	return &LeastLoadedScheduler{
		gpus:           gpus,
		UpdateInterval: updateInterval,
		UpdateLatency:  updateLatency,
		scheduled:      make([]int64, len(gpus)),
	}
}

// Remaining returns the scheduler's current estimate of GPU g's remaining
// geometry triangles.
func (s *LeastLoadedScheduler) Remaining(g int, now sim.Cycle) int64 {
	at := now - s.UpdateLatency
	if at < 0 {
		at = 0
	}
	processed := int64(s.gpus[g].ProcessedTriangles(at, s.UpdateInterval))
	rem := s.scheduled[g] - processed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Assign picks the GPU with the fewest remaining triangles (lowest ID wins
// ties) and adds the draw's triangles to its scheduled count.
func (s *LeastLoadedScheduler) Assign(tris int, now sim.Cycle) int {
	best, bestRem := 0, int64(-1)
	for g := range s.gpus {
		rem := s.Remaining(g, now)
		if bestRem < 0 || rem < bestRem {
			best, bestRem = g, rem
		}
	}
	s.scheduled[best] += int64(tris)
	return best
}

// NoteDuplicated records triangles submitted to every GPU outside the
// scheduler's control (duplicated small groups), keeping the scheduled
// counts consistent with the GPUs' own accounting.
func (s *LeastLoadedScheduler) NoteDuplicated(tris int) {
	for g := range s.scheduled {
		s.scheduled[g] += int64(tris)
	}
}

// NoteAssigned records triangles placed on GPU g outside the scheduler's
// control (the contiguous transparent-group chunks of Section IV-C).
func (s *LeastLoadedScheduler) NoteAssigned(g, tris int) {
	s.scheduled[g] += int64(tris)
}

// Name implements DrawScheduler.
func (s *LeastLoadedScheduler) Name() string { return "least-loaded" }

// UpdateTrafficBytes returns the draw-scheduler status-update traffic for a
// frame of the given triangle count at the given update interval, with
// 4-byte messages (Section VI-D).
func UpdateTrafficBytes(triangles, updateInterval int) int64 {
	if updateInterval < 1 {
		updateInterval = 1
	}
	return int64(triangles/updateInterval) * 4
}

// HardwareCost reports the storage the two schedulers need for an n-GPU
// system (Section VI-F).
type HardwareCost struct {
	// DrawSchedulerBytes is the draw-command scheduler table: per GPU, two
	// 64-bit triangle counters.
	DrawSchedulerBytes int
	// CompSchedulerBytes is the composition scheduler table (Table I): per
	// GPU, a 1-byte CGID, three 1-bit flags, and two n-bit GPU vectors.
	CompSchedulerBytes int
}

// Cost returns the hardware cost for an n-GPU system. For n=8 it reproduces
// the paper's 128-byte and 27-byte figures.
func Cost(n int) HardwareCost {
	vecBytes := (n + 7) / 8
	flagBits := 3 * n
	return HardwareCost{
		DrawSchedulerBytes: n * 2 * 8,
		CompSchedulerBytes: n*(1+2*vecBytes) + (flagBits+7)/8,
	}
}

// Step is one composition group in a frame plan, annotated with the
// workflow decision of Fig. 7.
type Step struct {
	Group primitive.Group
	// Duplicate is true when the group is under the primitive threshold and
	// reverts to conventional duplicated rendering.
	Duplicate bool
}

// Plan splits a frame's draw stream into composition groups and applies the
// Fig. 7 threshold check. It is the software-layer work CompGroupStart and
// CompGroupEnd delimit.
func Plan(draws []primitive.DrawCommand, threshold int) []Step {
	groups := primitive.BuildGroups(draws)
	steps := make([]Step, len(groups))
	for i, g := range groups {
		steps[i] = Step{Group: g, Duplicate: g.Triangles < threshold}
	}
	return steps
}

// PlanStats summarises a plan (Section VI-E).
type PlanStats struct {
	Groups            int
	Accelerated       int
	TrianglesTotal    int
	TrianglesAccel    int
	TransparentGroups int
}

// Summarize computes plan statistics.
func Summarize(steps []Step) PlanStats {
	var s PlanStats
	s.Groups = len(steps)
	for _, st := range steps {
		s.TrianglesTotal += st.Group.Triangles
		if !st.Duplicate {
			s.Accelerated++
			s.TrianglesAccel += st.Group.Triangles
		}
		if st.Group.Transparent {
			s.TransparentGroups++
		}
	}
	return s
}

// DivideRange splits draws [start, end) into n contiguous chunks of
// near-equal triangle counts, preserving order — the transparent-group
// distribution of Section IV-C ("evenly divide draws, send consecutive
// draws to the same GPU"). Chunk i may be empty when there are fewer draws
// than GPUs. An out-of-bounds range is a caller bug and returns an error.
func DivideRange(draws []primitive.DrawCommand, start, end, n int) ([][2]int, error) {
	if start < 0 || end > len(draws) || start > end {
		return nil, fmt.Errorf("core: bad range [%d,%d) of %d draws", start, end, len(draws))
	}
	total := 0
	for i := start; i < end; i++ {
		total += draws[i].TriangleCount()
	}
	chunks := make([][2]int, n)
	pos := start
	acc := 0
	for c := 0; c < n; c++ {
		target := total * (c + 1) / n
		lo := pos
		for pos < end && acc < target {
			acc += draws[pos].TriangleCount()
			pos++
		}
		chunks[c] = [2]int{lo, pos}
	}
	chunks[n-1][1] = end
	return chunks, nil
}
