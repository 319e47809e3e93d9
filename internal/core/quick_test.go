package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/primitive"
)

// tableI is the paper's composition scheduler written out directly: per-GPU
// Ready/Sending/Receiving flags and a SentGPUs bit vector (Table I), scanned
// by ascending sender, then ascending receiver (Fig. 12). It is the
// reference the plan-driven scheduler must match session for session.
type tableI struct {
	ready, sending, receiving []bool
	sent                      []uint64
}

func newTableI(n int) *tableI {
	return &tableI{make([]bool, n), make([]bool, n), make([]bool, n), make([]uint64, n)}
}

func (a *tableI) next() [][2]int {
	var out [][2]int
	n := len(a.ready)
	for s := 0; s < n; s++ {
		if !a.ready[s] || a.sending[s] {
			continue
		}
		for r := 0; r < n; r++ {
			if r != s && a.ready[r] && !a.receiving[r] && a.sent[s]&(1<<uint(r)) == 0 {
				a.sending[s], a.receiving[r] = true, true
				out = append(out, [2]int{s, r})
				break
			}
		}
	}
	return out
}

func (a *tableI) complete(s, r int) {
	a.sending[s], a.receiving[r] = false, false
	a.sent[s] |= 1 << uint(r)
}

// TestQuickCompositionSchedulerConverges: for any GPU count and any order
// of readiness and session completions, the scheduler on a direct-send plan
// starts exactly the sessions the Table I arbiter starts, in the same order,
// and terminates after n·(n−1) directed transfers.
func TestQuickCompositionSchedulerConverges(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 2 + int(nRaw)%15
		rng := rand.New(rand.NewSource(seed))
		p, err := plan.DirectSend(n, 16)
		if err != nil {
			return false
		}
		ps, err := NewPlanScheduler(p)
		if err != nil {
			return false
		}
		ref := newTableI(n)

		readyOrder := rng.Perm(n)
		readyIdx := 0
		var inflight []plan.Session
		transfers := 0
		for steps := 0; !ps.Done(); steps++ {
			if steps > 10000 {
				return false // livelock
			}
			// Randomly interleave readiness events and completions.
			if readyIdx < n && (len(inflight) == 0 || rng.Intn(2) == 0) {
				g := readyOrder[readyIdx]
				readyIdx++
				ps.SetReady(g)
				ref.ready[g] = true
			} else if len(inflight) > 0 {
				i := rng.Intn(len(inflight))
				s := inflight[i]
				inflight = append(inflight[:i], inflight[i+1:]...)
				if ps.Complete(s) != nil {
					return false
				}
				ref.complete(s.Sender, s.Receiver)
				transfers++
			}
			batch, want := ps.NextSessions(), ref.next()
			if len(batch) != len(want) {
				return false
			}
			for i, s := range batch {
				if [2]int{s.Sender, s.Receiver} != want[i] {
					return false
				}
			}
			inflight = append(inflight, batch...)
		}
		return transfers == n*(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTransparentComposerConverges: any readiness order reduces to a
// single holder of the full range in exactly n−1 merges.
func TestQuickTransparentComposerConverges(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 1 + int(nRaw)%16
		rng := rand.New(rand.NewSource(seed))
		tc := NewTransparentComposer(n)
		order := rng.Perm(n)
		idx := 0
		merges := 0
		var pending []Merge
		for steps := 0; !tc.Done(); steps++ {
			if steps > 10000 {
				return false
			}
			if idx < n && (len(pending) == 0 || rng.Intn(2) == 0) {
				tc.SetReady(order[idx])
				idx++
			} else if len(pending) > 0 {
				i := rng.Intn(len(pending))
				m := pending[i]
				pending = append(pending[:i], pending[i+1:]...)
				tc.Complete(m)
				merges++
			}
			pending = append(pending, tc.NextMerges()...)
		}
		holder, ok := tc.FinalHolder()
		return ok && holder >= 0 && merges == n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickDivideRangeInvariants: chunks partition any range in order.
func TestQuickDivideRangeInvariants(t *testing.T) {
	f := func(sizes []uint16, nRaw uint8) bool {
		n := 1 + int(nRaw)%12
		draws := make([]primitive.DrawCommand, len(sizes))
		for i, s := range sizes {
			draws[i] = primitive.DrawCommand{Tris: make([]primitive.Triangle, 1+int(s)%500)}
		}
		chunks, err := DivideRange(draws, 0, len(draws), n)
		if err != nil {
			return false
		}
		pos := 0
		for _, c := range chunks {
			if c[0] != pos || c[1] < c[0] {
				return false
			}
			pos = c[1]
		}
		return pos == len(draws)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickReorderIsPermutation: reordering never loses, duplicates, or
// mutates a draw (modulo renumbered IDs), and never increases group count.
func TestQuickReorderIsPermutation(t *testing.T) {
	f := func(spec []uint8) bool {
		draws := make([]primitive.DrawCommand, len(spec))
		for i, b := range spec {
			d := primitive.DrawCommand{
				ID:    i,
				Tris:  make([]primitive.Triangle, 1+int(b)%40),
				State: primitive.DefaultState(),
			}
			switch b % 5 {
			case 1:
				d.State.DepthFunc = colorspace.CmpLessEqual
			case 2:
				d.State.BlendOp = colorspace.BlendOver
				d.State.DepthWrite = false
			case 3:
				d.State.RenderTarget = int(b) % 3
				d.State.DepthBuffer = d.State.RenderTarget
			case 4:
				d.State.DepthWrite = false
			}
			draws[i] = d
		}
		out := Reorder(draws)
		if len(out) != len(draws) {
			return false
		}
		// Multiset of (triangle count, state) must be preserved.
		count := map[[2]uint64]int{}
		for _, d := range draws {
			count[[2]uint64{uint64(d.TriangleCount()), stateKey(&d.State)}]++
		}
		for _, d := range out {
			count[[2]uint64{uint64(d.TriangleCount()), stateKey(&d.State)}]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		if len(draws) > 0 &&
			len(primitive.BuildGroups(out)) > len(primitive.BuildGroups(draws)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
