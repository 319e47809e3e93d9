package core

import "fmt"

// Merge is a scheduled transparent sub-image merge: From's accumulated
// layer is sent to To, who blends it with its own (From is in front when
// From's range follows To's).
type Merge struct {
	From, To int
}

// TransparentComposer tracks the asynchronous adjacent merging of
// transparent sub-images (Section IV-C step Î, Section IV-E step Ë). GPU i
// initially holds layer range [i, i]; only holders of adjacent ranges may
// merge, and the lower (farther-back) holder accumulates the result —
// associativity makes any merge order equivalent.
type TransparentComposer struct {
	n     int
	lo    []int // lo[g], hi[g]: the draw-order range GPU g holds (-1 = none)
	hi    []int
	ready []bool
	busy  []bool
}

// NewTransparentComposer returns a composer for n GPUs.
func NewTransparentComposer(n int) *TransparentComposer {
	tc := &TransparentComposer{
		n:     n,
		lo:    make([]int, n),
		hi:    make([]int, n),
		ready: make([]bool, n),
		busy:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		tc.lo[i], tc.hi[i] = i, i
	}
	return tc
}

// SetReady marks GPU g's sub-image as generated.
func (tc *TransparentComposer) SetReady(g int) { tc.ready[g] = true }

// NextMerges schedules all adjacent merges possible now, marking both
// parties busy. The front (higher-range) holder sends to the back holder.
func (tc *TransparentComposer) NextMerges() []Merge {
	var out []Merge
	for back := 0; back < tc.n; back++ {
		if tc.lo[back] < 0 || !tc.ready[back] || tc.busy[back] {
			continue
		}
		// Find the holder whose range starts right after back's.
		want := tc.hi[back] + 1
		for front := 0; front < tc.n; front++ {
			if front == back || tc.lo[front] != want {
				continue
			}
			if tc.ready[front] && !tc.busy[front] {
				tc.busy[back] = true
				tc.busy[front] = true
				out = append(out, Merge{From: front, To: back})
			}
			break
		}
	}
	return out
}

// Complete records a finished merge: the back holder absorbs the front
// holder's range; the front holder leaves the composition. Completing a
// merge that was never scheduled is a caller bug and returns an error.
func (tc *TransparentComposer) Complete(m Merge) error {
	if !tc.busy[m.From] || !tc.busy[m.To] {
		return fmt.Errorf("core: completing unscheduled merge %+v", m)
	}
	tc.busy[m.From] = false
	tc.busy[m.To] = false
	tc.hi[m.To] = tc.hi[m.From]
	tc.lo[m.From], tc.hi[m.From] = -1, -1
	tc.ready[m.From] = false
	return nil
}

// Done reports whether a single holder owns the full range.
func (tc *TransparentComposer) Done() bool {
	holder, ok := tc.FinalHolder()
	return ok && tc.lo[holder] == 0 && tc.hi[holder] == tc.n-1 && !tc.busy[holder]
}

// FinalHolder returns the single remaining holder once composition is down
// to one range.
func (tc *TransparentComposer) FinalHolder() (int, bool) {
	found := -1
	for g := 0; g < tc.n; g++ {
		if tc.lo[g] >= 0 {
			if found >= 0 {
				return -1, false
			}
			found = g
		}
	}
	return found, found >= 0
}
