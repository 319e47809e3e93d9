package core

import (
	"fmt"
	"math/bits"

	"chopin/internal/composite/plan"
)

// PlanScheduler is CHOPIN's image-composition scheduler (paper Section IV-E,
// Table I, Figs. 11–12), driving one composition group through an exchange
// plan. It tracks each GPU's composition status and starts a session only
// when both parties are ready and neither port is busy — the sender's
// egress and the receiver's ingress — avoiding the network congestion of
// naive direct-send. For multi-round plans a session in round r may start
// only when its sender and receiver have both completed all their round r−1
// sessions, so every merge a sender forwards in round r already includes
// everything it accumulated in earlier rounds.
//
// Table I maps onto the scheduler's per-GPU state: Ready, Sending and
// Receiving are the readiness and port flags, and SentGPUs/ReceivedGPUs are
// the completed sessions of a direct-send plan's single round. Each
// composition group gets its own scheduler, which takes the place of the
// table's composition group ID.
//
// Like the hardware arbiter it models, the scan order is fixed (ascending
// round, then the plan's session order), so identical inputs schedule
// identical session sequences. plan.DirectSend lists sessions by ascending
// sender, then receiver: the fixed-priority arbiter of Fig. 12.
type PlanScheduler struct {
	p         *plan.Plan
	ready     []bool
	sending   []int // sending[g]: index in round[g] of g's in-flight send, or -1
	receiving []bool
	round     []int     // per-GPU current round index (len(Rounds) = finished)
	state     [][]uint8 // state[r][i]: 0 unstarted, 1 in flight, 2 complete
	left      [][]int   // left[r][g]: g's incomplete sessions in round r
	// touch[r][g] is the bitset of round-r sessions GPU g takes part in, and
	// cand[r] the sessions of GPUs whose status changed since the last scan.
	// Every other unstarted session was blocked at that scan and still is,
	// so NextSessions visits only cand and starts exactly the sessions a
	// scan of the whole plan would, in the same order.
	touch    [][][]uint64
	cand     [][]uint64
	finished []bool
	done     int
}

// NewPlanScheduler returns a scheduler for the given plan. The plan is not
// copied; it must not be mutated while scheduled.
func NewPlanScheduler(p *plan.Plan) (*PlanScheduler, error) {
	if p == nil || p.N < 1 || p.N > 64 {
		return nil, fmt.Errorf("core: plan scheduler needs a plan for 1–64 GPUs")
	}
	ps := &PlanScheduler{
		p:         p,
		ready:     make([]bool, p.N),
		sending:   make([]int, p.N),
		receiving: make([]bool, p.N),
		round:     make([]int, p.N),
		state:     make([][]uint8, len(p.Rounds)),
		left:      make([][]int, len(p.Rounds)),
		touch:     make([][][]uint64, len(p.Rounds)),
		cand:      make([][]uint64, len(p.Rounds)),
		finished:  make([]bool, p.N),
	}
	for g := range ps.sending {
		ps.sending[g] = -1
	}
	for r, round := range p.Rounds {
		words := (len(round) + 63) / 64
		ps.state[r] = make([]uint8, len(round))
		ps.left[r] = make([]int, p.N)
		ps.cand[r] = make([]uint64, words)
		ps.touch[r] = make([][]uint64, p.N)
		set := make([]uint64, p.N*words)
		for g := range ps.touch[r] {
			ps.touch[r][g] = set[g*words : (g+1)*words]
		}
		for i, s := range round {
			if s.Sender < 0 || s.Sender >= p.N || s.Receiver < 0 || s.Receiver >= p.N {
				return nil, fmt.Errorf("core: plan session %+v out of range for %d GPUs", s, p.N)
			}
			ps.left[r][s.Sender]++
			ps.left[r][s.Receiver]++
			ps.touch[r][s.Sender][i/64] |= 1 << uint(i%64)
			ps.touch[r][s.Receiver][i/64] |= 1 << uint(i%64)
		}
	}
	return ps, nil
}

// SetReady marks GPU g's sub-image as generated; its sessions become
// eligible. GPUs with no sessions at all complete immediately.
func (ps *PlanScheduler) SetReady(g int) {
	ps.ready[g] = true
	ps.advance(g)
	ps.changed(g)
}

// advance moves g past rounds in which it has no remaining sessions and
// records completion when it runs out of rounds.
func (ps *PlanScheduler) advance(g int) {
	for ps.round[g] < len(ps.p.Rounds) && ps.left[ps.round[g]][g] == 0 {
		ps.round[g]++
	}
	if ps.round[g] == len(ps.p.Rounds) && !ps.finished[g] {
		ps.finished[g] = true
		ps.done++
	}
}

// changed makes g's sessions in its current round scan candidates again.
func (ps *PlanScheduler) changed(g int) {
	r := ps.round[g]
	if r == len(ps.p.Rounds) {
		return
	}
	for w, b := range ps.touch[r][g] {
		ps.cand[r][w] |= b
	}
}

// NextSessions greedily starts every session that may begin now, marking
// the chosen ports busy. A session is startable when it is unstarted, both
// parties are ready and sit in its round, the sender's egress is free, and
// the receiver's ingress is free.
func (ps *PlanScheduler) NextSessions() []plan.Session {
	var out []plan.Session
	for r, round := range ps.p.Rounds {
		cand := ps.cand[r]
		for w, word := range cand {
			cand[w] = 0
			for ; word != 0; word &= word - 1 {
				i := w*64 + bits.TrailingZeros64(word)
				s := round[i]
				if ps.state[r][i] != 0 {
					continue
				}
				if ps.round[s.Sender] != r || ps.round[s.Receiver] != r {
					continue
				}
				if !ps.ready[s.Sender] || !ps.ready[s.Receiver] {
					continue
				}
				if ps.sending[s.Sender] >= 0 || ps.receiving[s.Receiver] {
					continue
				}
				ps.state[r][i] = 1
				ps.sending[s.Sender] = i
				ps.receiving[s.Receiver] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// Complete records that the session finished: ports free, round bookkeeping
// updates, and either party that drained its round advances. Completing a
// session that is not in flight is a caller bug and returns an error.
func (ps *PlanScheduler) Complete(s plan.Session) error {
	if s.Sender < 0 || s.Sender >= ps.p.N {
		return fmt.Errorf("core: completing plan session %+v out of range", s)
	}
	// A sender's egress carries one session at a time, and neither party
	// leaves the round while it is in flight.
	r, i := ps.round[s.Sender], ps.sending[s.Sender]
	if i < 0 || ps.p.Rounds[r][i].Receiver != s.Receiver {
		return fmt.Errorf("core: completing unscheduled plan session %+v", s)
	}
	ps.state[r][i] = 2
	ps.sending[s.Sender] = -1
	ps.receiving[s.Receiver] = false
	ps.left[r][s.Sender]--
	ps.left[r][s.Receiver]--
	ps.advance(s.Sender)
	ps.advance(s.Receiver)
	ps.changed(s.Sender)
	ps.changed(s.Receiver)
	return nil
}

// Done reports whether every GPU has completed every round.
func (ps *PlanScheduler) Done() bool { return ps.done == ps.p.N }

// CompletedRounds returns the number of leading rounds every GPU has fully
// completed, for watchdog diagnostics.
func (ps *PlanScheduler) CompletedRounds() int {
	min := len(ps.p.Rounds)
	for g := 0; g < ps.p.N; g++ {
		if ps.round[g] < min {
			min = ps.round[g]
		}
	}
	return min
}

// PendingSessions counts sessions not yet completed, for watchdog
// diagnostics.
func (ps *PlanScheduler) PendingSessions() int {
	n := 0
	for r := range ps.state {
		for _, st := range ps.state[r] {
			if st != 2 {
				n++
			}
		}
	}
	return n
}

// ReadyBits returns a bitmask of GPUs whose sub-images have been marked
// ready.
func (ps *PlanScheduler) ReadyBits() uint64 {
	var b uint64
	for g, ok := range ps.ready {
		if ok {
			b |= 1 << uint(g)
		}
	}
	return b
}

// Rounds returns the plan's round count.
func (ps *PlanScheduler) Rounds() int { return len(ps.p.Rounds) }
