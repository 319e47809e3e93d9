package core

import (
	"math/rand"
	"reflect"
	"testing"

	"chopin/internal/composite/plan"
)

// drivePlan runs a plan to completion through the scheduler, asserting port
// exclusivity and round gating at every step, and returns the completed
// session order.
func drivePlan(t *testing.T, p *plan.Plan) []plan.Session {
	t.Helper()
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < p.N; g++ {
		ps.SetReady(g)
	}
	var order []plan.Session
	for steps := 0; !ps.Done(); steps++ {
		if steps > p.N*p.N*len(p.Rounds)+16 {
			t.Fatalf("plan scheduler stalled after %d completed sessions", len(order))
		}
		batch := ps.NextSessions()
		if len(batch) == 0 {
			t.Fatalf("no startable sessions but not done (%d completed)", len(order))
		}
		sending := make(map[int]bool)
		receiving := make(map[int]bool)
		for _, s := range batch {
			if sending[s.Sender] || receiving[s.Receiver] {
				t.Fatalf("batch double-books a port: %+v", s)
			}
			sending[s.Sender] = true
			receiving[s.Receiver] = true
		}
		for _, s := range batch {
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			order = append(order, s)
		}
	}
	if got := len(order); got != p.Sessions() {
		t.Fatalf("completed %d sessions, want %d", got, p.Sessions())
	}
	return order
}

// TestPlanSchedulerAllPlans drives every planner to completion at a spread
// of group sizes, including the 64-GPU scale.
func TestPlanSchedulerAllPlans(t *testing.T) {
	const h = 64
	for _, n := range []int{1, 2, 3, 5, 8, 12, 16, 33, 48, 64} {
		for _, alg := range []plan.Algorithm{plan.AlgDirectSend, plan.AlgBinarySwap, plan.AlgRadixK} {
			p, err := plan.For(alg, n, h, 0)
			if err != nil {
				continue // planner does not support this n
			}
			drivePlan(t, p)
		}
	}
}

// fullScan is the plan scheduler without candidate tracking: every call
// scans the whole plan in round, then session order.
type fullScan struct {
	p                         *plan.Plan
	ready, sending, receiving []bool
	round                     []int
	state                     [][]uint8
	left                      [][]int
}

func newFullScan(p *plan.Plan) *fullScan {
	f := &fullScan{p: p, ready: make([]bool, p.N), sending: make([]bool, p.N),
		receiving: make([]bool, p.N), round: make([]int, p.N)}
	for _, round := range p.Rounds {
		left := make([]int, p.N)
		for _, s := range round {
			left[s.Sender]++
			left[s.Receiver]++
		}
		f.state = append(f.state, make([]uint8, len(round)))
		f.left = append(f.left, left)
	}
	return f
}

func (f *fullScan) advance(g int) {
	for f.round[g] < len(f.p.Rounds) && f.left[f.round[g]][g] == 0 {
		f.round[g]++
	}
}

func (f *fullScan) setReady(g int) {
	f.ready[g] = true
	f.advance(g)
}

func (f *fullScan) next() []plan.Session {
	var out []plan.Session
	for r, round := range f.p.Rounds {
		for i, s := range round {
			if f.state[r][i] == 0 && f.round[s.Sender] == r && f.round[s.Receiver] == r &&
				f.ready[s.Sender] && f.ready[s.Receiver] && !f.sending[s.Sender] && !f.receiving[s.Receiver] {
				f.state[r][i] = 1
				f.sending[s.Sender], f.receiving[s.Receiver] = true, true
				out = append(out, s)
			}
		}
	}
	return out
}

func (f *fullScan) complete(s plan.Session) {
	r := f.round[s.Sender]
	for i, c := range f.p.Rounds[r] {
		if c.Sender == s.Sender && c.Receiver == s.Receiver && f.state[r][i] == 1 {
			f.state[r][i] = 2
			f.sending[s.Sender], f.receiving[s.Receiver] = false, false
			f.left[r][s.Sender]--
			f.left[r][s.Receiver]--
			f.advance(s.Sender)
			f.advance(s.Receiver)
			return
		}
	}
}

// TestPlanSchedulerMatchesFullScan drives the scheduler and a whole-plan
// scan in lockstep through random interleavings of readiness and
// completions: visiting only the sessions of GPUs whose status changed must
// start the same sessions in the same order, on every plan shape.
func TestPlanSchedulerMatchesFullScan(t *testing.T) {
	const h = 40
	var plans []*plan.Plan
	add := func(p *plan.Plan, err error) {
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	add(plan.DirectSend(6, h))
	add(plan.BinarySwap(8, h))
	add(plan.RadixK(16, h, 4))
	add(plan.RadixK(27, h, 3))
	add(plan.BinarySwap(32, h))

	for _, p := range plans {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ps, err := NewPlanScheduler(p)
			if err != nil {
				t.Fatal(err)
			}
			ref := newFullScan(p)
			order := make([]int, p.N)
			for g := range order {
				order[g] = g
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			var inflight []plan.Session
			for steps := 0; !ps.Done(); steps++ {
				if steps > 4*p.Sessions()+p.N {
					t.Fatalf("%s n=%d seed %d: stalled", p.Alg, p.N, seed)
				}
				if len(order) > 0 && (len(inflight) == 0 || rng.Intn(2) == 0) {
					ps.SetReady(order[0])
					ref.setReady(order[0])
					order = order[1:]
				} else if len(inflight) > 0 {
					i := rng.Intn(len(inflight))
					s := inflight[i]
					inflight = append(inflight[:i], inflight[i+1:]...)
					if err := ps.Complete(s); err != nil {
						t.Fatal(err)
					}
					ref.complete(s)
				}
				got, want := ps.NextSessions(), ref.next()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d seed %d: started %v, full scan starts %v", p.Alg, p.N, seed, got, want)
				}
				inflight = append(inflight, got...)
			}
		}
	}
}

// TestPlanSchedulerRoundGating pins that no round-1 session starts before
// both its parties drain round 0: with binary-swap n=4 and only GPUs 0 and
// 1 ready, the pair exchange of round 0 runs between them, but neither may
// enter round 1 (their round-1 peers 2 and 3 are still in round 0).
func TestPlanSchedulerRoundGating(t *testing.T) {
	p, err := plan.BinarySwap(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetReady(0)
	ps.SetReady(1)
	var completed int
	for {
		batch := ps.NextSessions()
		if len(batch) == 0 {
			break
		}
		for _, s := range batch {
			if s.Sender > 1 || s.Receiver > 1 {
				t.Fatalf("session %+v scheduled with GPUs 2,3 not ready", s)
			}
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != 2 {
		t.Fatalf("completed %d sessions with half the group ready, want 2 (the 0↔1 pair)", completed)
	}
	// Round 0's 2↔3 pair and all four round-1 sessions are still pending, and
	// no round is complete group-wide.
	if got := ps.PendingSessions(); got != 6 {
		t.Fatalf("pending sessions after pair exchange = %d, want 6", got)
	}
	if got := ps.CompletedRounds(); got != 0 {
		t.Fatalf("completed rounds after pair exchange = %d, want 0", got)
	}
	if ps.Done() {
		t.Fatal("scheduler done with GPUs 2,3 never ready")
	}
	// The stragglers arrive; the plan must now run to completion.
	ps.SetReady(2)
	ps.SetReady(3)
	for !ps.Done() {
		batch := ps.NextSessions()
		if len(batch) == 0 {
			t.Fatal("stalled after stragglers became ready")
		}
		for _, s := range batch {
			if err := ps.Complete(s); err != nil {
				t.Fatal(err)
			}
			completed++
		}
	}
	if completed != p.Sessions() {
		t.Fatalf("completed %d sessions, want %d", completed, p.Sessions())
	}
}

// TestPlanSchedulerErrors pins the misuse contract.
func TestPlanSchedulerErrors(t *testing.T) {
	if _, err := NewPlanScheduler(nil); err == nil {
		t.Error("NewPlanScheduler(nil): want error")
	}
	p, _ := plan.DirectSend(2, 8)
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	ps.SetReady(0)
	ps.SetReady(1)
	if err := ps.Complete(plan.Session{Sender: 0, Receiver: 1}); err == nil {
		t.Error("Complete before NextSessions: want error")
	}
	batch := ps.NextSessions()
	if len(batch) != 2 {
		t.Fatalf("direct-send n=2 start batch = %d sessions, want 2", len(batch))
	}
	if err := ps.Complete(batch[0]); err != nil {
		t.Fatal(err)
	}
	if err := ps.Complete(batch[0]); err == nil {
		t.Error("double Complete: want error")
	}
}

// TestPlanSchedulerSingleGPU pins the degenerate group: one GPU, no
// sessions, done at SetReady.
func TestPlanSchedulerSingleGPU(t *testing.T) {
	p, err := plan.DirectSend(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Done() {
		t.Fatal("done before SetReady")
	}
	ps.SetReady(0)
	if !ps.Done() {
		t.Fatal("single-GPU group not done after SetReady")
	}
}
