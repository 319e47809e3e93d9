package core

import (
	"math/rand"
	"reflect"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite/plan"
	"chopin/internal/gpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/vecmath"
)

func draw(tris int) primitive.DrawCommand {
	return primitive.DrawCommand{
		Tris:  make([]primitive.Triangle, tris),
		Model: vecmath.Identity(),
		State: primitive.DefaultState(),
	}
}

func TestRoundRobin(t *testing.T) {
	s := NewRoundRobin(3)
	var got []int
	for i := 0; i < 6; i++ {
		got = append(got, s.Assign(10, 0))
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignments = %v", got)
		}
	}
	if s.Name() == "" {
		t.Error("scheduler must have a name")
	}
}

// mkGPUs builds n idle GPUs on a shared engine.
func mkGPUs(n int) (*sim.Engine, []*gpu.GPU) {
	eng := sim.New()
	gpus := make([]*gpu.GPU, n)
	for i := range gpus {
		gp, err := gpu.New(i, eng, gpu.DefaultCosts(), 128, 128, raster.DefaultConfig())
		if err != nil {
			panic(err)
		}
		gpus[i] = gp
	}
	return eng, gpus
}

func TestLeastLoadedBalancesStatic(t *testing.T) {
	_, gpus := mkGPUs(4)
	s := NewLeastLoaded(gpus, 1, 0)
	// With no execution progress, assignment is greedy by scheduled count.
	loads := make([]int64, 4)
	sizes := []int{100, 50, 50, 10, 10, 10, 10, 200}
	for _, sz := range sizes {
		g := s.Assign(sz, 0)
		loads[g] += int64(sz)
	}
	// Greedy: 100→0, 50→1, 50→2, 10→3 ×4? (3 has 10, then mins...) just
	// check balance: max-min spread far below a single-GPU pileup.
	var mn, mx int64 = 1 << 60, 0
	for _, l := range loads {
		if l < mn {
			mn = l
		}
		if l > mx {
			mx = l
		}
	}
	if mx-mn > 200 {
		t.Errorf("loads unbalanced: %v", loads)
	}
}

func TestLeastLoadedUsesProgress(t *testing.T) {
	eng, gpus := mkGPUs(2)
	s := NewLeastLoaded(gpus, 1, 0)
	// GPU0 is assigned a large draw.
	g := s.Assign(1000, 0)
	if g != 0 {
		t.Fatalf("first assignment to %d", g)
	}
	// Before any processing, the next draw goes to GPU1.
	if g := s.Assign(10, 0); g != 1 {
		t.Fatalf("second assignment to %d", g)
	}
	_ = eng
	// Remaining accounting matches.
	if rem := s.Remaining(0, 0); rem != 1000 {
		t.Errorf("Remaining(0) = %d", rem)
	}
	if rem := s.Remaining(1, 0); rem != 10 {
		t.Errorf("Remaining(1) = %d", rem)
	}
}

func TestLeastLoadedNoteDuplicated(t *testing.T) {
	_, gpus := mkGPUs(2)
	s := NewLeastLoaded(gpus, 1, 0)
	s.NoteDuplicated(500)
	if s.Remaining(0, 0) != 500 || s.Remaining(1, 0) != 500 {
		t.Errorf("remaining after duplication: %d %d", s.Remaining(0, 0), s.Remaining(1, 0))
	}
}

func TestUpdateTrafficBytes(t *testing.T) {
	// Section VI-D: 4 KB for 1 M triangles at 1024-triangle intervals.
	if got := UpdateTrafficBytes(1_000_000, 1024); got != 4*976 {
		t.Errorf("1M tris @1024 = %d bytes", got)
	}
	if got := UpdateTrafficBytes(1_000_000_000, 1024); got != 4*976562 {
		t.Errorf("1B tris @1024 = %d bytes", got)
	}
	if got := UpdateTrafficBytes(100, 0); got != 400 {
		t.Errorf("interval 0 should clamp to 1: %d", got)
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	c := Cost(8)
	// Section VI-F: 128 bytes for the draw scheduler, 27 bytes for the
	// composition scheduler in an 8-GPU system.
	if c.DrawSchedulerBytes != 128 {
		t.Errorf("draw scheduler = %d bytes, want 128", c.DrawSchedulerBytes)
	}
	if c.CompSchedulerBytes != 27 {
		t.Errorf("composition scheduler = %d bytes, want 27", c.CompSchedulerBytes)
	}
}

func TestPlanThreshold(t *testing.T) {
	draws := []primitive.DrawCommand{draw(10), draw(10), draw(5000)}
	draws[2].State.DepthFunc = colorspace.CmpLessEqual // boundary before it
	steps := Plan(draws, 4096)
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if !steps[0].Duplicate {
		t.Error("small group should revert to duplication")
	}
	if steps[1].Duplicate {
		t.Error("large group should be accelerated")
	}
	st := Summarize(steps)
	if st.Groups != 2 || st.Accelerated != 1 || st.TrianglesAccel != 5000 || st.TrianglesTotal != 5020 {
		t.Errorf("summary = %+v", st)
	}
}

func TestDivideRangePreservesOrderAndBalance(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(8)
		count := r.Intn(40)
		draws := make([]primitive.DrawCommand, count)
		total := 0
		for i := range draws {
			draws[i] = draw(1 + r.Intn(50))
			total += draws[i].TriangleCount()
		}
		chunks, err := DivideRange(draws, 0, count, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != n {
			t.Fatalf("chunks = %d, want %d", len(chunks), n)
		}
		pos := 0
		for _, c := range chunks {
			if c[0] != pos {
				t.Fatalf("chunk start %d, want %d (chunks %v)", c[0], pos, chunks)
			}
			if c[1] < c[0] {
				t.Fatalf("negative chunk %v", c)
			}
			pos = c[1]
		}
		if pos != count {
			t.Fatalf("chunks end at %d, want %d", pos, count)
		}
		// Balance: no chunk exceeds 2×(total/n) + the largest draw.
		if count >= n && n > 1 {
			maxDraw := 0
			for i := range draws {
				if draws[i].TriangleCount() > maxDraw {
					maxDraw = draws[i].TriangleCount()
				}
			}
			for _, c := range chunks {
				sum := 0
				for i := c[0]; i < c[1]; i++ {
					sum += draws[i].TriangleCount()
				}
				if sum > 2*total/n+maxDraw {
					t.Fatalf("chunk %v holds %d of %d triangles", c, sum, total)
				}
			}
		}
	}
}

// compScheduler returns the composition scheduler for an n-GPU
// direct-send exchange.
func compScheduler(t *testing.T, n int) *PlanScheduler {
	t.Helper()
	p, err := plan.DirectSend(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPlanScheduler(p)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestCompositionSchedulerFullExchange(t *testing.T) {
	const n = 4
	if got := len(driveFullExchange(t, n)); got != n*(n-1) {
		t.Errorf("transfers = %d, want %d", got, n*(n-1))
	}
}

// TestCompositionSchedulerArbitrationOrder pins the Fig. 12 fixed-priority
// arbiter: scanning ascending senders, each free sender takes the
// lowest-numbered ready receiver whose ingress is free and that it has not
// yet sent to. With four ready GPUs the first batch is therefore 0→1, 1→0,
// 2→3, 3→2, and once it drains the second is 0→2, 1→3, 2→0, 3→1. CHOPIN's
// composition cycles depend on this order.
func TestCompositionSchedulerArbitrationOrder(t *testing.T) {
	ps := compScheduler(t, 4)
	for g := 0; g < 4; g++ {
		ps.SetReady(g)
	}
	pairs := func(ss []plan.Session) [][2]int {
		var out [][2]int
		for _, s := range ss {
			out = append(out, [2]int{s.Sender, s.Receiver})
		}
		return out
	}
	first := ps.NextSessions()
	if got, want := pairs(first), [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first batch = %v, want %v", got, want)
	}
	for _, s := range first {
		if err := ps.Complete(s); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := pairs(ps.NextSessions()), [][2]int{{0, 2}, {1, 3}, {2, 0}, {3, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("second batch = %v, want %v", got, want)
	}
}

func TestCompositionSchedulerPortExclusivity(t *testing.T) {
	ps := compScheduler(t, 4)
	for g := 0; g < 4; g++ {
		ps.SetReady(g)
	}
	sessions := ps.NextSessions()
	sendBusy := map[int]bool{}
	recvBusy := map[int]bool{}
	for _, s := range sessions {
		if sendBusy[s.Sender] {
			t.Errorf("sender %d double-booked", s.Sender)
		}
		if recvBusy[s.Receiver] {
			t.Errorf("receiver %d double-booked", s.Receiver)
		}
		sendBusy[s.Sender] = true
		recvBusy[s.Receiver] = true
	}
	if len(sessions) == 0 {
		t.Fatal("no sessions scheduled among 4 ready GPUs")
	}
}

func TestCompositionSchedulerRespectsReadiness(t *testing.T) {
	ps := compScheduler(t, 3)
	ps.SetReady(0)
	// Only GPU0 ready: nothing can pair.
	if got := ps.NextSessions(); len(got) != 0 {
		t.Errorf("sessions with one ready GPU = %v", got)
	}
	ps.SetReady(1)
	// Links are full duplex: both directions of the pair start together.
	got := ps.NextSessions()
	if len(got) != 2 {
		t.Fatalf("sessions = %v, want both directions", got)
	}
	if got[0].Sender != 0 || got[0].Receiver != 1 || got[1].Sender != 1 || got[1].Receiver != 0 {
		t.Errorf("sessions = %v", got)
	}
	for _, s := range got {
		if err := ps.Complete(s); err != nil {
			t.Fatal(err)
		}
	}
	// GPU2 never became ready, so the exchange is not globally done.
	if ps.Done() {
		t.Error("scheduler done with GPU2 outstanding")
	}
}

func TestCompositionSchedulerCompleteUnscheduledErrors(t *testing.T) {
	ps := compScheduler(t, 2)
	if err := ps.Complete(plan.Session{Sender: 0, Receiver: 1}); err == nil {
		t.Error("expected error for unscheduled completion")
	}
	if err := ps.Complete(plan.Session{Sender: 2, Receiver: 0}); err == nil {
		t.Error("expected error for an out-of-range sender")
	}
}

func TestTransparentComposerChain(t *testing.T) {
	const n = 4
	tc := NewTransparentComposer(n)
	for g := 0; g < n; g++ {
		tc.SetReady(g)
	}
	merges := 0
	for !tc.Done() {
		ms := tc.NextMerges()
		if len(ms) == 0 {
			t.Fatal("no merges possible but not done")
		}
		for _, m := range ms {
			// Front range must start right after back range.
			// A holder that merged away has lo < 0.
			if tc.lo[m.To] < 0 || tc.lo[m.From] < 0 || tc.lo[m.From] != tc.hi[m.To]+1 {
				t.Fatalf("non-adjacent merge %+v", m)
			}
			tc.Complete(m)
			merges++
		}
	}
	if merges != n-1 {
		t.Errorf("merges = %d, want %d", merges, n-1)
	}
	holder, ok := tc.FinalHolder()
	if !ok || holder != 0 {
		t.Errorf("final holder = %d, %v", holder, ok)
	}
}

func TestTransparentComposerPartialReadiness(t *testing.T) {
	tc := NewTransparentComposer(4)
	tc.SetReady(1)
	tc.SetReady(2)
	// Only 1 and 2 ready: exactly the (2→1) merge is available.
	ms := tc.NextMerges()
	if len(ms) != 1 || ms[0].From != 2 || ms[0].To != 1 {
		t.Fatalf("merges = %v", ms)
	}
	tc.Complete(ms[0])
	// Now GPU1 holds [1,2]; nothing else ready.
	if ms := tc.NextMerges(); len(ms) != 0 {
		t.Errorf("unexpected merges %v", ms)
	}
	tc.SetReady(0)
	tc.SetReady(3)
	// 0 can absorb [1,2], 3 not adjacent to 0's [0,0]... after first merge
	// 0 holds [0,2] and then absorbs 3.
	total := 0
	for !tc.Done() {
		ms := tc.NextMerges()
		if len(ms) == 0 {
			t.Fatal("stalled")
		}
		for _, m := range ms {
			tc.Complete(m)
			total++
		}
	}
	if total != 2 {
		t.Errorf("remaining merges = %d, want 2", total)
	}
}

func TestTransparentComposerParallelMerges(t *testing.T) {
	tc := NewTransparentComposer(4)
	for g := 0; g < 4; g++ {
		tc.SetReady(g)
	}
	// All ready: (1→0) and (3→2) can run in parallel.
	ms := tc.NextMerges()
	if len(ms) != 2 {
		t.Fatalf("parallel merges = %v", ms)
	}
}

func TestTransparentComposerCompleteUnscheduledErrors(t *testing.T) {
	tc := NewTransparentComposer(2)
	if err := tc.Complete(Merge{From: 1, To: 0}); err == nil {
		t.Error("expected error for unscheduled merge")
	}
}
