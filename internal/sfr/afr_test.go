package sfr

import (
	"strings"
	"testing"

	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/stats"
	"chopin/internal/trace"
)

func TestGenerateSequenceSharesGeometry(t *testing.T) {
	b, _ := trace.ByName("cod2")
	seq := trace.GenerateSequence(b, 0.03, 4)
	if len(seq) != 4 {
		t.Fatalf("frames = %d", len(seq))
	}
	for i := 1; i < 4; i++ {
		if seq[i].TriangleCount() != seq[0].TriangleCount() {
			t.Error("frames should share geometry")
		}
		if seq[i].View == seq[0].View {
			t.Error("camera should move between frames")
		}
	}
}

func TestAFRBasicProperties(t *testing.T) {
	b, _ := trace.ByName("cod2")
	seq := trace.GenerateSequence(b, 0.03, 6)
	cfg := testConfig(4)
	sys := newSysFor(t, cfg, seq)
	st, err := RunAFR(sys, seq)
	if err != nil {
		t.Fatal(err)
	}

	if st.Frames() != 6 {
		t.Fatalf("frames = %d", st.Frames())
	}
	// Every frame completes after it was issued.
	for i := range st.Complete {
		if st.Complete[i] <= st.IssueStart[i] {
			t.Errorf("frame %d: complete %d <= issue %d", i, st.Complete[i], st.IssueStart[i])
		}
	}
	// Display times are monotonic.
	for i := 1; i < st.Frames(); i++ {
		if st.Display[i] < st.Display[i-1] {
			t.Errorf("display order violated at %d", i)
		}
	}
	if st.TotalCycles != st.Display[st.Frames()-1] {
		t.Error("TotalCycles should equal the last display time")
	}
	if st.AvgFrameInterval() <= 0 || st.MaxFrameInterval() <= 0 || st.AvgLatency() <= 0 {
		t.Errorf("metrics: avg=%v max=%v lat=%v", st.AvgFrameInterval(), st.MaxFrameInterval(), st.AvgLatency())
	}
}

// newSysFor builds a system sized for the sequence's resolution.
func newSysFor(t *testing.T, cfg multigpu.Config, seq []*primitive.Frame) *multigpu.System {
	t.Helper()
	sys, err := multigpu.New(cfg, seq[0].Width, seq[0].Height)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAFRVsSFRTradeoffs checks the paper's Section I claims: AFR has a
// better (or equal) average frame interval than running CHOPIN frames
// back-to-back, but a worse per-frame latency.
func TestAFRVsSFRTradeoffs(t *testing.T) {
	b, _ := trace.ByName("wolf")
	seq := trace.GenerateSequence(b, 0.05, 8)
	cfg := testConfig(4)

	sys := newSysFor(t, cfg, seq)
	afr, err := RunAFR(sys, seq)
	if err != nil {
		t.Fatal(err)
	}
	chop, err := RunSFRSequence(cfg, CHOPIN{}, seq)
	if err != nil {
		t.Fatal(err)
	}

	if afr.AvgFrameInterval() >= chop.AvgFrameInterval() {
		t.Errorf("AFR avg interval (%v) should beat sequential SFR (%v)",
			afr.AvgFrameInterval(), chop.AvgFrameInterval())
	}
	if afr.AvgLatency() <= chop.AvgLatency() {
		t.Errorf("AFR latency (%v) should exceed SFR latency (%v)",
			afr.AvgLatency(), chop.AvgLatency())
	}
}

func TestSFRSequenceUniformIntervals(t *testing.T) {
	b, _ := trace.ByName("cod2")
	seq := trace.GenerateSequence(b, 0.03, 3)
	st, err := RunSFRSequence(testConfig(2), Duplication{}, seq)
	if err != nil {
		t.Fatal(err)
	}
	// For SFR, latency equals the frame interval (no overlap): display gaps
	// equal per-frame durations exactly.
	for i := range st.Complete {
		if st.Display[i] != st.Complete[i] {
			t.Errorf("frame %d: display %d != complete %d", i, st.Display[i], st.Complete[i])
		}
	}
}

// violatingScheme runs Duplication and reports an invariant violation on
// its frame number bad, as a verified run of a faulty scheme would.
type violatingScheme struct {
	Duplication
	runs *int
	bad  int
}

func (v violatingScheme) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	st, err := v.Duplication.Run(sys, fr)
	if *v.runs == v.bad {
		st.Violations = append(st.Violations, "injected violation")
	}
	*v.runs++
	return st, err
}

func TestSFRSequenceFailsOnViolation(t *testing.T) {
	b, _ := trace.ByName("cod2")
	seq := trace.GenerateSequence(b, 0.03, 3)
	st, err := RunSFRSequence(testConfig(2), violatingScheme{runs: new(int), bad: 1}, seq)
	if err == nil || !strings.Contains(err.Error(), "frame 1: 1 invariant violation(s): injected violation") {
		t.Fatalf("err = %v, want frame 1's violation", err)
	}
	if st.Complete[0] == 0 || st.Complete[1] != 0 {
		t.Errorf("partial sequence = %v, want frame 0 only", st.Complete)
	}
}
