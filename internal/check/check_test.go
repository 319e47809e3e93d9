package check

import (
	"strings"
	"testing"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/sim"
)

func TestCheckerStartsClean(t *testing.T) {
	c := New()
	if !c.Ok() || c.Err() != nil || len(c.Violations()) != 0 {
		t.Fatal("fresh checker should have no violations")
	}
}

func TestViolationCap(t *testing.T) {
	c := New()
	for i := 0; i < maxDetailed+10; i++ {
		c.Violatef("violation %d", i)
	}
	v := c.Violations()
	if len(v) != maxDetailed+1 {
		t.Fatalf("violations = %d, want %d detailed + 1 summary", len(v), maxDetailed)
	}
	if !strings.Contains(v[len(v)-1], "10 further") {
		t.Errorf("missing suppression summary: %q", v[len(v)-1])
	}
	if c.Err() == nil {
		t.Error("Err should be non-nil with violations")
	}
}

func TestConservationThroughFabric(t *testing.T) {
	eng := sim.New()
	f, err := interconnect.New(eng, 3, interconnect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	f.SetObserver(c)
	eng.SetWatcher(c.EventWatcher())

	delivered := 0
	f.Send(0, 1, 4096, interconnect.ClassComposition, func() { delivered++ })
	f.Send(1, 2, 128, interconnect.ClassSync, func() { delivered++ })
	f.SendControl(2, 0, 8, func() { delivered++ })
	eng.Run()

	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
	c.VerifyConservation()
	if err := c.Err(); err != nil {
		t.Fatalf("conserved run reported violations: %v", err)
	}
	if c.events == 0 {
		t.Error("event watcher observed no events")
	}
}

func TestConservationCatchesStrandedTransfer(t *testing.T) {
	eng := sim.New()
	f, err := interconnect.New(eng, 2, interconnect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	f.SetObserver(c)

	// The destination never accepts, so the transfer is stranded in the
	// egress queue: sent but never delivered.
	f.SetAccept(1, false)
	f.Send(0, 1, 1024, interconnect.ClassComposition, nil)
	eng.Run()

	c.VerifyConservation()
	if c.Ok() {
		t.Fatal("stranded transfer not reported")
	}
	if v := c.Violations()[0]; !strings.Contains(v, "1 transfers sent but 0 delivered") {
		t.Errorf("unexpected violation text: %q", v)
	}
}

func TestEventWatcherFlagsTimeTravel(t *testing.T) {
	c := New()
	w := c.EventWatcher()
	w(10)
	w(10)
	w(20)
	if !c.Ok() {
		t.Fatalf("monotone times flagged: %v", c.Violations())
	}
	w(5)
	if c.Ok() {
		t.Fatal("backwards event time not flagged")
	}
}

// fill writes a deterministic pattern of colours and depths into a buffer.
func fill(b *framebuffer.Buffer, seed int) {
	for y := 0; y < b.Height(); y++ {
		for x := 0; x < b.Width(); x++ {
			v := float64((x*31+y*17+seed*101)%256) / 256
			b.Set(x, y, colorspace.Opaque(v, 1-v, v*v))
			b.SetDepth(x, y, v)
		}
	}
}

func TestCheckedDepthMergeMatchesPlain(t *testing.T) {
	const w, h = 70, 66 // exercises partial edge tiles
	dst1, dst2 := framebuffer.MustNew(w, h), framebuffer.MustNew(w, h)
	src := framebuffer.MustNew(w, h)
	fill(dst1, 1)
	fill(dst2, 1)
	fill(src, 2)

	c := New()
	pxChecked := c.DepthMerge(dst1, src, colorspace.CmpLess, nil)
	pxPlain := composite.DepthMerge(dst2, src, colorspace.CmpLess, nil)
	if pxChecked != pxPlain {
		t.Errorf("pixel counts differ: checked %d, plain %d", pxChecked, pxPlain)
	}
	if !dst1.Equal(dst2, 0) {
		t.Error("checked merge produced a different buffer than the plain merge")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("correct merge reported violations: %v", err)
	}
}

func TestVerifyImage(t *testing.T) {
	a, b := framebuffer.MustNew(96, 64), framebuffer.MustNew(96, 64)
	fill(a, 3)
	fill(b, 3)
	c := New()
	c.VerifyImage("rt0", a, b, DefaultImageEps)
	if !c.Ok() {
		t.Fatalf("identical images flagged: %v", c.Violations())
	}

	b.Set(17, 23, colorspace.Opaque(1, 0, 0))
	c.VerifyImage("rt0", a, b, DefaultImageEps)
	if c.Ok() {
		t.Fatal("perturbed pixel not flagged")
	}
	v := c.Violations()[0]
	for _, want := range []string{"rt0", "(17,23)", "1 of"} {
		if !strings.Contains(v, want) {
			t.Errorf("violation %q missing %q", v, want)
		}
	}
}

func TestVerifyImageDimensionMismatch(t *testing.T) {
	c := New()
	c.VerifyImage("rt0", framebuffer.MustNew(8, 8), framebuffer.MustNew(16, 8), 0)
	if c.Ok() {
		t.Fatal("dimension mismatch not flagged")
	}
}

func TestDiffTablesIdentical(t *testing.T) {
	s := "bench  cycles\n-----  ------\ncod2   123\n"
	if d := DiffTables(s, s); d != nil {
		t.Fatalf("identical tables diffed: %v", d)
	}
}

func TestDiffTablesNamesRowAndColumn(t *testing.T) {
	want := "bench  GPUpd  CHOPIN\n-----  -----  ------\ncod2   1.030  0.823\nGMean  1.030  0.823\n"
	got := "bench  GPUpd  CHOPIN\n-----  -----  ------\ncod2   1.030  0.991\nGMean  1.030  0.991\n"
	d := DiffTables(want, got)
	if len(d) != 2 {
		t.Fatalf("diffs = %v, want 2", d)
	}
	for _, frag := range []string{`row "cod2"`, `column "CHOPIN"`, `golden "0.823"`, `got "0.991"`} {
		if !strings.Contains(d[0], frag) {
			t.Errorf("diff %q missing %q", d[0], frag)
		}
	}
}

func TestDiffTablesMissingLine(t *testing.T) {
	want := "a  b\n-  -\n1  2\n3  4\n"
	got := "a  b\n-  -\n1  2\n"
	d := DiffTables(want, got)
	if len(d) != 1 || !strings.Contains(d[0], "missing line") {
		t.Fatalf("diffs = %v", d)
	}
}

func TestDiffTablesMultiWordCells(t *testing.T) {
	want := "update interval  CHOPIN\n---------------  ------\nevery 1 tris     0.818\n"
	got := "update interval  CHOPIN\n---------------  ------\nevery 1 tris     0.523\n"
	d := DiffTables(want, got)
	if len(d) != 1 {
		t.Fatalf("diffs = %v", d)
	}
	if !strings.Contains(d[0], `row "every 1 tris"`) || !strings.Contains(d[0], `column "CHOPIN"`) {
		t.Errorf("diff %q did not resolve multi-word cells", d[0])
	}
}
