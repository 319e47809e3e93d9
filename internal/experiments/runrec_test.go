package experiments

import (
	"bytes"
	"sync"
	"testing"

	"chopin/internal/runrec"
)

// TestRunRecordDeterministic pins the run-record determinism contract the
// CI byte-compares: two same-seed runs of the same experiment produce
// byte-identical records, regardless of worker scheduling.
func TestRunRecordDeterministic(t *testing.T) {
	capture := func(workers int) []byte {
		opt := GoldenOptions()
		opt.Workers = workers
		opt.Record = runrec.NewRecorder(runrec.Meta{Tool: "test", GitRev: "x", Scale: opt.Scale})
		if _, err := Run("fig2", opt); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := opt.Record.Record().Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := capture(1)
	second := capture(4) // different worker count reorders completion
	if !bytes.Equal(first, second) {
		t.Fatalf("run records differ across identical runs:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if len(first) == 0 {
		t.Fatal("empty record")
	}
}

// TestRunRecordRows checks the harness writes one complete row per
// simulation with the experiment key and a config fingerprint.
func TestRunRecordRows(t *testing.T) {
	opt := GoldenOptions()
	opt.Record = runrec.NewRecorder(runrec.Meta{Tool: "test"})
	// Progress runs on the worker goroutines (Options.Progress).
	var mu sync.Mutex
	var events []ProgressEvent
	opt.Progress = func(e ProgressEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	if _, err := Run("fig2", opt); err != nil {
		t.Fatal(err)
	}
	rec := opt.Record.Record()
	// fig2 runs Duplication at 1/2/4/8 GPUs over one benchmark.
	if len(rec.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rec.Rows))
	}
	if err := rec.Validate(); err != nil {
		t.Fatal(err)
	}
	gpus := map[int]bool{}
	for _, r := range rec.Rows {
		if r.Experiment != "fig2" || r.Scheme != "Duplication" || r.Bench != "cod2" {
			t.Fatalf("row key = %v", r.Key)
		}
		if len(r.Config) != 16 {
			t.Fatalf("config fingerprint = %q", r.Config)
		}
		if r.Metrics["total_cycles"] <= 0 {
			t.Fatalf("row %v has no cycles", r.Key)
		}
		gpus[r.GPUs] = true
	}
	for _, n := range []int{1, 2, 4, 8} {
		if !gpus[n] {
			t.Errorf("missing row at %d GPUs", n)
		}
	}
	// Progress events cover every simulation, counting done 1..total once
	// each. Concurrent workers may deliver them out of order.
	if len(events) != 4 {
		t.Fatalf("%d progress events, want 4", len(events))
	}
	seen := map[int]bool{}
	for _, e := range events {
		if e.Total != 4 || e.Experiment != "fig2" || e.Done < 1 || e.Done > e.Total || seen[e.Done] {
			t.Fatalf("progress event = %+v among %+v", e, events)
		}
		seen[e.Done] = true
	}
}

// TestFingerprintStability: the fingerprint must ignore runtime attachments
// (tracer, cancel, faults) but react to architectural knobs.
func TestFingerprintStability(t *testing.T) {
	opt := GoldenOptions()
	a := opt.baseConfig()
	b := opt.baseConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	b.Verify = true // runtime attachment, not architecture
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("Verify must not change the fingerprint")
	}
	c := opt.baseConfig()
	c.NumGPUs = 16
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("architectural change must change the fingerprint")
	}
}
