package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chopin/internal/obs"
	"chopin/internal/obs/causal"
)

// writeTemp writes content to a file in a test temp dir and returns its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeTaggedTrace exports a small category-tagged timeline to disk and
// returns its path: two pipeline spans, a barrier joined by the second, and
// a merge the barrier releases.
func writeTaggedTrace(t *testing.T) string {
	t.Helper()
	tr := obs.New()
	geo := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidGeometry, "geometry")
	frag := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidFragment, "fragment")
	bar := tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
	tr.Span(geo, "draw geom", 0, 100, obs.CatArg(obs.CatGeometry), obs.Arg{Key: "draw", Val: 1})
	tr.Span(frag, "draw", 100, 80, obs.CatArg(obs.CatRaster), obs.Arg{Key: "draw", Val: 1})
	tr.Span(bar, "render", 0, 180, obs.CatArg(obs.CatQueueing))
	tr.Span(frag, "merge", 180, 60, obs.CatArg(obs.CatComposition))
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "tagged.json", buf.String())
}

func TestRunEmptyTrace(t *testing.T) {
	for _, tc := range []struct {
		name, content string
	}{
		{"zero-bytes", ""},
		{"whitespace-only", "  \n\t\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, "trace.json", tc.content)
			err := run(io.Discard, path, options{top: 10})
			if !errors.Is(err, obs.ErrEmptyTrace) {
				t.Fatalf("run() = %v, want ErrEmptyTrace", err)
			}
		})
	}
}

func TestRunTruncatedTrace(t *testing.T) {
	for _, tc := range []struct {
		name, content string
	}{
		{"object-form", `{"traceEvents": [{"name": "raster", "ph": "X", "ts": 0, `},
		{"array-form", `[{"name": "raster", "ph": "X"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, "trace.json", tc.content)
			err := run(io.Discard, path, options{top: 10})
			var trunc *obs.TruncatedTraceError
			if !errors.As(err, &trunc) {
				t.Fatalf("run() = %v, want *TruncatedTraceError", err)
			}
		})
	}
}

func TestRunMalformedMidFile(t *testing.T) {
	// Garbage in the middle of an otherwise-complete file is a parse error,
	// not a truncation.
	path := writeTemp(t, "trace.json", `{"traceEvents": [}{]}`)
	err := run(io.Discard, path, options{top: 10})
	if err == nil {
		t.Fatal("run() accepted malformed JSON")
	}
	var trunc *obs.TruncatedTraceError
	if errors.As(err, &trunc) {
		t.Fatalf("mid-file garbage misclassified as truncation: %v", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(io.Discard, filepath.Join(t.TempDir(), "nope.json"), options{top: 10}); err == nil {
		t.Fatal("run() succeeded on a missing file")
	}
}

func TestRunValidTrace(t *testing.T) {
	path := writeTemp(t, "trace.json",
		`{"traceEvents": [{"name": "raster", "ph": "X", "ts": 0, "dur": 100, "pid": 0, "tid": 1}]}`)
	if err := run(io.Discard, path, options{top: 10}); err != nil {
		t.Fatalf("run() on a valid trace: %v", err)
	}
	if err := run(io.Discard, path, options{top: 10, check: true}); err != nil {
		t.Fatalf("run() -check on a valid trace: %v", err)
	}
}

func TestRunCriticalPrintsAttribution(t *testing.T) {
	path := writeTaggedTrace(t)
	var out bytes.Buffer
	if err := run(&out, path, options{top: 10, critical: true}); err != nil {
		t.Fatalf("run() -critical: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"causal critical path: 240 of 240 cycles",
		"bottleneck attribution",
		"geometry", "raster", "composition",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunCriticalCheckGate: -critical -check passes the causal accounting
// gate on a tagged trace, and fails loudly (typed ErrNoCategories) on a
// capture that predates category tagging.
func TestRunCriticalCheckGate(t *testing.T) {
	path := writeTaggedTrace(t)
	var out bytes.Buffer
	if err := run(&out, path, options{top: 10, check: true, critical: true}); err != nil {
		t.Fatalf("run() -critical -check: %v", err)
	}
	if !strings.Contains(out.String(), "attribution sums to makespan") {
		t.Errorf("gate confirmation missing from output:\n%s", out.String())
	}

	untagged := writeTemp(t, "old.json",
		`{"traceEvents": [{"name": "raster", "ph": "X", "ts": 0, "dur": 100, "pid": 0, "tid": 1}]}`)
	err := run(io.Discard, untagged, options{top: 10, check: true, critical: true})
	if !errors.Is(err, causal.ErrNoCategories) {
		t.Fatalf("run() -critical on an untagged trace = %v, want ErrNoCategories", err)
	}
}

// TestRunJSONRoundTrip: -json output is byte-stable across invocations and
// parses back into the digest structure with the causal block intact.
func TestRunJSONRoundTrip(t *testing.T) {
	path := writeTaggedTrace(t)
	var a, b bytes.Buffer
	if err := run(&a, path, options{top: 10, jsonOut: true}); err != nil {
		t.Fatalf("run() -json: %v", err)
	}
	if err := run(&b, path, options{top: 10, jsonOut: true}); err != nil {
		t.Fatalf("run() -json (second): %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("-json output not byte-stable:\n%s\n%s", a.String(), b.String())
	}
	var d jsonDigest
	if err := json.Unmarshal(a.Bytes(), &d); err != nil {
		t.Fatalf("unmarshal -json output: %v", err)
	}
	if d.Events == 0 || len(d.Tracks) == 0 {
		t.Errorf("digest missing summary data: %+v", d)
	}
	if d.Causal == nil {
		t.Fatal("digest missing causal block for a tagged trace")
	}
	if err := d.Causal.Check(); err != nil {
		t.Errorf("round-tripped causal report fails its own invariants: %v", err)
	}
	if d.CriticalPath != d.Causal.CriticalPath {
		t.Errorf("digest critical path %d != causal report %d", d.CriticalPath, d.Causal.CriticalPath)
	}
	if bytes.Contains(a.Bytes(), []byte("what_if")) {
		t.Error("digest still carries a what_if block")
	}
}

// writeFabricTrace exports a timeline with one fabric transfer: an egress
// span on GPU 0 flow-paired to an ingress span on GPU 1.
func writeFabricTrace(t *testing.T) string {
	t.Helper()
	tr := obs.New()
	eg := tr.Track(obs.PidGPU(0), obs.GPUProcName(0), obs.TidEgress, "link egress")
	in := tr.Track(obs.PidGPU(1), obs.GPUProcName(1), obs.TidIngress, "link ingress")
	id := tr.FlowStart(eg, "composition", 0)
	tr.Span(eg, "composition", 0, 100,
		obs.Arg{Key: "bytes", Val: 6400}, obs.Arg{Key: "dst", Val: 1}, obs.Arg{Key: "attempt", Val: 1})
	tr.Span(in, "composition", 200, 100,
		obs.Arg{Key: "bytes", Val: 6400}, obs.Arg{Key: "src", Val: 0}, obs.Arg{Key: "attempt", Val: 1})
	tr.FlowEnd(in, "composition", 200, id)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return writeTemp(t, "fabric.json", buf.String())
}

// TestRunFabric: -fabric prints the channel table and congestion waves, and
// the -json digest carries the fabric block.
func TestRunFabric(t *testing.T) {
	path := writeFabricTrace(t)
	var out bytes.Buffer
	if err := run(&out, path, options{top: 10, fabric: true}); err != nil {
		t.Fatalf("run() -fabric: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"fabric: 1 channels, 1 transfers",
		"g0->g1",
		"congestion waves (1",
		"wire latency",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	var j bytes.Buffer
	if err := run(&j, path, options{top: 10, fabric: true, jsonOut: true}); err != nil {
		t.Fatalf("run() -fabric -json: %v", err)
	}
	var d jsonDigest
	if err := json.Unmarshal(j.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Fabric == nil || d.Fabric.Transfers != 1 || len(d.Fabric.Pairs) != 1 {
		t.Errorf("json digest fabric block = %+v", d.Fabric)
	}
}

// TestRunFabricNoTransferSpans: asking for the fabric breakdown of a trace
// with no transfer spans fails with the typed error — never a zero-row
// table.
func TestRunFabricNoTransferSpans(t *testing.T) {
	path := writeTaggedTrace(t) // pipeline spans only, nothing on the fabric
	err := run(io.Discard, path, options{top: 10, fabric: true})
	if !errors.Is(err, obs.ErrNoTransferSpans) {
		t.Fatalf("run() -fabric on a fabric-less trace = %v, want ErrNoTransferSpans", err)
	}
	// Without -fabric the same trace still summarizes fine.
	if err := run(io.Discard, path, options{top: 10}); err != nil {
		t.Fatalf("run() without -fabric: %v", err)
	}
}

// TestRunJSONUntagged: -json on a capture without categories still works,
// omitting the causal block rather than failing.
func TestRunJSONUntagged(t *testing.T) {
	path := writeTemp(t, "old.json",
		`{"traceEvents": [{"name": "raster", "ph": "X", "ts": 0, "dur": 100, "pid": 0, "tid": 1}]}`)
	var out bytes.Buffer
	if err := run(&out, path, options{top: 10, jsonOut: true}); err != nil {
		t.Fatalf("run() -json on untagged trace: %v", err)
	}
	var d jsonDigest
	if err := json.Unmarshal(out.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Causal != nil {
		t.Error("untagged trace produced a causal block")
	}
	if d.CriticalPath != 0 {
		t.Errorf("critical path = %d without dependency info, want 0", d.CriticalPath)
	}
}
