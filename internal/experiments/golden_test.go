package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"chopin/internal/runrec"
)

var updateGolden = flag.Bool("update", false, "re-record golden experiment outputs")

// goldenDir holds the recorded outputs of every registered experiment at
// GoldenOptions. Regenerate with
//
//	go test ./internal/experiments -run Golden -update
//
// or `go run ./cmd/chopinsim -update-golden` from the repository root.
const goldenDir = "testdata/golden"

// runKeysFile pins the run-record rows every experiment writes at
// GoldenOptions: one "experiment/cell/scheme/bench/gpus fingerprint" line
// per simulation, sorted by key. TestGolden re-records it with -update.
const runKeysFile = "testdata/runkeys.txt"

// runKeyLines renders rec's rows as runKeysFile lines.
func runKeyLines(rec *runrec.Record) []string {
	lines := make([]string, len(rec.Rows))
	for i, r := range rec.Rows {
		lines[i] = fmt.Sprintf("%s/%s/%s/%s/%d %s", r.Experiment, r.Cell, r.Scheme, r.Bench, r.GPUs, r.Config)
	}
	return lines
}

// wantRunKeys reads runKeysFile and groups its lines by experiment.
func wantRunKeys(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(runKeysFile)
	if err != nil {
		t.Fatalf("%v — record with `go test ./internal/experiments -run Golden -update`", err)
	}
	want := map[string][]string{}
	for _, l := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		exp, _, _ := strings.Cut(l, "/")
		want[exp] = append(want[exp], l)
	}
	return want
}

// TestGolden re-runs every registered experiment at the canonical golden
// configuration and fails with per-cell diffs if any output drifted from
// its recorded snapshot. This catches unintended behaviour changes anywhere
// in the simulator: cost models, schedulers, the fabric, the rasterizer,
// and the table formatting itself all feed these outputs. The same runs
// must write exactly the run-record rows runKeysFile lists, and each
// experiment must run its simulations as one batch: every progress event
// carries the same Total, equal to the number of events.
func TestGolden(t *testing.T) {
	if *updateGolden {
		opt := GoldenOptions()
		opt.Record = runrec.NewRecorder(runrec.Meta{})
		if err := UpdateGolden(goldenDir, opt); err != nil {
			t.Fatal(err)
		}
		keys := strings.Join(runKeyLines(opt.Record.Record()), "\n") + "\n"
		if err := os.WriteFile(runKeysFile, []byte(keys), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %d golden files in %s and %s", len(IDs()), goldenDir, runKeysFile)
		return
	}
	want := wantRunKeys(t)
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			opt := GoldenOptions()
			opt.Record = runrec.NewRecorder(runrec.Meta{})
			var mu sync.Mutex
			var totals []int
			opt.Progress = func(e ProgressEvent) {
				mu.Lock()
				totals = append(totals, e.Total)
				mu.Unlock()
			}
			diffs, err := CompareGolden(goldenDir, id, opt)
			if err != nil {
				if os.IsNotExist(err) {
					t.Fatalf("no golden file for %s — record with `go test ./internal/experiments -run Golden -update`", id)
				}
				t.Fatal(err)
			}
			if len(diffs) > 0 {
				t.Errorf("%s drifted from its golden output (re-record with -update if intended):\n  %s",
					id, strings.Join(diffs, "\n  "))
			}
			got := runKeyLines(opt.Record.Record())
			if g, w := strings.Join(got, "\n"), strings.Join(want[id], "\n"); g != w {
				t.Errorf("%s run-record keys drifted from %s:\ngot:\n%s\nwant:\n%s", id, runKeysFile, g, w)
			}
			for _, total := range totals {
				if total != len(totals) {
					t.Fatalf("%s: %d progress events with totals %v, want one batch", id, len(totals), totals)
				}
			}
		})
	}
}

// TestGoldenFilesHaveNoStrays ensures every file in the golden directory
// corresponds to a registered experiment, so deleted experiments cannot
// leave stale snapshots that silently stop being checked.
func TestGoldenFilesHaveNoStrays(t *testing.T) {
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Skipf("golden dir unreadable: %v", err)
	}
	known := map[string]bool{}
	for _, id := range IDs() {
		known[id+".txt"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("stray golden file %s has no registered experiment", e.Name())
		}
	}
	for exp := range wantRunKeys(t) {
		if !known[exp+".txt"] {
			t.Errorf("%s lists rows of %s, which is not a registered experiment", runKeysFile, exp)
		}
	}
}
