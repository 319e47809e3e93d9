package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// goodResult is what the test workloads' oracle accepts.
func goodResult() *repResult {
	return &repResult{SetupS: 0.001, AllocBytes: 1 << 20, Cycles: 100, CompBytes: 1 << 20, Frags: 1000, Checksum: 1}
}

func testWorkload(name string, run func(int64) (*repResult, error)) *workload {
	return &workload{
		name:   name,
		run:    run,
		traced: run,
		oracle: func(string, int64) (oracle, error) {
			return func(r *repResult) error {
				if r.Checksum != 1 {
					return fmt.Errorf("checksum %d, want 1", r.Checksum)
				}
				return nil
			}, nil
		},
	}
}

// Test-only workloads: one that succeeds and one for each way a
// repetition can fail. They are registered here so the child processes,
// which are this test binary, find them too.
var (
	okWorkload = testWorkload("test-ok", func(int64) (*repResult, error) { return goodResult(), nil })
	badExit    = testWorkload("test-exit", func(int64) (*repResult, error) {
		return nil, errors.New("injected failure")
	})
	badKill = testWorkload("test-kill", func(int64) (*repResult, error) {
		// What the OOM killer does to a child.
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(time.Minute)
		return nil, errors.New("survived SIGKILL")
	})
	badOracle = testWorkload("test-wrong", func(int64) (*repResult, error) {
		r := goodResult()
		r.Checksum = 2
		return r, nil
	})
	// The flaky workloads fail every second repetition, by erroring out or
	// by returning a wrong output.
	flakyExit = testWorkload("test-flaky", func(int64) (*repResult, error) {
		if nthRun("test-flaky")%2 == 0 {
			return nil, errors.New("injected failure")
		}
		return goodResult(), nil
	})
	flakyWrong = testWorkload("test-flaky-wrong", func(int64) (*repResult, error) {
		r := goodResult()
		if nthRun("test-flaky-wrong")%2 == 0 {
			r.Checksum = 2
		}
		return r, nil
	})
)

func init() {
	workloads = append(workloads, okWorkload, badExit, badKill, badOracle, flakyExit, flakyWrong)
}

// flakyEnv names the directory in which the flaky workloads' children
// count their repetitions.
const flakyEnv = "CHOPINBENCH_TEST_FLAKY_DIR"

// nthRun returns how many repetitions of the named workload have started,
// this one included.
func nthRun(name string) int {
	dir := os.Getenv(flakyEnv)
	f, err := os.CreateTemp(dir, name+"-*")
	if err != nil {
		panic(err)
	}
	f.Close()
	runs, err := filepath.Glob(filepath.Join(dir, name+"-*"))
	if err != nil {
		panic(err)
	}
	return len(runs)
}

func TestFailedRepetitionsCountAndRunContinues(t *testing.T) {
	ts, err := newTallies([]*workload{badExit, okWorkload, badKill, badOracle}, "..", 0)
	if err != nil {
		t.Fatal(err)
	}
	measure(context.Background(), ts, 0, 0, 2, io.Discard)
	want := map[string]struct{ failed, wrong int }{
		"test-exit":  {2, 0},
		"test-ok":    {0, 0},
		"test-kill":  {2, 0},
		"test-wrong": {2, 2},
	}
	for _, tl := range ts {
		w := want[tl.w.name]
		if tl.attempt != 2 || tl.failed != w.failed || tl.wrong != w.wrong {
			t.Errorf("%s: attempted %d, failed %d, wrong %d; want 2, %d, %d",
				tl.w.name, tl.attempt, tl.failed, tl.wrong, w.failed, w.wrong)
		}
		if got := recordRow(tl).Metrics["fail_frac"]; got != float64(w.failed)/2 {
			t.Errorf("%s: fail_frac %g, want %g", tl.w.name, got, float64(w.failed)/2)
		}
	}
	if ok := ts[1]; len(ok.reps) != 2 || ok.reps[0].wall <= 0 || ok.reps[0].maxRSSKB <= 0 {
		t.Errorf("test-ok kept %d repetitions, first %+v", len(ok.reps), ok.reps[0])
	}
}

// runParent runs the benchmark's command line and decodes its result line.
func runParent(t *testing.T, args ...string) (result, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := parentMain(args, &stdout, &stderr, "..")
	var res result
	if code == 0 {
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
			t.Fatalf("result line: %v\nstdout:\n%s", err, stdout.String())
		}
	}
	return res, stdout.String() + stderr.String(), code
}

func TestResultLineCountsFailures(t *testing.T) {
	t.Setenv(flakyEnv, t.TempDir())
	res, out, code := runParent(t, "-workload", "test-flaky", "-seconds", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !res.Correct || res.Attempted < minReps || res.Failed != res.Attempted/2 {
		t.Errorf("result %+v, want correct, at least %d attempted, every second one failed", res, minReps)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("result has %d metrics, want exactly the %d end-to-end ones: %v", len(res.Metrics), len(endToEnd), res.Metrics)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
	if !strings.Contains(out, "fail_frac 0.") {
		t.Errorf("report does not show the failure fraction:\n%s", out)
	}

	res, out, code = runParent(t, "-workload", "test-ok,test-flaky-wrong", "-seconds", "1")
	if code != 0 || res.Correct || res.Failed == 0 {
		t.Errorf("wrong outputs: exit %d, result %+v, want incorrect with failures\n%s", code, res, out)
	}

	for _, w := range []string{"test-exit", "test-kill", "test-wrong"} {
		if _, out, code = runParent(t, "-workload", w, "-seconds", "1"); code == 0 {
			t.Errorf("%s: a workload whose every repetition failed exited 0:\n%s", w, out)
		}
	}
}

func TestBadFlagsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "no-such"},
		{"-workload", "test-ok", "-trace", "2"},
		{"-workload", "test-ok", "-seconds", "0"},
	} {
		if _, out, code := runParent(t, args...); code == 0 {
			t.Errorf("%v exited 0:\n%s", args, out)
		}
	}
}
