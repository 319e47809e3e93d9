package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyOptions keeps experiment self-tests fast: one small benchmark at a
// small scale.
func tinyOptions() Options {
	return Options{Scale: 0.04, Benchmarks: []string{"cod2"}}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig4", "fig5", "fig8", "fig9", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
		"tab2", "tab3", "sec6d", "sec6e", "sec6f",
		"ext-afr", "ext-reorder", "ext-taxonomy", "scale64",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(IDs()), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", tinyOptions()); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestCheapExperimentsRun exercises the experiments that need no sweeps.
func TestCheapExperimentsRun(t *testing.T) {
	for _, id := range []string{"tab2", "tab3", "sec6d", "sec6e", "sec6f", "fig9"} {
		res, err := Run(id, tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id || res.Table == nil {
			t.Errorf("%s: incomplete result %+v", id, res)
		}
		if len(res.Table.String()) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
}

func TestFig13Structure(t *testing.T) {
	res, err := Run("fig13", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Table.String()
	for _, col := range []string{"GPUpd", "IdealGPUpd", "CHOPIN", "CHOPIN+CompSched", "IdealCHOPIN"} {
		if !strings.Contains(out, col) {
			t.Errorf("fig13 table missing column %s:\n%s", col, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "GMean") {
		t.Errorf("fig13 last row = %q, want GMean", last)
	}
}

func TestFig2SharesIncrease(t *testing.T) {
	res, err := Run("fig2", tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(res.Table.String()), "\n")
	avg := strings.Fields(lines[len(lines)-1])
	if len(avg) != 5 {
		t.Fatalf("avg row = %v", avg)
	}
	prev := -1.0
	for _, cell := range avg[1:] {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("parse %q: %v", cell, err)
		}
		if v <= prev {
			t.Fatalf("geometry share not increasing: %v", avg)
		}
		prev = v
	}
}

// expiringCtx is a context that is live for its first Err call and
// canceled afterwards, so a run sees it canceled only once simulating.
type expiringCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *expiringCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestExtAFRHonorsContext checks that ext-afr stops on a canceled context,
// both before it starts and while its simulations run.
func TestExtAFRHonorsContext(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ctx := range map[string]context.Context{
		"before": canceled,
		"during": &expiringCtx{Context: context.Background()},
	} {
		opt := GoldenOptions()
		opt.Ctx = ctx
		if _, err := Run("ext-afr", opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
