// Chaos harness: randomized, seed-driven fault schedules swept across every
// rendering scheme. The contract under chaos is strict — each run must either
// complete with a pixel-perfect golden image (recovery masked every fault) or
// fail with a typed, diagnosable error. A panic or a hang is always a bug.
package fault_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"chopin/internal/exec"
	"chopin/internal/fault"
	"chopin/internal/framebuffer"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/sfr"
	"chopin/internal/trace"
)

const (
	chaosGPUs  = 4
	chaosBench = "cod2"
	chaosScale = 0.02
	// chaosSeeds is the default seed sweep; -short trims it for quick runs.
	chaosSeeds      = 100
	chaosSeedsShort = 10
)

// chaosEnv is the shared workload: one reduced frame, its sequential
// reference image, and the scheme roster.
type chaosEnv struct {
	fr  *primitive.Frame
	ref *framebuffer.Buffer
}

var chaosCache *chaosEnv

func chaosSetup(t *testing.T) *chaosEnv {
	t.Helper()
	if chaosCache != nil {
		return chaosCache
	}
	b, err := trace.ByName(chaosBench)
	if err != nil {
		t.Fatal(err)
	}
	fr := trace.Generate(b, chaosScale)
	cfg := chaosConfig(nil)
	chaosCache = &chaosEnv{fr: fr, ref: sfr.ReferenceImages(fr, cfg.Raster)[0]}
	return chaosCache
}

func chaosConfig(plan *fault.Plan) multigpu.Config {
	cfg := multigpu.DefaultConfig()
	cfg.NumGPUs = chaosGPUs
	cfg.GroupThreshold = 256
	cfg.Faults = plan
	return cfg
}

// typedChaosError reports whether err is one of the typed failures the fault
// subsystem is allowed to surface.
func typedChaosError(err error) bool {
	var (
		unsupported *sfr.UnsupportedDegradedError
		deadlock    *exec.DeadlockError
		stuck       *exec.StuckError
		canceled    *exec.CanceledError
		lost        *interconnect.LostTransferError
		selfSend    *interconnect.SelfSendError
		unroutable  *interconnect.UnroutableError
	)
	return errors.As(err, &unsupported) || errors.As(err, &deadlock) ||
		errors.As(err, &stuck) || errors.As(err, &canceled) ||
		errors.As(err, &lost) || errors.As(err, &selfSend) ||
		errors.As(err, &unroutable)
}

// chaosResult is one run's outcome, comparable across repeat runs of the
// same seed for the determinism check.
type chaosResult struct {
	cycles   int64
	checksum uint64
	errText  string
	// lost counts the transfers the injector dropped or corrupted.
	lost int64
}

// runChaosOne executes one scheme under one fault plan, converting panics
// into test failures and classifying the outcome. Single-frame schemes are
// golden-checked on success; AFR checks sequence-level invariants instead.
func runChaosOne(t *testing.T, env *chaosEnv, scheme string, plan *fault.Plan) chaosResult {
	t.Helper()
	return runChaosOneWith(t, env, scheme, plan, nil)
}

// runChaosOneWith is runChaosOne with a config hook, letting matrix sweeps
// vary topology and exchange plan while keeping the golden-or-typed contract.
func runChaosOneWith(t *testing.T, env *chaosEnv, scheme string, plan *fault.Plan, mutate func(*multigpu.Config)) (res chaosResult) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s seed %d: panic: %v", scheme, plan.Seed, r)
		}
	}()
	cfg := chaosConfig(plan)
	if mutate != nil {
		mutate(&cfg)
	}

	if scheme == "AFR" {
		sys, err := multigpu.New(cfg, env.fr.Width, env.fr.Height)
		if err != nil {
			t.Errorf("AFR seed %d: New: %v", plan.Seed, err)
			return res
		}
		st, err := sfr.RunAFR(sys, []*primitive.Frame{env.fr, env.fr, env.fr})
		res.cycles = int64(st.TotalCycles)
		if err != nil {
			res.errText = err.Error()
			if !typedChaosError(err) && !strings.Contains(err.Error(), "GPUs failed") {
				t.Errorf("AFR seed %d: untyped error: %v", plan.Seed, err)
			}
			return res
		}
		if st.Frames() != 3 || st.TotalCycles <= 0 {
			t.Errorf("AFR seed %d: incomplete sequence: %d frames in %d cycles",
				plan.Seed, st.Frames(), st.TotalCycles)
		}
		if st.GPUsFailed > 0 && st.FramesReissued == 0 && anyInFlightLoss(st) {
			t.Errorf("AFR seed %d: GPU failed mid-sequence but nothing was reissued", plan.Seed)
		}
		return res
	}

	var s sfr.Scheme
	switch scheme {
	case "Duplication":
		s = sfr.Duplication{}
	case "GPUpd":
		s = sfr.GPUpd{}
	case "SortMiddle":
		s = sfr.SortMiddle{}
	case "CHOPIN":
		s = sfr.CHOPIN{}
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	sys, err := multigpu.New(cfg, env.fr.Width, env.fr.Height)
	if err != nil {
		t.Errorf("%s seed %d: New: %v", scheme, plan.Seed, err)
		return res
	}
	st, err := s.Run(sys, env.fr)
	if st != nil {
		res.cycles = int64(st.TotalCycles)
		res.lost = st.Faults.Drops + st.Faults.Corrupts
	}
	if err != nil {
		res.errText = err.Error()
		if !typedChaosError(err) && !strings.Contains(err.Error(), "GPUs failed") {
			t.Errorf("%s seed %d: untyped error: %v", scheme, plan.Seed, err)
		}
		return res
	}
	img := sys.AssembleImage(0)
	res.checksum = img.Checksum()
	if !img.Equal(env.ref, 1e-9) {
		t.Errorf("%s seed %d: recovered image differs from reference in %d pixels (faults %+v, failed %d)",
			scheme, plan.Seed, img.DiffCount(env.ref, 1e-9), st.Faults, st.GPUsFailed)
	}
	if st.Faults.Drops+st.Faults.Corrupts > 0 && sys.Cfg.Link.Retry.Timeout <= 0 {
		t.Errorf("%s seed %d: drops recovered without a retry protocol?", scheme, plan.Seed)
	}
	// A failure after the frame's last recovery checkpoint needs no recovery
	// (the image was already complete), so RecoveryCycles > 0 is only
	// asserted in the dedicated mid-frame failure test; here the golden image
	// above is the contract.
	return res
}

// anyInFlightLoss reports whether some frame completed at or after the run's
// end — a heuristic for "the failure actually interrupted work" so the
// reissue assertion only fires when it must hold.
func anyInFlightLoss(st *sfr.SequenceStats) bool {
	for i := range st.Complete {
		if st.Complete[i] == 0 && len(st.FrameGPU) > i {
			return true
		}
	}
	return false
}

var chaosSchemes = []string{"Duplication", "GPUpd", "SortMiddle", "CHOPIN", "AFR"}

// TestChaos sweeps randomized fault schedules across all five schemes. Every
// seed yields a deterministic plan (fault.RandomPlan), and every run must be
// golden-identical or fail typed — never panic, never hang (the watchdog,
// enabled automatically under a fault plan, bounds any wedge).
func TestChaos(t *testing.T) {
	seeds := chaosSeeds
	if testing.Short() {
		seeds = chaosSeedsShort
	}
	env := chaosSetup(t)
	for seed := 0; seed < seeds; seed++ {
		scheme := chaosSchemes[seed%len(chaosSchemes)]
		t.Run(fmt.Sprintf("%s/seed=%d", scheme, seed), func(t *testing.T) {
			plan := fault.RandomPlan(int64(seed), chaosGPUs)
			runChaosOne(t, env, scheme, plan)
		})
	}
}

// unprotectedSpecs are the transfer-fault mixes of the unprotected sweep,
// at rates that make every scheme lose transfers on the chaos workload.
var unprotectedSpecs = []string{"drop=0.3", "corrupt=0.3", "drop=0.1,corrupt=0.1"}

// TestChaosUnprotected runs drop and corrupt plans with the retry protocol
// off (Link.Retry.Timeout < 0), so a lost transfer is never recovered. The
// contract still holds: a golden image or a typed error. A scheme whose
// frame stops on a lost completion without a typed error returns a wrong
// image, which the golden check catches. Each scheme must have lost
// transfers somewhere in the sweep, or the sweep proves nothing.
func TestChaosUnprotected(t *testing.T) {
	env := chaosSetup(t)
	noRetry := func(cfg *multigpu.Config) { cfg.Link.Retry.Timeout = -1 }
	for _, scheme := range []string{"Duplication", "GPUpd", "SortMiddle", "CHOPIN"} {
		lossy := 0
		for seed := int64(1); seed <= 9; seed++ {
			spec := unprotectedSpecs[seed%int64(len(unprotectedSpecs))]
			plan, err := fault.ParseSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/%s/seed=%d", scheme, spec, seed), func(t *testing.T) {
				if runChaosOneWith(t, env, scheme, plan, noRetry).lost > 0 {
					lossy++
				}
			})
		}
		if lossy == 0 {
			t.Errorf("%s: no run dropped or corrupted a transfer", scheme)
		}
	}
}

// TestChaosDeterministic re-runs a handful of seeds and requires bit-for-bit
// identical outcomes: same cycle count, same image checksum, same error.
func TestChaosDeterministic(t *testing.T) {
	env := chaosSetup(t)
	for seed := 0; seed < len(chaosSchemes); seed++ {
		scheme := chaosSchemes[seed%len(chaosSchemes)]
		plan := fault.RandomPlan(int64(seed), chaosGPUs)
		a := runChaosOne(t, env, scheme, plan)
		b := runChaosOne(t, env, scheme, plan)
		if a != b {
			t.Errorf("%s seed %d: runs diverged: %+v vs %+v", scheme, seed, a, b)
		}
	}
}

// TestChaosFixedSeeds is the CI chaos job's fast entry point: three pinned
// seeds per scheme, chosen to include transfer faults, degradations, and
// fail-stops, run under -race in CI.
func TestChaosFixedSeeds(t *testing.T) {
	env := chaosSetup(t)
	for _, seed := range []int64{7, 42, 1337} {
		for _, scheme := range chaosSchemes {
			seed, scheme := seed, scheme
			t.Run(fmt.Sprintf("%s/seed=%d", scheme, seed), func(t *testing.T) {
				runChaosOne(t, env, scheme, fault.RandomPlan(seed, chaosGPUs))
			})
		}
	}
}
