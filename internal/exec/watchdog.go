package exec

import (
	"fmt"
	"strings"

	"chopin/internal/sim"
)

// DefaultWatchdogInterval is the progress-check period used when a watchdog
// is enabled without an explicit interval: generous enough that even the
// largest single draw or transfer completes well within one tick, so healthy
// frames never trip it.
const DefaultWatchdogInterval sim.Cycle = 1 << 21

// stuckTicks is how many consecutive zero-progress watchdog ticks declare
// the simulation stuck.
const stuckTicks = 2

// BarrierState is a snapshot of one unreleased barrier for a watchdog
// diagnostic: the name identifies the blocked phase.
type BarrierState struct {
	Name    string
	Pending int
	Sealed  bool
}

func (b BarrierState) String() string {
	name := b.Name
	if name == "" {
		name = "(unnamed)"
	}
	state := "unsealed"
	if b.Sealed {
		state = "sealed"
	}
	return fmt.Sprintf("%s: %d pending, %s", name, b.Pending, state)
}

// GPUState is a snapshot of one GPU for a watchdog diagnostic.
type GPUState struct {
	ID           int
	BusyUntil    sim.Cycle
	EgressQueued int
	Failed       bool
}

func (g GPUState) String() string {
	s := fmt.Sprintf("GPU %d: busy until %d, %d queued", g.ID, g.BusyUntil, g.EgressQueued)
	if g.Failed {
		s += ", FAILED"
	}
	return s
}

// PlanState is a snapshot of the active exchange plan for a watchdog
// diagnostic: where the composition exchange stood when the frame wedged.
// Captured only while a plan executor is live (SetPlanState).
type PlanState struct {
	// CompletedRounds is the number of leading rounds every GPU has
	// finished, of Rounds total.
	CompletedRounds int
	Rounds          int
	// PendingSessions counts sessions not yet completed.
	PendingSessions int
	// Ready is the bitmask of GPUs whose sub-images were marked ready.
	Ready uint64
}

func (p *PlanState) String() string {
	return fmt.Sprintf("plan: round %d/%d, %d pending session(s), ready=%#x",
		p.CompletedRounds, p.Rounds, p.PendingSessions, p.Ready)
}

// A DeadlockError reports that the event queue drained while barriers were
// still unreleased or the frame's step walk was unfinished: some completion
// that would have retired them was lost (e.g. a transfer abandoned by the
// retry protocol, wrapped as Cause, or dropped with no retry protocol).
type DeadlockError struct {
	At       sim.Cycle
	Barriers []BarrierState
	// Step (0-based) of Steps is where an unfinished Sequence walk stopped;
	// both are zero when the walk finished.
	Step, Steps int
	GPUs        []GPUState
	// Plan is the active exchange plan's state when one was live, or nil.
	Plan *PlanState
	// Cause is the underlying fault when one was recorded (e.g. an
	// interconnect.LostTransferError), or nil.
	Cause error
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec: deadlock at cycle %d: event queue drained with %d unreleased barrier(s)",
		e.At, len(e.Barriers))
	for _, bs := range e.Barriers {
		fmt.Fprintf(&b, "; blocked on [%s]", bs)
	}
	if e.Steps > 0 {
		fmt.Fprintf(&b, "; step walk stopped in step %d of %d", e.Step, e.Steps)
	}
	if e.Plan != nil {
		fmt.Fprintf(&b, "; %s", e.Plan)
	}
	for _, gs := range e.GPUs {
		fmt.Fprintf(&b, "; %s", gs)
	}
	if e.Cause != nil {
		fmt.Fprintf(&b, "; cause: %v", e.Cause)
	}
	return b.String()
}

// Unwrap exposes the underlying fault for errors.Is/As.
func (e *DeadlockError) Unwrap() error { return e.Cause }

// A StuckError reports that no barrier made progress (no Add, Done, or Seal)
// for Window cycles while barriers were outstanding — the simulation is
// spinning or wedged without draining its queue.
type StuckError struct {
	At       sim.Cycle
	Window   sim.Cycle
	Barriers []BarrierState
	GPUs     []GPUState
	// Plan is the active exchange plan's state when one was live, or nil.
	Plan *PlanState
}

func (e *StuckError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec: no progress for %d cycles at cycle %d with %d unreleased barrier(s)",
		e.Window, e.At, len(e.Barriers))
	for _, bs := range e.Barriers {
		fmt.Fprintf(&b, "; blocked on [%s]", bs)
	}
	if e.Plan != nil {
		fmt.Fprintf(&b, "; %s", e.Plan)
	}
	for _, gs := range e.GPUs {
		fmt.Fprintf(&b, "; %s", gs)
	}
	return b.String()
}

// A CanceledError reports that the simulation was halted by the cooperative
// cancellation check (context cancellation or wall-clock timeout). Partial
// statistics up to At remain valid.
type CanceledError struct {
	At sim.Cycle
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("exec: simulation canceled at cycle %d", e.At)
}

// Watchdog monitors a frame for stuck progress. It runs as a periodic
// engine event while barriers are outstanding: at each tick it checks that
// barrier activity advanced since the previous tick. A tripped watchdog
// halts the engine and records a StuckError naming the blocked barriers and
// each GPU's state.
//
// The tick parks itself when no barriers are live, so a finished frame's
// queue really drains and Run returns; registering a new barrier re-arms it.
// It also parks when it is the only event left. The queue then drains, and
// Run reports the unreleased barriers as a DeadlockError: Run is the one
// deadlock detector, with or without a watchdog.
type Watchdog struct {
	r        *Runtime
	interval sim.Cycle
	progress uint64
	lastSeen uint64
	idle     int
	armed    bool
	stopped  bool
}

// StartWatchdog enables watchdog monitoring with the given check interval
// (<= 0 selects DefaultWatchdogInterval). It must be called before the
// frame's barriers are created.
func (r *Runtime) StartWatchdog(interval sim.Cycle) *Watchdog {
	if interval <= 0 {
		interval = DefaultWatchdogInterval
	}
	r.wd = &Watchdog{r: r, interval: interval}
	return r.wd
}

// bump records barrier activity.
func (w *Watchdog) bump() { w.progress++ }

// arm schedules the next tick if one is not already pending.
func (w *Watchdog) arm() {
	if w.armed || w.stopped {
		return
	}
	w.armed = true
	w.lastSeen = w.progress
	w.idle = 0
	w.r.Sys.Eng.After(w.interval, w.tick)
}

// tick is the periodic check.
func (w *Watchdog) tick() {
	w.armed = false
	if w.stopped {
		return
	}
	live := w.r.liveBarriers()
	if len(live) == 0 || w.r.Sys.Eng.Pending() == 0 {
		// Nothing outstanding, or this tick was the only scheduled event:
		// park. A new barrier re-arms; a drained queue with barriers still
		// waiting is a deadlock, which Run reports.
		return
	}
	if w.progress == w.lastSeen {
		w.idle++
		if w.idle >= stuckTicks {
			w.r.Fail(&StuckError{
				At:       w.r.Sys.Eng.Now(),
				Window:   w.interval * stuckTicks,
				Barriers: live,
				GPUs:     w.r.gpuStates(),
				Plan:     w.r.planStateSnapshot(),
			})
			return
		}
	} else {
		w.idle = 0
	}
	w.lastSeen = w.progress
	w.armed = true
	w.r.Sys.Eng.After(w.interval, w.tick)
}

// liveBarriers prunes the released barriers from the runtime's registry and
// snapshots the unreleased ones.
func (r *Runtime) liveBarriers() []BarrierState {
	r.pruneBarriers()
	var out []BarrierState
	for _, b := range r.barriers {
		out = append(out, BarrierState{Name: b.name, Pending: b.pending, Sealed: b.sealed})
	}
	return out
}

// minPruneAt is the smallest registry length at which TracedBarrier prunes.
const minPruneAt = 64

// pruneBarriers drops released barriers from the registry, keeping the
// unreleased ones in registration order, and clears the vacated tail so
// the backing array holds no pointer to a dropped barrier.
func (r *Runtime) pruneBarriers() {
	kept := r.barriers[:0]
	for _, b := range r.barriers {
		if !b.released {
			kept = append(kept, b)
		}
	}
	clear(r.barriers[len(kept):])
	r.barriers = kept
}

// gpuStates snapshots every GPU for a diagnostic.
func (r *Runtime) gpuStates() []GPUState {
	out := make([]GPUState, len(r.Sys.GPUs))
	for i, g := range r.Sys.GPUs {
		out[i] = GPUState{
			ID:           g.ID,
			BusyUntil:    g.BusyUntil(),
			EgressQueued: r.Sys.Fabric.QueuedAt(i),
			Failed:       g.Failed(),
		}
	}
	return out
}

// deadlockError builds the structured deadlock diagnostic, wrapping the
// fabric's recorded fault as the cause when one exists.
func (r *Runtime) deadlockError(live []BarrierState) *DeadlockError {
	return &DeadlockError{
		At:       r.Sys.Eng.Now(),
		Barriers: live,
		Step:     r.walkStep,
		Steps:    r.walkSteps,
		GPUs:     r.gpuStates(),
		Plan:     r.planStateSnapshot(),
		Cause:    r.Sys.Fabric.Err(),
	}
}

// SetPlanState installs (or, with nil, clears) the provider the watchdog
// queries for the active exchange plan's state. The scheme layer sets it for
// the lifetime of each plan-composed group, so wedged frames report where
// the exchange stood.
func (r *Runtime) SetPlanState(f func() *PlanState) { r.planState = f }

// planStateSnapshot captures the active plan's state, or nil when no plan
// executor is live.
func (r *Runtime) planStateSnapshot() *PlanState {
	if r.planState == nil {
		return nil
	}
	return r.planState()
}
