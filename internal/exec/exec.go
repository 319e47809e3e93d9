// Package exec is the frame-execution runtime shared by every SFR scheme:
// a declarative phase engine over the discrete-event simulator.
//
// A scheme's frame simulation decomposes into the same orchestration
// skeleton — a sequence of steps (render-target segments or composition
// groups), draw fan-out at the command-processor rate inside each step,
// completion barriers, wall-clock attribution to stats phases, and a
// render-target broadcast whenever the application switches targets. exec
// owns that skeleton; a scheme contributes only its genuinely novel logic
// (GPUpd's ordered ID exchange, CHOPIN's two schedulers, sort-middle's
// attribute redistribution) inside the step bodies.
//
// The building blocks:
//
//   - [Runtime] carries the system, the frame, and the accumulating
//     FrameStats for one simulated frame;
//   - [Runtime.Sequence] drives an ordered walk of steps without hand-rolled
//     recursive continuation closures;
//   - [Runtime.RunSegments] is Sequence over the frame's render-target
//     segments with the consistency broadcast (paper Section V) built in
//     between segments;
//   - [Barrier] counts outstanding completions and releases a continuation;
//     it is the schemes' one completion primitive;
//   - [PhaseTimer] and [Runtime.AttributePhases] attribute wall-clock time
//     to stats phases, either as a single interval or split across
//     overlapping-phase checkpoints;
//   - [Runtime.IssueDraws] fans draw submissions out at the driver rate;
//   - [Runtime.Sync] is the render-target broadcast ([Runtime.SyncTarget])
//     timed as PhaseSync: the one consistency-sync entry point, used by
//     RunSegments and by CHOPIN's render-target switches and transparent
//     groups.
//
// A walk still unfinished when the engine drains has lost a completion:
// [Runtime.Run] reports a [DeadlockError] naming the step.
//
// Everything runs on the single-threaded deterministic event engine of
// package sim; none of these types are safe for concurrent use.
package exec

import (
	"chopin/internal/multigpu"
	"chopin/internal/obs"
	"chopin/internal/primitive"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// Runtime orchestrates one frame's simulation for one scheme.
type Runtime struct {
	// Sys is the simulated system the frame runs on.
	Sys *multigpu.System
	// Fr is the frame being rendered.
	Fr *primitive.Frame
	// St accumulates the frame's statistics.
	St *stats.FrameStats

	// tr mirrors Sys.Tracer; nil disables tracing. trPhases and trBarriers
	// are the simulator-process tracks phase and barrier spans land on.
	tr                   *obs.Tracer
	trPhases, trBarriers obs.Track

	// err is the frame's first fatal error (watchdog trip, cancellation,
	// orchestration failure); barriers registers this frame's barriers for
	// watchdog monitoring and post-run deadlock detection.
	err      error
	wd       *Watchdog
	barriers []*Barrier
	// pruneAt is the registry length at which TracedBarrier next drops
	// released barriers, keeping the registry proportional to the live
	// barriers at amortized O(1) cost per registration.
	pruneAt int

	// planState, when set, supplies the active exchange plan's state for
	// watchdog diagnostics (see SetPlanState).
	planState func() *PlanState

	// walkSteps is the Sequence walk's length until its final next runs,
	// then zero; walkStep is the step whose body ran last.
	walkStep, walkSteps int
}

// New returns a runtime for one frame with an initialized FrameStats. A
// watchdog is started when the system configures one (Config.Watchdog != 0;
// negative selects the default interval).
func New(scheme string, sys *multigpu.System, fr *primitive.Frame) *Runtime {
	r := &Runtime{
		Sys: sys,
		Fr:  fr,
		St: &stats.FrameStats{
			Scheme:    scheme,
			NumGPUs:   sys.Cfg.NumGPUs,
			Triangles: fr.TriangleCount(),
		},
	}
	r.initTrace()
	if iv := sys.Cfg.Watchdog; iv != 0 {
		r.StartWatchdog(iv)
	}
	return r
}

func (r *Runtime) initTrace() {
	r.tr = r.Sys.Tracer
	if r.tr == nil {
		return
	}
	r.trPhases = r.tr.Track(obs.PidSim, obs.SimProcName, obs.TidPhases, "phases")
	r.trBarriers = r.tr.Track(obs.PidSim, obs.SimProcName, obs.TidBarriers, "barriers")
}

// Tracer returns the runtime's tracer (nil when tracing is disabled).
func (r *Runtime) Tracer() *obs.Tracer { return r.tr }

// Eng returns the system's event engine.
func (r *Runtime) Eng() *sim.Engine { return r.Sys.Eng }

// Fail records the frame's first fatal error and halts the engine, so Run
// returns promptly with partial statistics.
func (r *Runtime) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.Sys.Eng.Halt()
}

// Err returns the frame's first fatal error, or nil.
func (r *Runtime) Err() error { return r.err }

// Run drains the event engine: everything scheduled (and everything those
// events schedule) executes to completion. It returns the frame's fatal
// error, if any: a watchdog trip, a cancellation, or — detected here even
// without a watchdog — a deadlock where the queue drained with barriers
// still unreleased or with the Sequence walk unfinished.
func (r *Runtime) Run() error {
	r.Sys.Eng.Run()
	if r.err == nil && r.Sys.Eng.Canceled() {
		r.err = &CanceledError{At: r.Sys.Eng.Now()}
	}
	if r.err == nil {
		if live := r.liveBarriers(); len(live) > 0 || r.walkSteps > 0 {
			r.err = r.deadlockError(live)
		}
	}
	return r.err
}

// SetTextures installs the frame's texture table on every GPU.
func (r *Runtime) SetTextures() {
	for _, gp := range r.Sys.GPUs {
		gp.SetTextures(r.Fr.Textures)
	}
}

// OwnTiles gives every GPU its current tile-ownership mask and the frame's
// textures — the standard sort-first setup.
func (r *Runtime) OwnTiles() {
	for g, gp := range r.Sys.GPUs {
		// System masks are built to the screen tile count; cannot mismatch.
		_ = gp.SetOwnership(r.Sys.Mask(g))
	}
	r.SetTextures()
}

// Sequence drives body over steps 0..n-1, beginning with a fresh engine
// event at the current cycle. body must arrange for next() to be invoked
// exactly once when step i is complete; invoking it advances the walk. The
// final step's next finishes the walk: if the engine drains before it runs,
// Run reports a DeadlockError naming the step that never completed. This
// replaces the hand-rolled recursive continuation loops the schemes used to
// carry.
func (r *Runtime) Sequence(n int, body func(i int, next func())) {
	i := 0
	r.walkSteps = n
	var step func()
	step = func() {
		if i == n {
			r.walkStep, r.walkSteps = 0, 0
			return
		}
		cur := i
		i++
		r.walkStep = cur
		body(cur, step)
	}
	r.Sys.Eng.After(0, step)
}

// IssueDraws schedules submit(i) for every draw index in [start, end) at
// the command-processor rate: draw i issues multigpu.DriverCyclesPerDraw
// cycles after draw i-1, starting at the current cycle.
func (r *Runtime) IssueDraws(start, end int, submit func(i int)) {
	for i := start; i < end; i++ {
		r.Sys.Eng.After(sim.Cycle(i-start)*multigpu.DriverCyclesPerDraw, func() { submit(i) })
	}
}

// Barrier counts outstanding completions and invokes a continuation when
// every registered completion has retired and the barrier is sealed.
// Registration (Add) and retirement (Done) may interleave arbitrarily; the
// seal marks the point after which no further completions will be
// registered, so a drained barrier may release.
type Barrier struct {
	pending  int
	sealed   bool
	released bool
	fn       func()

	// wd, when set, receives a progress bump on every Add/Done/Seal so the
	// watchdog can distinguish a slow frame from a wedged one.
	wd *Watchdog

	// Tracing state (armed by Trace): the seal→release wait is recorded as
	// a span on a barrier track. name also labels the barrier in watchdog
	// diagnostics, tracing or not.
	eng    *sim.Engine
	tr     *obs.Tracer
	track  obs.Track
	name   string
	sealAt sim.Cycle
}

// NewBarrier returns an unsealed barrier releasing into fn. Barriers made
// through a Runtime (TracedBarrier) are additionally registered for
// watchdog monitoring and deadlock detection; bare NewBarrier ones are not.
func NewBarrier(fn func()) *Barrier { return &Barrier{fn: fn} }

// TracedBarrier returns a barrier registered with the runtime — it appears
// in watchdog/deadlock diagnostics under name — whose seal-to-release wait
// is recorded as a span named name on the simulator barrier track when
// tracing is enabled.
func (r *Runtime) TracedBarrier(name string, fn func()) *Barrier {
	b := NewBarrier(fn)
	b.name = name
	if r.tr != nil {
		b.Trace(r.Sys.Eng, r.tr, r.trBarriers, name)
	}
	if len(r.barriers) >= r.pruneAt {
		r.pruneBarriers()
		r.pruneAt = max(minPruneAt, 2*len(r.barriers))
	}
	r.barriers = append(r.barriers, b)
	if r.wd != nil {
		b.wd = r.wd
		r.wd.arm()
	}
	return b
}

// Trace arms wait-span recording: when the barrier releases, the interval
// from its seal to its release is recorded as a span named name on track tk.
func (b *Barrier) Trace(eng *sim.Engine, tr *obs.Tracer, tk obs.Track, name string) {
	b.eng, b.tr, b.track, b.name = eng, tr, tk, name
}

// release emits the wait span (if armed) and runs the continuation. The wait
// is category-tagged queueing: seal-to-release is pure waiting on the last
// registered completion, the join point the causal graph builder turns into
// barrier edges (DESIGN.md §11). The barrier drops its continuation before
// running it: whatever the continuation captured (a scheme's group state,
// every GPU's work buffers) must not outlive the release just because the
// runtime's registry still points at the barrier.
func (b *Barrier) release() {
	b.released = true
	fn := b.fn
	b.fn = nil
	if b.tr != nil {
		b.tr.Span(b.track, b.name, b.sealAt, b.eng.Now()-b.sealAt, obs.CatArg(obs.CatQueueing))
	}
	fn()
}

// Add registers n outstanding completions.
func (b *Barrier) Add(n int) {
	b.pending += n
	if b.wd != nil {
		b.wd.bump()
	}
}

// Done retires one completion, invoking the continuation if the barrier is
// sealed and nothing remains outstanding.
func (b *Barrier) Done() {
	b.pending--
	if b.wd != nil {
		b.wd.bump()
	}
	if b.pending == 0 && b.sealed {
		b.release()
	}
}

// Seal marks registration complete. If nothing is outstanding the
// continuation runs synchronously.
func (b *Barrier) Seal() {
	b.sealed = true
	if b.wd != nil {
		b.wd.bump()
	}
	if b.eng != nil {
		b.sealAt = b.eng.Now()
	}
	if b.pending == 0 {
		b.release()
	}
}

// SealDeferred marks registration complete like Seal, but if nothing is
// outstanding the continuation runs on a fresh engine event at the current
// cycle instead of synchronously — for callers whose completion path must
// always execute from the event loop.
func (b *Barrier) SealDeferred(eng *sim.Engine) {
	b.sealed = true
	if b.wd != nil {
		b.wd.bump()
	}
	if b.eng != nil {
		b.sealAt = b.eng.Now()
	}
	if b.pending == 0 {
		eng.After(0, b.release)
	}
}

// Pending returns the number of outstanding completions.
func (b *Barrier) Pending() int { return b.pending }

// PhaseTimer attributes a wall-clock interval to one stats phase. Stop is
// idempotent: the first Stop attributes the elapsed cycles, later Stops are
// no-ops, and a Stop at the start cycle attributes nothing — so a timer
// reached through two completion paths cannot double-count phase time.
type PhaseTimer struct {
	r       *Runtime
	tag     stats.Phase
	start   sim.Cycle
	stopped bool
}

// StartPhase begins timing a phase at the current cycle.
func (r *Runtime) StartPhase(tag stats.Phase) PhaseTimer {
	return PhaseTimer{r: r, tag: tag, start: r.Sys.Eng.Now()}
}

// Stop attributes the cycles elapsed since StartPhase to the timer's phase.
// Only the first Stop on a timer has effect; stopping a copy of a stopped
// timer still double-counts, so share one timer variable across completion
// paths.
func (t *PhaseTimer) Stop() {
	if t.r == nil || t.stopped {
		return
	}
	t.stopped = true
	t.r.addPhase(t.tag, t.start, t.r.Sys.Eng.Now())
}

// Start returns the cycle the timer started at.
func (t PhaseTimer) Start() sim.Cycle { return t.start }

// addPhase attributes [start, end) to tag in the frame stats and mirrors the
// interval as a span on the phase track when tracing. Phase spans therefore
// reconcile exactly with stats.FrameStats.PhaseCycles: both are fed by the
// same clamped intervals.
func (r *Runtime) addPhase(tag stats.Phase, start, end sim.Cycle) {
	r.St.AddPhase(tag, end-start)
	if r.tr != nil {
		r.tr.Span(r.trPhases, tag.String(), start, end-start)
	}
}

// MarkStep records an instant on the phase track at the current cycle —
// step and group boundaries in the timeline. No-op when tracing is off, but
// callers formatting a name should guard on Tracer() != nil to avoid the
// formatting work.
func (r *Runtime) MarkStep(name string) {
	if r.tr != nil {
		r.tr.Instant(r.trPhases, name, r.Sys.Eng.Now())
	}
}

// Mark is a phase checkpoint for AttributePhases: Tag's phase ran from the
// previous checkpoint (or the interval start) until At.
type Mark struct {
	Tag stats.Phase
	At  sim.Cycle
}

// AttributePhases splits the wall clock from start to the current cycle
// across ordered checkpoints, attributing each inter-checkpoint interval to
// its mark's phase and the remainder to finalTag. Checkpoints are clamped
// monotonically: a mark earlier than its predecessor contributes zero
// cycles (phases that completely overlap a predecessor are charged to the
// predecessor, the convention of paper Fig. 14's stacks).
func (r *Runtime) AttributePhases(start sim.Cycle, marks []Mark, finalTag stats.Phase) {
	t := start
	for _, m := range marks {
		at := max(m.At, t)
		r.addPhase(m.Tag, t, at)
		t = at
	}
	r.addPhase(finalTag, t, r.Sys.Eng.Now())
}

// Segment is a contiguous run of draws sharing a render target, the unit
// between consistency synchronizations (paper Section V: "every time the
// application switches to a new render target or depth buffer ... each GPU
// broadcasts the latest content of its current render targets and depth
// buffers").
type Segment struct {
	// Start and End delimit the draw range [Start, End).
	Start, End int
	// RT is the render target the segment draws into.
	RT int
}

// SplitSegments cuts the draw stream at render-target or depth-buffer
// switches.
func SplitSegments(draws []primitive.DrawCommand) []Segment {
	if len(draws) == 0 {
		return nil
	}
	var segs []Segment
	cur := Segment{Start: 0, RT: draws[0].State.RenderTarget}
	for i := 1; i < len(draws); i++ {
		if draws[i].State.RenderTarget != cur.RT || draws[i].State.DepthBuffer != draws[i-1].State.DepthBuffer {
			cur.End = i
			segs = append(segs, cur)
			cur = Segment{Start: i, RT: draws[i].State.RenderTarget}
		}
	}
	cur.End = len(draws)
	return append(segs, cur)
}

// RunSegments drives body over the frame's render-target segments. A
// segment body renders its draw range and calls done() when the segment has
// drained; between consecutive segments the runtime syncs the finished
// render target (Sync) — the render-target-switch step every scheme shares.
// The last segment's done finishes the walk without a sync.
func (r *Runtime) RunSegments(body func(seg Segment, done func())) {
	segs := SplitSegments(r.Fr.Draws)
	r.Sequence(len(segs), func(i int, next func()) {
		seg := segs[i]
		body(seg, func() {
			if i+1 < len(segs) {
				r.Sync(seg.RT, next)
				return
			}
			next()
		})
	})
}
