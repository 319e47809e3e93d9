// Package sim provides the discrete-event simulation engine underneath the
// multi-GPU timing model: a cycle-granular event queue with deterministic
// ordering.
//
// Determinism matters: two events scheduled for the same cycle fire in the
// order they were scheduled, so a simulation is a pure function of its
// inputs and every experiment is bit-reproducible.
//
// The queue is a typed four-ary min-heap ordered on (cycle, sequence
// number), stored flat in a reusable slice: scheduling an event is an
// append plus sift-up with no interface boxing, so the steady-state hot
// path — models scheduling and firing millions of events per frame — does
// not allocate. Callers that would otherwise build a closure per event can
// schedule a reusable [Callback] through [Engine.AtCall] / [Engine.AfterCall]
// instead.
//
// The engine is single-threaded: every event fires on the goroutine that
// steps it. Concurrency comes from running independent simulations side by
// side, never from inside one.
package sim

// Cycle is a simulation timestamp in GPU clock cycles. It is an alias of
// int64 (not a defined type) so that interfaces mentioning it — notably the
// public DrawScheduler — can be implemented outside this module.
type Cycle = int64

// Callback is a pre-built scheduled action: the allocation-free alternative
// to scheduling a fresh closure. Implementations are typically pointer
// receivers on long-lived or pooled structs, so scheduling one stores a
// pointer in the queue without allocating.
type Callback interface {
	// Fire runs the action at its scheduled time.
	Fire()
}

// event is one queue entry. Exactly one of fn and cb is set.
type event struct {
	at  Cycle
	seq int64
	fn  func()
	cb  Callback
}

// before reports whether a fires before b: earlier cycle first, scheduling
// order breaking ties.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Probe observes event dispatch for the observability layer (package obs):
// it is invoked after every fired event with the event's timestamp and the
// number of events still pending. Unlike the watcher — which fires before
// the event runs and exists for invariant checking — the probe fires after,
// so it sees the queue state the event left behind.
type Probe interface {
	EventFired(at Cycle, pending int)
}

// cancelStride is how many events are dispatched between cancellation-check
// polls: frequent enough to abort a wedged simulation promptly, rare enough
// that the check never shows up in profiles. Events are coarse — a whole
// frame can dispatch under a thousand of them — so the stride must stay
// small for a wall-clock -timeout to bite on short runs.
const cancelStride = 64

// Engine is a discrete-event simulator. The zero value is ready to use.
// Events are dispatched on the caller's goroutine.
type Engine struct {
	now   Cycle
	seq   int64
	q     eventHeap // four-ary min-heap on (at, seq)
	watch func(at Cycle)
	probe Probe

	halted      bool
	canceled    bool
	cancel      func() bool
	cancelCount int
}

// New returns a fresh engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// SetWatcher installs a hook invoked with each event's timestamp immediately
// before the event fires, in firing order. Verification harnesses use it to
// assert event-time monotonicity; a nil fn removes the hook.
func (e *Engine) SetWatcher(fn func(at Cycle)) { e.watch = fn }

// SetProbe installs a dispatch probe invoked after each event fires (nil
// removes it). The disabled path is a single nil check: engines without a
// probe schedule and fire with zero additional allocations.
func (e *Engine) SetProbe(p Probe) { e.probe = p }

// SetCancel installs a cooperative cancellation check, polled once every
// cancelStride dispatched events. When fn reports true the engine halts:
// Run returns with the remaining events still queued and Canceled reports
// true. A nil fn removes the check. fn should be cheap (e.g. an atomic
// load); it is never called concurrently.
func (e *Engine) SetCancel(fn func() bool) {
	e.cancel = fn
	e.cancelCount = 0
}

// Halt stops the engine: the current event finishes, but no further events
// are dispatched until Resume. Pending events stay queued. Watchdogs use
// this to bound wedged simulations.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether the engine has been stopped by Halt or by the
// cancellation check.
func (e *Engine) Halted() bool { return e.halted }

// Canceled reports whether the engine was halted by the SetCancel check
// (as opposed to an explicit Halt call).
func (e *Engine) Canceled() bool { return e.canceled }

// Resume clears a halt so stepping can continue. It does not clear the
// cancellation check; a still-firing check will halt the engine again.
func (e *Engine) Resume() {
	e.halted = false
	e.canceled = false
}

// arity is the heap fan-out. Four keeps the tree half as deep as a binary
// heap — fewer cache lines touched per sift — while the four-way child scan
// stays within one or two lines of the flat slice.
const arity = 4

// eventHeap is a four-ary min-heap of events on (at, seq), stored flat in a
// reusable slice.
type eventHeap []event

// push appends ev and restores heap order along its ancestor path.
func (h *eventHeap) push(ev event) {
	q := *h
	i := len(q)
	q = append(q, ev)
	for i > 0 {
		p := (i - 1) / arity
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the backing array does not retain the popped event's closure (and
// everything it captures) for the rest of the run.
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	moved := q[n]
	q[n] = event{}
	*h = q[:n]
	if n > 0 {
		h.siftDown(moved)
	}
	return top
}

// siftDown places moved (the former last element) starting from the root.
func (h *eventHeap) siftDown(moved event) {
	q := *h
	n := len(q)
	i := 0
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		end := c + arity
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&moved) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = moved
}

// push appends ev to the global queue with the next sequence number.
func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.q.push(ev)
}

// At schedules fn to run at the given cycle, which must not be in the past.
func (e *Engine) At(t Cycle, fn func()) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.push(event{at: t, fn: fn})
}

// After schedules fn to run d cycles from now. Negative delays panic.
func (e *Engine) After(d Cycle, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.At(e.now+d, fn)
}

// AtCall schedules cb to fire at the given cycle, which must not be in the
// past. Unlike At, scheduling a pointer-backed Callback does not allocate.
func (e *Engine) AtCall(t Cycle, cb Callback) {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	e.push(event{at: t, cb: cb})
}

// AfterCall schedules cb to fire d cycles from now. Negative delays panic.
func (e *Engine) AfterCall(d Cycle, cb Callback) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.AtCall(e.now+d, cb)
}

// Step runs the single earliest pending event and reports whether one
// existed. A halted engine dispatches nothing and reports false.
func (e *Engine) Step() bool {
	if e.halted || len(e.q) == 0 {
		return false
	}
	if e.cancel != nil {
		e.cancelCount++
		if e.cancelCount >= cancelStride {
			e.cancelCount = 0
			if e.cancel() {
				e.halted = true
				e.canceled = true
				return false
			}
		}
	}
	ev := e.q.pop()
	e.now = ev.at
	if e.watch != nil {
		e.watch(ev.at)
	}
	if ev.cb != nil {
		ev.cb.Fire()
	} else {
		ev.fn()
	}
	if e.probe != nil {
		e.probe.EventFired(ev.at, len(e.q))
	}
	return true
}

// Run executes events until the queue is empty or the engine halts, and
// returns the final time. After a halt, Pending reports how many events
// were abandoned.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Events scheduled beyond t remain pending. A halted engine only
// advances the clock.
func (e *Engine) RunUntil(t Cycle) {
	for !e.halted && len(e.q) > 0 && e.q[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.q) }

// ParallelWindows always returns 0. It is a remnant of a removed
// lookahead-window dispatcher, kept only because the host-performance
// benchmark (bench/traced.go) still reports it as a per-layer metric.
//
// Deprecated: ignored; always 0. Drop it together with that metric.
func (e *Engine) ParallelWindows() int64 { return 0 }

// SequentialWindows always returns 0; see ParallelWindows.
//
// Deprecated: ignored; always 0. Drop it together with ParallelWindows.
func (e *Engine) SequentialWindows() int64 { return 0 }
