// Package live is the sweep-time monitor: an HTTP surface over a running
// experiment harness exposing expvar counters (/debug/vars), pprof
// profiles (/debug/pprof/), a JSON progress snapshot (/progress), and a
// Server-Sent-Events progress/ETA stream (/events) — so a multi-minute
// sweep is inspectable while it runs instead of only after it finishes.
//
// The overhead contract mirrors package obs: nothing in this package runs
// unless the harness was given a progress callback, so the unmonitored
// path in the experiment workers stays a single nil check.
//
// Monitoring is a host-time concern: ETAs come from the wall clock. None
// of this state reaches run records, which stay deterministic.
package live

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// expvar names are process-global, so the exported counters are shared by
// every Monitor in the process and published exactly once.
var (
	pubOnce      sync.Once
	varSims      = new(expvar.Int)    // simulations completed, cumulative
	varBatchDone = new(expvar.Int)    // completed in the current batch
	varBatchSize = new(expvar.Int)    // size of the current batch
	varRun       = new(expvar.String) // current run label
)

func publishVars() {
	pubOnce.Do(func() {
		m := expvar.NewMap("chopin")
		m.Set("sims_completed", varSims)
		m.Set("batch_done", varBatchDone)
		m.Set("batch_total", varBatchSize)
		m.Set("run", varRun)
	})
}

// State is the monitor's progress snapshot, serialized on /progress and
// /events.
type State struct {
	// Run labels what is executing (e.g. "fig19 scale=0.03").
	Run string `json:"run"`
	// Cell labels the most recently completed simulation.
	Cell string `json:"cell"`
	// Done and Total count simulations within the current batch (an
	// experiment runs all its simulations as one batch).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Sims is the cumulative completed-simulation count across batches.
	Sims int64 `json:"sims"`
	// ElapsedSec is the wall time since the current batch started.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ETASec extrapolates the current batch's remaining wall time from its
	// completion rate; -1 when unknown (nothing completed yet).
	ETASec float64 `json:"eta_sec"`
	// Running is false before the first update and after Finish.
	Running bool `json:"running"`
}

// Monitor aggregates progress events and serves them over HTTP. Create
// one with New, feed it from the harness's progress callback, and mount
// Handler on a listener.
type Monitor struct {
	mu         sync.Mutex
	state      State
	batchStart time.Time
	subs       map[chan State]struct{}
	now        func() time.Time
}

// New returns an idle monitor and publishes the process-wide expvar
// counters.
func New() *Monitor {
	publishVars()
	return &Monitor{subs: map[chan State]struct{}{}, now: time.Now}
}

// SetRun labels the work that is about to execute and resets batch
// progress.
func (m *Monitor) SetRun(label string) {
	m.mu.Lock()
	m.state.Run = label
	m.state.Done, m.state.Total = 0, 0
	m.state.Running = true
	m.batchStart = m.now()
	varRun.Set(label)
	st := m.snapshotLocked()
	m.mu.Unlock()
	m.broadcast(st)
}

// Observe records one completed simulation: cell names it, done/total
// locate it within the current batch.
func (m *Monitor) Observe(cell string, done, total int) {
	m.mu.Lock()
	if m.state.Total != 0 && total != m.state.Total {
		// A new batch started without SetRun: restart the ETA clock. (Total
		// 0 means SetRun just reset the batch — keep its clock.)
		m.batchStart = m.now()
		m.state.Done = 0
	}
	m.state.Cell = cell
	if done > m.state.Done {
		// Callbacks from concurrent workers may arrive out of order; keep
		// the high-water mark.
		m.state.Done = done
	}
	m.state.Total = total
	m.state.Sims++
	m.state.Running = true
	varSims.Add(1)
	varBatchDone.Set(int64(m.state.Done))
	varBatchSize.Set(int64(total))
	st := m.snapshotLocked()
	m.mu.Unlock()
	m.broadcast(st)
}

// Finish marks the run complete.
func (m *Monitor) Finish() {
	m.mu.Lock()
	m.state.Running = false
	st := m.snapshotLocked()
	m.mu.Unlock()
	m.broadcast(st)
}

// snapshotLocked fills the time-derived fields; callers hold mu.
func (m *Monitor) snapshotLocked() State {
	st := m.state
	if !m.batchStart.IsZero() {
		st.ElapsedSec = m.now().Sub(m.batchStart).Seconds()
	}
	st.ETASec = -1
	if st.Done > 0 && st.Total > st.Done && st.ElapsedSec > 0 {
		st.ETASec = st.ElapsedSec / float64(st.Done) * float64(st.Total-st.Done)
	}
	return st
}

// State returns the current progress snapshot.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked()
}

func (m *Monitor) broadcast(st State) {
	m.mu.Lock()
	for ch := range m.subs {
		select {
		case ch <- st:
		default: // a slow subscriber drops intermediate updates
		}
	}
	m.mu.Unlock()
}

func (m *Monitor) subscribe() chan State {
	ch := make(chan State, 8)
	m.mu.Lock()
	ch <- m.snapshotLocked() // first event is the current state
	m.subs[ch] = struct{}{}
	m.mu.Unlock()
	return ch
}

func (m *Monitor) unsubscribe(ch chan State) {
	m.mu.Lock()
	delete(m.subs, ch)
	m.mu.Unlock()
}

// Handler returns the monitor's HTTP surface:
//
//	/            tiny self-refreshing status page
//	/progress    current State as JSON
//	/events      Server-Sent-Events stream of State updates
//	/debug/vars  expvar counters (chopin.sims_completed, ...)
//	/debug/pprof pprof index, profiles, and traces
func (m *Monitor) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", m.index)
	mux.HandleFunc("/progress", m.progress)
	mux.HandleFunc("/events", m.events)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (m *Monitor) progress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m.State())
}

// events is the SSE stream: one "data: <State JSON>" frame per progress
// update, starting with the current state.
func (m *Monitor) events(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	ch := m.subscribe()
	defer m.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case st := <-ch:
			b, err := json.Marshal(st)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func (m *Monitor) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st := m.State()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html>
<html><head><meta charset="utf-8"/><meta http-equiv="refresh" content="2"/>
<title>chopin sweep monitor</title></head>
<body style="font-family:monospace">
<h1>chopin sweep monitor</h1>
<p>run: %s</p>
<p>batch: %d / %d (last: %s)</p>
<p>simulations completed: %d</p>
<p>elapsed %.1fs, eta %.1fs</p>
<p><a href="/progress">progress</a> | <a href="/events">events (SSE)</a> |
<a href="/debug/vars">expvar</a> | <a href="/debug/pprof/">pprof</a></p>
</body></html>
`, st.Run, st.Done, st.Total, st.Cell, st.Sims, st.ElapsedSec, st.ETASec)
}
