// Package causal builds a frame-level dependency DAG from an exported
// timeline and answers "where did the cycles go": the exact longest
// (critical) path through the observed dependence structure and a
// per-category cycle attribution that provably sums to the frame makespan.
//
// Nodes are the category-tagged spans of the trace (internal/obs CatArg);
// untagged spans (phase rollups, engine dispatch slices) are invisible.
// Edges are the precedence constraints the run actually exhibited:
//
//   - track edges: spans on one (pid, tid) track occupy one hardware
//     resource in FIFO order, so each span depends on the latest span on its
//     track that finished no later than it started;
//   - flow edges: the exporter's egress→ingress flow arrows, modeled
//     start-to-start (cut-through delivery overlaps the two spans);
//   - cause edges: cause_pid/cause_tid/cause_ts span args recorded by the
//     tracer's one-shot SetCause mechanism around delivery callbacks —
//     work launched by a transfer's completion depends on the transfer;
//   - barrier edges: a span on the simulator barrier track joins on every
//     span ending exactly at its release and gates every span starting
//     exactly at its release.
//
// All construction is canonical — nodes sorted by (pid, tid, ts, input
// order), edges deduplicated and sorted — so analysis output is
// deterministic and byte-stable for identical traces (DESIGN.md §11).
package causal

import (
	"errors"
	"fmt"
	"sort"

	"chopin/internal/obs"
)

// ErrNoCategories reports a trace with no category-tagged spans: either the
// capture predates category tagging or the run recorded no attributable
// work. The causal engine has nothing to analyze.
var ErrNoCategories = errors.New("causal: trace has no category-tagged spans")

// CycleError reports a dependency cycle in the constructed graph — possible
// only on malformed or hand-edited traces, never on exporter output (every
// edge weakly advances simulated time and spans have positive length).
type CycleError struct {
	// Remaining is the number of nodes left unordered by the topological
	// sort (the nodes on or downstream of the cycle).
	Remaining int
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("causal: dependency graph has a cycle (%d node(s) unorderable)", e.Remaining)
}

// maxTime bounds node timestamps and durations: spans outside it are treated
// as malformed and skipped, keeping all arithmetic overflow-free.
const maxTime = int64(1) << 60

// Node is one category-tagged span in the dependency graph.
type Node struct {
	// Event indexes the span in the source TraceFile's Events.
	Event    int
	Pid, Tid int
	Name     string
	Cat      obs.Category
	Ts, Dur  int64
}

// End returns the span's end timestamp.
func (n *Node) End() int64 { return n.Ts + n.Dur }

// EdgeKind is the provenance of a dependency edge.
type EdgeKind uint8

const (
	// EdgeTrack is FIFO order on one resource track.
	EdgeTrack EdgeKind = iota
	// EdgeFlow is an egress→ingress transfer (start-to-start).
	EdgeFlow
	// EdgeCause is a delivery callback launching work (cause_* span args).
	EdgeCause
	// EdgeBarrier is a barrier join or release.
	EdgeBarrier
	// EdgeStage is the geometry→fragment pipeline dependency of one draw
	// (matched by the shared "draw" span arg within one GPU process).
	EdgeStage
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeTrack:
		return "track"
	case EdgeFlow:
		return "flow"
	case EdgeCause:
		return "cause"
	case EdgeStage:
		return "stage"
	default:
		return "barrier"
	}
}

// Edge is one precedence constraint between nodes. For EdgeFlow the
// constraint is start-to-start (To starts no earlier than From starts); for
// all other kinds it is finish-to-start (To starts no earlier than From ends).
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Graph is the frame dependency DAG.
type Graph struct {
	Nodes []Node
	Edges []Edge
	// Start and End bound the node interval (min Ts, max End); Makespan is
	// their difference — the wall-clock the attribution must account for.
	Start, End int64

	in [][]int // per node, indices into Edges of its in-edges
}

// Makespan returns End − Start.
func (g *Graph) Makespan() int64 { return g.End - g.Start }

// barrierTrack reports whether the track is the simulator barrier track.
func barrierTrack(pid, tid int) bool { return pid == obs.PidSim && tid == obs.TidBarriers }

// Build constructs the dependency graph from a loaded trace. Malformed spans
// (negative or absurd timestamps, non-positive durations) are skipped rather
// than fatal, so truncated captures still analyze; the only build error is a
// dependency cycle, impossible on exporter output but reachable from
// hand-made traces, reported as a typed *CycleError. A trace with no tagged
// spans returns ErrNoCategories.
func Build(tf *obs.TraceFile) (*Graph, error) {
	g := &Graph{}
	for i := range tf.Events {
		e := &tf.Events[i]
		if e.Ph != "X" {
			continue
		}
		cat := e.Category()
		if cat == obs.CatNone {
			continue
		}
		if e.Ts < 0 || e.Ts > maxTime || e.Dur <= 0 || e.Dur > maxTime {
			continue // malformed span; skip, don't fail the whole analysis
		}
		g.Nodes = append(g.Nodes, Node{
			Event: i, Pid: e.Pid, Tid: e.Tid, Name: e.Name,
			Cat: cat, Ts: e.Ts, Dur: e.Dur,
		})
	}
	if len(g.Nodes) == 0 {
		return nil, ErrNoCategories
	}
	// Canonical node order: by track, then time, then input order.
	sort.SliceStable(g.Nodes, func(a, b int) bool {
		na, nb := &g.Nodes[a], &g.Nodes[b]
		if na.Pid != nb.Pid {
			return na.Pid < nb.Pid
		}
		if na.Tid != nb.Tid {
			return na.Tid < nb.Tid
		}
		if na.Ts != nb.Ts {
			return na.Ts < nb.Ts
		}
		return na.Event < nb.Event
	})
	g.Start, g.End = g.Nodes[0].Ts, g.Nodes[0].End()
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Ts < g.Start {
			g.Start = n.Ts
		}
		if n.End() > g.End {
			g.End = n.End()
		}
	}

	tracks := g.trackIndex()
	g.trackEdges(tracks)
	g.flowEdges(tf, tracks)
	g.causeEdges(tf, tracks)
	g.stageEdges(tf)
	g.barrierEdges()
	g.canonicalize()
	if err := g.checkAcyclic(); err != nil {
		return nil, err
	}
	return g, nil
}

// trackRef locates one track's contiguous node range [lo, hi) in g.Nodes
// plus an end-sorted view for "latest finisher no later than t" queries.
type trackRef struct {
	lo, hi  int
	byEnd   []int // node indices in [lo, hi) sorted by (End, node index)
	barrier bool
}

func (g *Graph) trackIndex() map[[2]int]*trackRef {
	tracks := map[[2]int]*trackRef{}
	for i := 0; i < len(g.Nodes); {
		j := i
		key := [2]int{g.Nodes[i].Pid, g.Nodes[i].Tid}
		for j < len(g.Nodes) && g.Nodes[j].Pid == key[0] && g.Nodes[j].Tid == key[1] {
			j++
		}
		ref := &trackRef{lo: i, hi: j, barrier: barrierTrack(key[0], key[1])}
		ref.byEnd = make([]int, 0, j-i)
		for k := i; k < j; k++ {
			ref.byEnd = append(ref.byEnd, k)
		}
		sort.SliceStable(ref.byEnd, func(a, b int) bool {
			ea, eb := g.Nodes[ref.byEnd[a]].End(), g.Nodes[ref.byEnd[b]].End()
			if ea != eb {
				return ea < eb
			}
			return ref.byEnd[a] < ref.byEnd[b]
		})
		tracks[key] = ref
		i = j
	}
	return tracks
}

// latestEndAtMost returns the track node with the greatest End ≤ t (ties:
// greatest node index), or -1.
func (g *Graph) latestEndAtMost(ref *trackRef, t int64) int {
	lo, hi := 0, len(ref.byEnd)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Nodes[ref.byEnd[mid]].End() <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return -1
	}
	return ref.byEnd[lo-1]
}

// trackEdges links every node to the latest span on its own track that
// finished no later than it started — the tightest FIFO constraint the
// resource imposes. Overlapping same-track spans (cut-through ingress,
// backoff windows, concurrent barrier waits) impose no FIFO constraint and
// produce no edge.
func (g *Graph) trackEdges(tracks map[[2]int]*trackRef) {
	for _, key := range sortedTrackKeys(tracks) {
		ref := tracks[key]
		for v := ref.lo; v < ref.hi; v++ {
			if u := g.latestEndAtMost(ref, g.Nodes[v].Ts); u >= 0 && u != v {
				g.Edges = append(g.Edges, Edge{From: u, To: v, Kind: EdgeTrack})
			}
		}
	}
}

// nodeAt locates the node on ref's track enclosing timestamp t, preferring
// an exact start-timestamp match (the exporter emits flow endpoints at span
// starts); returns -1 if no span covers t.
func (g *Graph) nodeAt(ref *trackRef, t int64) int {
	// Exact-start match first: binary search the Ts-ordered range.
	lo, hi := ref.lo, ref.hi
	for lo < hi {
		mid := (lo + hi) / 2
		if g.Nodes[mid].Ts < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < ref.hi && g.Nodes[lo].Ts == t {
		return lo
	}
	// Fall back to the latest span starting before t that still covers it.
	for i := lo - 1; i >= ref.lo; i-- {
		if g.Nodes[i].End() > t {
			return i
		}
		// Spans are Ts-ordered; once starts are far enough back that even the
		// longest span on the track could not cover t we could stop, but track
		// sizes make the simple scan acceptable and exact.
	}
	return -1
}

// nodeEndingAt returns the track node whose End equals t exactly (ties:
// greatest node index), or -1.
func (g *Graph) nodeEndingAt(ref *trackRef, t int64) int {
	if u := g.latestEndAtMost(ref, t); u >= 0 && g.Nodes[u].End() == t {
		return u
	}
	return -1
}

// flowEdges binds every matched flow-arrow pair to its enclosing spans as a
// start-to-start edge: the receiving span cannot begin earlier than the
// sending span. Unmatched or ambiguous flow ids and backwards arrows
// (malformed traces) are skipped.
func (g *Graph) flowEdges(tf *obs.TraceFile, tracks map[[2]int]*trackRef) {
	type endpoint struct {
		node int
		n    int // endpoints seen for this id/kind
	}
	starts := map[string]endpoint{}
	ends := map[string]endpoint{}
	var ids []string
	for i := range tf.Events {
		e := &tf.Events[i]
		if e.Ph != "s" && e.Ph != "f" {
			continue
		}
		ref := tracks[[2]int{e.Pid, e.Tid}]
		node := -1
		if ref != nil {
			node = g.nodeAt(ref, e.Ts)
		}
		if _, seenS := starts[e.ID]; !seenS {
			if _, seenE := ends[e.ID]; !seenE {
				ids = append(ids, e.ID)
			}
		}
		m := starts
		if e.Ph == "f" {
			m = ends
		}
		ep := m[e.ID]
		ep.n++
		ep.node = node
		m[e.ID] = ep
	}
	for _, id := range ids {
		s, f := starts[id], ends[id]
		if s.n != 1 || f.n != 1 || s.node < 0 || f.node < 0 || s.node == f.node {
			continue
		}
		// Flow arrows never touch the barrier track in exporter output; a
		// hand-made one would couple a start-to-start edge to a waiting span,
		// which has no sound causal interpretation.
		if barrierTrack(g.Nodes[s.node].Pid, g.Nodes[s.node].Tid) ||
			barrierTrack(g.Nodes[f.node].Pid, g.Nodes[f.node].Tid) {
			continue
		}
		if g.Nodes[f.node].Ts < g.Nodes[s.node].Ts {
			continue
		}
		g.Edges = append(g.Edges, Edge{From: s.node, To: f.node, Kind: EdgeFlow})
	}
}

// causeEdges turns cause_* span args into finish-to-start edges from the
// causing span (the one ending at cause_ts on the cause track) to the
// launched span. Annotations that bind to no span, to the span itself, or
// backwards in time are skipped.
func (g *Graph) causeEdges(tf *obs.TraceFile, tracks map[[2]int]*trackRef) {
	for v := range g.Nodes {
		args := tf.Events[g.Nodes[v].Event].Args
		cts, ok := args[obs.CauseTsKey]
		if !ok {
			continue
		}
		cpid, okP := args[obs.CausePidKey]
		ctid, okT := args[obs.CauseTidKey]
		if !okP || !okT {
			continue
		}
		ref := tracks[[2]int{int(cpid), int(ctid)}]
		if ref == nil {
			continue
		}
		u := g.nodeEndingAt(ref, cts)
		if u < 0 {
			u = g.nodeAt(ref, cts)
		}
		if u < 0 || u == v {
			continue
		}
		if g.Nodes[v].Ts < g.Nodes[u].End() {
			continue
		}
		g.Edges = append(g.Edges, Edge{From: u, To: v, Kind: EdgeCause})
	}
}

// stageEdges adds the geometry→fragment pipeline edge for each draw: the
// two stage spans of one draw share a "draw" arg within one GPU process, and
// rasterization cannot begin before its geometry finishes. Draw ids repeat
// across frames (AFR), so each fragment span binds to the latest matching
// geometry span finishing no later than its start.
func (g *Graph) stageEdges(tf *obs.TraceFile) {
	type key struct {
		pid  int
		draw int64
	}
	geoms := map[key][]int{}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Tid != obs.TidGeometry || n.Pid == obs.PidSim {
			continue
		}
		if d, ok := tf.Events[n.Event].Args["draw"]; ok {
			geoms[key{n.Pid, d}] = append(geoms[key{n.Pid, d}], i)
		}
	}
	for _, list := range geoms {
		sort.Slice(list, func(a, b int) bool {
			ea, eb := g.Nodes[list[a]].End(), g.Nodes[list[b]].End()
			if ea != eb {
				return ea < eb
			}
			return list[a] < list[b]
		})
	}
	for v := range g.Nodes {
		n := &g.Nodes[v]
		if n.Tid != obs.TidFragment || n.Pid == obs.PidSim {
			continue
		}
		d, ok := tf.Events[n.Event].Args["draw"]
		if !ok {
			continue
		}
		list := geoms[key{n.Pid, d}]
		best := -1
		for _, u := range list { // End-ascending; keep the latest qualifying
			if g.Nodes[u].End() <= n.Ts {
				best = u
			}
		}
		if best >= 0 {
			g.Edges = append(g.Edges, Edge{From: best, To: v, Kind: EdgeStage})
		}
	}
}

// joinedBarrier reports whether node v is a barrier-track span with at least
// one join in-edge: its release is explained by a tagged completion, so its
// span length is realized waiting, not work (see the pass-through rule in
// Analyze).
func (g *Graph) joinedBarrier(v int) bool {
	if !barrierTrack(g.Nodes[v].Pid, g.Nodes[v].Tid) {
		return false
	}
	for _, ei := range g.in[v] {
		if g.Edges[ei].Kind == EdgeBarrier {
			return true
		}
	}
	return false
}

// barrierEdges adds join and release edges for every span on the simulator
// barrier track: non-barrier spans ending exactly at the barrier's release
// join into it (the last Done gates the release), and non-barrier spans
// starting exactly at the release are gated by it. Barrier-to-barrier
// coincidences are excluded (overlapping waits are not ordered).
func (g *Graph) barrierEdges() {
	byEnd := map[int64][]int{}
	byTs := map[int64][]int{}
	var barriers []int
	for i := range g.Nodes {
		if barrierTrack(g.Nodes[i].Pid, g.Nodes[i].Tid) {
			barriers = append(barriers, i)
			continue
		}
		byEnd[g.Nodes[i].End()] = append(byEnd[g.Nodes[i].End()], i)
		byTs[g.Nodes[i].Ts] = append(byTs[g.Nodes[i].Ts], i)
	}
	for _, b := range barriers {
		rel := g.Nodes[b].End()
		for _, u := range byEnd[rel] {
			g.Edges = append(g.Edges, Edge{From: u, To: b, Kind: EdgeBarrier})
		}
		for _, v := range byTs[rel] {
			g.Edges = append(g.Edges, Edge{From: b, To: v, Kind: EdgeBarrier})
		}
	}
}

// canonicalize sorts edges by (To, From, Kind), drops self-edges, and
// deduplicates — the canonical order every analysis iterates in.
func (g *Graph) canonicalize() {
	sort.SliceStable(g.Edges, func(a, b int) bool {
		ea, eb := g.Edges[a], g.Edges[b]
		if ea.To != eb.To {
			return ea.To < eb.To
		}
		if ea.From != eb.From {
			return ea.From < eb.From
		}
		return ea.Kind < eb.Kind
	})
	out := g.Edges[:0]
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == e {
			continue
		}
		out = append(out, e)
	}
	g.Edges = out
	g.in = make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		g.in[e.To] = append(g.in[e.To], i)
	}
}

// checkAcyclic runs Kahn's algorithm over the edges and reports a cycle as a
// *CycleError; Analyze's backward walk terminates only on an acyclic graph.
func (g *Graph) checkAcyclic() error {
	indeg := make([]int, len(g.Nodes))
	out := make([][]int, len(g.Nodes))
	for _, e := range g.Edges {
		indeg[e.To]++
		out[e.From] = append(out[e.From], e.To)
	}
	queue := make([]int, 0, len(g.Nodes))
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	ordered := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		ordered++
		for _, w := range out[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if ordered != len(g.Nodes) {
		return &CycleError{Remaining: len(g.Nodes) - ordered}
	}
	return nil
}

// sortedTrackKeys returns the track keys in (pid, tid) order.
func sortedTrackKeys(tracks map[[2]int]*trackRef) [][2]int {
	keys := make([][2]int, 0, len(tracks))
	for k := range tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	return keys
}
