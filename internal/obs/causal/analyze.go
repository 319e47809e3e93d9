package causal

import (
	"fmt"

	"chopin/internal/obs"
)

// CategoryCycles is one attribution bucket: cycles of the frame makespan
// charged to one category.
type CategoryCycles struct {
	Category string  `json:"category"`
	Cycles   int64   `json:"cycles"`
	Fraction float64 `json:"fraction"`
}

// PathStep is one chronological segment of the critical path: either a span
// executing (Kind "span") or a waiting gap between causally ordered spans
// (Kind "gap"). Steps tile [Report.Start, Report.End] exactly.
type PathStep struct {
	Kind     string `json:"kind"`
	Pid      int    `json:"pid"`
	Tid      int    `json:"tid"`
	Name     string `json:"name"`
	Category string `json:"category"`
	From     int64  `json:"from"`
	To       int64  `json:"to"`
}

// Report is the causal analysis digest. Field order is fixed and all slices
// are canonically ordered, so JSON output is byte-stable for identical
// traces.
type Report struct {
	Nodes        int              `json:"nodes"`
	EdgeCount    int              `json:"edges"`
	Start        int64            `json:"start"`
	End          int64            `json:"end"`
	Makespan     int64            `json:"makespan"`
	CriticalPath int64            `json:"critical_path"`
	Attribution  []CategoryCycles `json:"attribution"`
	Path         []PathStep       `json:"path,omitempty"`
}

// AttrFor returns the cycles attributed to category c.
func (r *Report) AttrFor(c obs.Category) int64 {
	for _, a := range r.Attribution {
		if a.Category == c.String() {
			return a.Cycles
		}
	}
	return 0
}

// Check verifies the engine's accounting invariants and returns the first
// violation: the per-category attribution must sum exactly to the makespan,
// the critical path cannot exceed the makespan, and no bucket may be
// negative. CI gates on it (chopintrace -critical -check).
func (r *Report) Check() error {
	var sum int64
	for _, a := range r.Attribution {
		if a.Cycles < 0 {
			return fmt.Errorf("causal: negative attribution %d for %s", a.Cycles, a.Category)
		}
		sum += a.Cycles
	}
	if sum != r.Makespan {
		return fmt.Errorf("causal: attribution sums to %d, want makespan %d", sum, r.Makespan)
	}
	if r.CriticalPath < 0 || r.CriticalPath > r.Makespan {
		return fmt.Errorf("causal: critical path %d outside [0, makespan %d]", r.CriticalPath, r.Makespan)
	}
	return nil
}

// Analyze extracts the critical path and the per-category attribution, which
// sums exactly to the makespan by construction: a backward walk from the
// last-finishing node follows, at every node, the binding in-edge (the
// predecessor that finished latest — the dependency that actually gated it),
// crediting the node's uncovered span segment to its category and any
// uncovered gap below it to queueing (scheduling/barrier gaps) or to the
// receiving span's category (wire-latency gaps). The walk maintains a single
// descending boundary that starts at End and reaches Start, so the credited
// segments tile the makespan with no overlap and no hole.
func (g *Graph) Analyze() *Report {
	var attr [obs.NumCategories]int64
	var rev []PathStep

	// Last-finishing node, ties toward the lowest canonical index.
	end := 0
	for i := range g.Nodes {
		if g.Nodes[i].End() > g.Nodes[end].End() {
			end = i
		}
	}

	v, t := end, g.End
	for {
		n := &g.Nodes[v]
		// A joined barrier is pass-through: its span is waiting realized by
		// its join edges, and the walk descends into the last joiner so the
		// work running under the wait gets the credit, not the wait itself.
		if !g.joinedBarrier(v) {
			if top := min(t, n.End()); top > n.Ts {
				attr[n.Cat] += top - n.Ts
				rev = append(rev, PathStep{Kind: "span", Pid: n.Pid, Tid: n.Tid, Name: n.Name,
					Category: n.Cat.String(), From: n.Ts, To: top})
				t = n.Ts
			}
		}
		best, bestEnd := -1, int64(0)
		for _, ei := range g.in[v] {
			if fe := g.Nodes[g.Edges[ei].From].End(); best < 0 || fe > bestEnd {
				best, bestEnd = ei, fe
			}
		}
		if best < 0 {
			if t > g.Start {
				attr[obs.CatQueueing] += t - g.Start
				rev = append(rev, PathStep{Kind: "gap", Pid: n.Pid, Tid: n.Tid, Name: "idle",
					Category: obs.CatQueueing.String(), From: g.Start, To: t})
			}
			break
		}
		e := g.Edges[best]
		if p := g.Nodes[e.From].End(); p < t {
			cat, name := obs.CatQueueing, "wait"
			if e.Kind == EdgeFlow {
				// Uncovered wire latency travels with the receiving span's
				// category (transfer, composition, or retry).
				cat, name = n.Cat, "latency"
			}
			attr[cat] += t - p
			rev = append(rev, PathStep{Kind: "gap", Pid: n.Pid, Tid: n.Tid, Name: name,
				Category: cat.String(), From: p, To: t})
			t = p
		}
		v = e.From
	}

	r := &Report{
		Nodes: len(g.Nodes), EdgeCount: len(g.Edges),
		Start: g.Start, End: g.End, Makespan: g.Makespan(),
	}
	for _, c := range obs.Categories() {
		cc := CategoryCycles{Category: c.String(), Cycles: attr[c]}
		if r.Makespan > 0 {
			cc.Fraction = float64(attr[c]) / float64(r.Makespan)
		}
		r.Attribution = append(r.Attribution, cc)
	}
	// Critical path = the chain's executing cycles: everything except the
	// waiting charged to queueing. Never exceeds the makespan.
	r.CriticalPath = r.Makespan - attr[obs.CatQueueing]
	// Reverse the walk into chronological order.
	for i := len(rev) - 1; i >= 0; i-- {
		r.Path = append(r.Path, rev[i])
	}
	return r
}

// AnalyzeTrace is the one-call pipeline: build the graph, then extract the
// critical path and the attribution.
func AnalyzeTrace(tf *obs.TraceFile) (*Report, error) {
	g, err := Build(tf)
	if err != nil {
		return nil, err
	}
	return g.Analyze(), nil
}
