// Topology extracts the fabric's wiring from its port model. The paper's
// fabric is a full crossbar (NVSwitch-style): one directed link per ordered
// GPU pair, so every route is one hop and only the source's egress port ever
// feeds a link. Scale-out systems are not crossbars — ring (NVLink bridges)
// and 2D-mesh fabrics route a bulk transfer over a path of shared link
// channels, each with its own finite bandwidth, so transfers crossing the
// same link contend even when their endpoints are disjoint.
//
// A Topology enumerates directed links and routes each (src, dst) pair over
// them deterministically. The fabric claims the routed path hop by hop: a
// transfer waits for each link's previous occupant to drain, holds the link
// for its own transmission time, and pays the link latency per hop. On the
// crossbar that reduces to the point-to-point formula tx + LatencyCycles.
package interconnect

import "fmt"

// TopologyKind selects the fabric wiring. The zero value is the crossbar,
// the paper's point-to-point fabric.
type TopologyKind uint8

const (
	// TopoCrossbar is the full crossbar: one directed link per ordered pair,
	// one-hop routes, no shared links.
	TopoCrossbar TopologyKind = iota
	// TopoRing connects GPU i to (i±1) mod n with one directed link per
	// direction; transfers take the shorter way around.
	TopoRing
	// TopoMesh2D arranges the GPUs in a near-square row-major grid with
	// directed links between grid neighbours and dimension-order (X-then-Y)
	// routing.
	TopoMesh2D
)

// String returns the topology name used by flags and reports.
func (k TopologyKind) String() string {
	switch k {
	case TopoCrossbar:
		return "crossbar"
	case TopoRing:
		return "ring"
	case TopoMesh2D:
		return "mesh"
	default:
		return "unknown"
	}
}

// ParseTopologyKind parses a topology name as accepted by the -topology
// flag.
func ParseTopologyKind(s string) (TopologyKind, error) {
	switch s {
	case "crossbar", "xbar":
		return TopoCrossbar, nil
	case "ring":
		return TopoRing, nil
	case "mesh", "mesh2d":
		return TopoMesh2D, nil
	default:
		return TopoCrossbar, fmt.Errorf("interconnect: unknown topology %q (want crossbar, ring, or mesh)", s)
	}
}

// Topology routes bulk transfers over a fixed set of directed links.
// Implementations must be deterministic: the same (src, dst) always yields
// the same route, so simulated timing is reproducible.
type Topology interface {
	// Kind identifies the topology.
	Kind() TopologyKind
	// NumLinks is the number of directed link channels (route entries are
	// indices in [0, NumLinks)).
	NumLinks() int
	// Route appends the directed link IDs of the src→dst path to buf and
	// returns it. src != dst; callers reuse buf to keep the hot path
	// allocation-free.
	Route(src, dst int, buf []int) []int
	// LinkBetween returns the directed link id carrying src→dst when the two
	// nodes are direct neighbours, or -1. This is how link fail-stop faults
	// name a physical link by its endpoints.
	LinkBetween(src, dst int) int
	// Neighbors appends src's direct neighbours to buf in ascending link-id
	// order and returns it — the adjacency the fabric's detour search walks
	// when links are down.
	Neighbors(src int, buf []int) []int
}

// NewTopology builds the topology for kind over n GPUs.
func NewTopology(kind TopologyKind, n int) (Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("interconnect: invalid GPU count %d for topology %s", n, kind)
	}
	switch kind {
	case TopoCrossbar:
		return &crossbar{n: n}, nil
	case TopoRing:
		return &ring{n: n}, nil
	case TopoMesh2D:
		return newMesh2D(n), nil
	default:
		return nil, fmt.Errorf("interconnect: unknown topology kind %d", kind)
	}
}

// crossbar connects every ordered pair with its own directed link, id
// src·n + dst. Crossbar GPUs do not relay traffic, so Neighbors is empty: a
// downed pair has no detour.
type crossbar struct{ n int }

func (c *crossbar) Kind() TopologyKind { return TopoCrossbar }
func (c *crossbar) NumLinks() int      { return c.n * c.n }

func (c *crossbar) Route(src, dst int, buf []int) []int {
	return append(buf, src*c.n+dst)
}

func (c *crossbar) LinkBetween(src, dst int) int {
	if src < 0 || dst < 0 || src >= c.n || dst >= c.n || src == dst {
		return -1
	}
	return src*c.n + dst
}

func (c *crossbar) Neighbors(src int, buf []int) []int { return buf }

// ring is a bidirectional ring: link i carries i→(i+1)%n (clockwise), link
// n+i carries i→(i−1+n)%n (counter-clockwise). Routes take the shorter
// direction; ties (even n, antipodal pair) break clockwise.
type ring struct{ n int }

func (r *ring) Kind() TopologyKind { return TopoRing }
func (r *ring) NumLinks() int      { return 2 * r.n }

func (r *ring) Route(src, dst int, buf []int) []int {
	d := (dst - src + r.n) % r.n
	if d <= r.n-d {
		for at := src; at != dst; at = (at + 1) % r.n {
			buf = append(buf, at)
		}
		return buf
	}
	for at := src; at != dst; at = (at - 1 + r.n) % r.n {
		buf = append(buf, r.n+at)
	}
	return buf
}

func (r *ring) LinkBetween(src, dst int) int {
	switch {
	case r.n > 1 && dst == (src+1)%r.n:
		return src
	case r.n > 1 && dst == (src-1+r.n)%r.n:
		return r.n + src
	default:
		return -1
	}
}

func (r *ring) Neighbors(src int, buf []int) []int {
	if r.n < 2 {
		return buf
	}
	buf = append(buf, (src+1)%r.n)
	if r.n > 2 {
		buf = append(buf, (src-1+r.n)%r.n)
	}
	return buf
}

// mesh2D is a near-square row-major grid: cols = ⌈√n⌉, rows = ⌈n/cols⌉, GPU
// g at (g/cols, g%cols). The last row may be partial. Each node owns four
// directed link slots, id = node*4 + direction (0:+x, 1:−x, 2:+y, 3:−y);
// slots pointing off the grid are simply never routed over.
type mesh2D struct {
	n, cols, rows int
}

func newMesh2D(n int) *mesh2D {
	cols := 1
	for cols*cols < n {
		cols++
	}
	return &mesh2D{n: n, cols: cols, rows: (n + cols - 1) / cols}
}

func (m *mesh2D) Kind() TopologyKind { return TopoMesh2D }
func (m *mesh2D) NumLinks() int      { return 4 * m.n }

func (m *mesh2D) Route(src, dst int, buf []int) []int {
	sr, sc := src/m.cols, src%m.cols
	dr, dc := dst/m.cols, dst%m.cols
	// Dimension-order (X-then-Y) routing. When the last row is partial the
	// X-first corner (sr, dc) may not exist — only possible when src itself
	// sits in the partial last row — in which case route Y first: the
	// Y-first corner (dr, sc) does exist, because dst's row dr must be an
	// earlier, full row (it has a column src's row lacks).
	if sr*m.cols+dc >= m.n {
		buf = m.walkY(buf, sr, dr, sc)
		return m.walkX(buf, dr, sc, dc)
	}
	buf = m.walkX(buf, sr, sc, dc)
	return m.walkY(buf, sr, dr, dc)
}

// walkX appends the links traversing row from column c0 to c1.
func (m *mesh2D) walkX(buf []int, row, c0, c1 int) []int {
	for c := c0; c < c1; c++ {
		buf = append(buf, (row*m.cols+c)*4+0)
	}
	for c := c0; c > c1; c-- {
		buf = append(buf, (row*m.cols+c)*4+1)
	}
	return buf
}

// walkY appends the links traversing col from row r0 to r1.
func (m *mesh2D) walkY(buf []int, r0, r1, col int) []int {
	for r := r0; r < r1; r++ {
		buf = append(buf, (r*m.cols+col)*4+2)
	}
	for r := r0; r > r1; r-- {
		buf = append(buf, (r*m.cols+col)*4+3)
	}
	return buf
}

func (m *mesh2D) LinkBetween(src, dst int) int {
	if src < 0 || dst < 0 || src >= m.n || dst >= m.n {
		return -1
	}
	sr, sc := src/m.cols, src%m.cols
	dr, dc := dst/m.cols, dst%m.cols
	switch {
	case sr == dr && dc == sc+1:
		return src*4 + 0
	case sr == dr && dc == sc-1:
		return src*4 + 1
	case sc == dc && dr == sr+1:
		return src*4 + 2
	case sc == dc && dr == sr-1:
		return src*4 + 3
	default:
		return -1
	}
}

func (m *mesh2D) Neighbors(src int, buf []int) []int {
	sr, sc := src/m.cols, src%m.cols
	// Ascending link-id order: +x, −x, +y, −y.
	if sc+1 < m.cols && src+1 < m.n {
		buf = append(buf, src+1)
	}
	if sc > 0 {
		buf = append(buf, src-1)
	}
	if (sr+1)*m.cols+sc < m.n {
		buf = append(buf, src+m.cols)
	}
	if sr > 0 {
		buf = append(buf, src-m.cols)
	}
	return buf
}
