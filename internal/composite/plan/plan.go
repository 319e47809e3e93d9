// Package plan generates exchange plans for parallel image composition: the
// communication schedule a composition group executes over the simulated
// fabric, decoupled from both the image math (package composite) and the
// timing model (package interconnect).
//
// A Plan is a sequence of rounds; each round is a set of Sessions — directed
// sub-image transfers over a screen Region — that may run concurrently. A
// GPU enters round r+1 only when all of its round-r sessions have completed,
// so the plan's data dependencies hold under any interleaving the fabric
// produces. After the last round each GPU holds the fully composed pixels of
// its Final region, which it scatters to the screen's tile owners.
//
// Planners implement the classic schedules of the sort-last literature:
// direct-send (one round, N·(N−1) messages), binary-swap (log2 N rounds,
// power-of-two counts), radix-k (log_k N rounds, generalizing both), and
// mixed-radix (2-3-swap style: any count via prime factorization).
//
// Which planners are legal is gated by the composition operator's algebraic
// class: the multi-round swap schedules reorder merges arbitrarily, so they
// require a commutative and associative operator (opaque depth merge).
// Order-sensitive associative operators (transparent alpha blend) keep the
// adjacent-merge chains the scheme layer builds; non-associative operators
// cannot be composed in parallel at all.
package plan

import "fmt"

// OpClass is the algebraic class of a composition operator, the taxonomy
// that image-compositor frameworks organize algorithm selection around.
type OpClass uint8

const (
	// AssocCommutative operators (opaque depth merge: min-depth per pixel)
	// compose in any order and any grouping: every planner is legal.
	AssocCommutative OpClass = iota
	// AssocOrdered operators (transparent alpha blend) are associative but
	// not commutative: only order-preserving adjacent merges are legal, so
	// the multi-round swap planners are not.
	AssocOrdered
	// NonAssociative operators cannot be composed in parallel; the scheme
	// layer must fall back to duplication.
	NonAssociative
)

// String returns the class name.
func (c OpClass) String() string {
	switch c {
	case AssocCommutative:
		return "assoc-commutative"
	case AssocOrdered:
		return "assoc-ordered"
	case NonAssociative:
		return "non-associative"
	default:
		return "unknown"
	}
}

// Algorithm selects the exchange plan generator. The zero value is
// direct-send — the paper's composition shape and the default everywhere.
type Algorithm uint8

const (
	// AlgDirectSend sends each sub-image region straight to its owner in
	// one round: N·(N−1) messages, minimal rounds, maximal concurrent load.
	AlgDirectSend Algorithm = iota
	// AlgBinarySwap pairs GPUs over log2(N) rounds, halving each GPU's
	// active region per round. Requires a power-of-two GPU count.
	AlgBinarySwap
	// AlgRadixK runs direct-send inside k-sized groups over log_k(N)
	// rounds, generalizing binary-swap (k=2) and direct-send (k=N).
	// Requires the GPU count to be a power of k.
	AlgRadixK
	// AlgMixedRadix factorizes the GPU count and runs one radix-f round per
	// prime factor f (2-3-swap style): any GPU count, no padding.
	AlgMixedRadix
	// AlgAuto picks per composition group from the group size, the
	// operator class, and the fabric's topology diameter (see Auto).
	AlgAuto
)

// String returns the algorithm name used by flags and reports.
func (a Algorithm) String() string {
	switch a {
	case AlgDirectSend:
		return "direct-send"
	case AlgBinarySwap:
		return "binary-swap"
	case AlgRadixK:
		return "radix-k"
	case AlgMixedRadix:
		return "mixed-radix"
	case AlgAuto:
		return "auto"
	default:
		return "unknown"
	}
}

// ParseAlgorithm parses an algorithm name as accepted by the -comp-alg
// flag.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "direct-send", "directsend", "ds":
		return AlgDirectSend, nil
	case "binary-swap", "binaryswap", "bs":
		return AlgBinarySwap, nil
	case "radix-k", "radixk", "rk":
		return AlgRadixK, nil
	case "mixed-radix", "mixedradix", "mr":
		return AlgMixedRadix, nil
	case "auto":
		return AlgAuto, nil
	default:
		return AlgDirectSend, fmt.Errorf("plan: unknown composition algorithm %q (want direct-send, binary-swap, radix-k, mixed-radix, or auto)", s)
	}
}

// Legal reports whether the algorithm may compose a group whose operator
// has the given algebraic class. The multi-round swap schedules merge
// region fragments out of order, so they demand commutativity; direct-send
// is listed legal only for commutative operators too — ordered operators
// use the scheme layer's adjacent-merge chains, which are not expressed as
// exchange plans.
func Legal(a Algorithm, c OpClass) bool {
	if a == AlgAuto {
		return true // Auto resolves to a legal concrete algorithm
	}
	return c == AssocCommutative
}

// Region is a half-open row range [Lo, Hi) of the screen.
type Region struct {
	Lo, Hi int
}

// Empty reports whether the region covers no rows.
func (r Region) Empty() bool { return r.Hi <= r.Lo }

// Rows returns the row count.
func (r Region) Rows() int {
	if r.Empty() {
		return 0
	}
	return r.Hi - r.Lo
}

// Session is one directed sub-image transfer: Sender transmits its current
// accumulation over Region to Receiver, who merges it.
type Session struct {
	Sender, Receiver int
	Region           Region
}

// Round is a set of sessions that may run concurrently (subject to port
// serialization).
type Round []Session

// Plan is a complete exchange schedule for one composition group.
type Plan struct {
	// Alg is the concrete algorithm that generated the plan (never
	// AlgAuto).
	Alg Algorithm
	// N is the GPU count; Height the screen height in rows.
	N, Height int
	// OwnerRegions marks direct-send plans: session regions span the full
	// screen and the executor intersects each with the receiver's owned
	// tiles, matching the paper's ownership-partitioned exchange. Final is
	// all-empty — the composed image already sits with its owners.
	OwnerRegions bool
	// Rounds are executed in order; a GPU enters round r+1 only when all
	// its round-r sessions are complete.
	Rounds []Round
	// Final[g] is the fully composed row range GPU g holds after the last
	// round, which it scatters to the screen's tile owners.
	Final []Region

	// Live[g] marks the GPUs participating in the exchange. nil means all N
	// participate (every planner-built plan); a repair plan built by Repair
	// restricts sessions and Final regions to the survivor set, and Check
	// requires exactly the survivors' contributions to converge.
	Live []bool
}

// IsLive reports whether GPU g participates in the plan's exchange.
func (p *Plan) IsLive(g int) bool { return p.Live == nil || p.Live[g] }

// NumLive returns the number of participating GPUs.
func (p *Plan) NumLive() int {
	if p.Live == nil {
		return p.N
	}
	m := 0
	for _, ok := range p.Live {
		if ok {
			m++
		}
	}
	return m
}

// Sessions returns the total session count across rounds.
func (p *Plan) Sessions() int {
	total := 0
	for _, r := range p.Rounds {
		total += len(r)
	}
	return total
}

// DirectSend builds the one-round all-pairs plan, the paper's composition
// shape. Sessions are listed by ascending sender, then ascending receiver:
// the fixed priority in which CHOPIN's composition scheduler
// (core.PlanScheduler) arbitrates them.
func DirectSend(n, h int) (*Plan, error) {
	if err := checkDims(n, h); err != nil {
		return nil, err
	}
	p := &Plan{Alg: AlgDirectSend, N: n, Height: h, OwnerRegions: true, Final: make([]Region, n)}
	if n == 1 {
		return p, nil
	}
	round := make(Round, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for r := 0; r < n; r++ {
			if s != r {
				round = append(round, Session{Sender: s, Receiver: r, Region: Region{0, h}})
			}
		}
	}
	p.Rounds = []Round{round}
	return p, nil
}

// BinarySwap builds the log2(n)-round pairwise halving plan: radix-k with
// k=2, so each pair splits its shared range and each member keeps one half.
// n must be a power of two.
func BinarySwap(n, h int) (*Plan, error) {
	if err := checkDims(n, h); err != nil {
		return nil, err
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("plan: binary-swap requires a power-of-two GPU count, got %d", n)
	}
	p := &Plan{Alg: AlgBinarySwap, N: n, Height: h}
	p.Rounds, p.Final = radixRounds(allIDs(n), h, factorize(n))
	return p, nil
}

// RadixK builds the log_k(n)-round grouped direct-send plan. n must be a
// power of k; k must be at least 2.
func RadixK(n, h, k int) (*Plan, error) {
	if err := checkDims(n, h); err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, fmt.Errorf("plan: radix-k requires k >= 2, got %d", k)
	}
	for m := n; m > 1; m /= k {
		if m%k != 0 {
			return nil, fmt.Errorf("plan: radix-k requires the GPU count (%d) to be a power of k (%d)", n, k)
		}
	}
	p := &Plan{Alg: AlgRadixK, N: n, Height: h}
	factors := make([]int, 0, 8)
	for m := n; m > 1; m /= k {
		factors = append(factors, k)
	}
	p.Rounds, p.Final = radixRounds(allIDs(n), h, factors)
	return p, nil
}

// MixedRadix builds the 2-3-swap style plan for an arbitrary GPU count: one
// radix-f round per prime factor f of n.
func MixedRadix(n, h int) (*Plan, error) {
	if err := checkDims(n, h); err != nil {
		return nil, err
	}
	p := &Plan{Alg: AlgMixedRadix, N: n, Height: h}
	p.Rounds, p.Final = radixRounds(allIDs(n), h, factorize(n))
	return p, nil
}

// allIDs returns the participant list 0..n-1.
func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// radixRounds generates the grouped direct-send rounds for the given factor
// sequence over the participant list ids and returns them with the final
// per-participant regions. The schedule is computed over virtual indices
// 0..len(ids)-1 and each session is expressed in the actual GPU ids, which
// lets Repair reuse it over an arbitrary survivor set.
func radixRounds(ids []int, h int, factors []int) ([]Round, []Region) {
	n := len(ids)
	lo, hi := fullRegions(n, h)
	var rounds []Round
	stride := 1
	for _, k := range factors {
		var round Round
		for base := 0; base < n; base++ {
			if (base/stride)%k != 0 {
				continue
			}
			// The group is base, base+stride, …, base+(k−1)·stride, all
			// sharing one current range. Member j keeps piece j and
			// receives it from every other member.
			l, r := lo[base], hi[base]
			for j := 0; j < k; j++ {
				m := base + j*stride
				p0 := l + (r-l)*j/k
				p1 := l + (r-l)*(j+1)/k
				for jo := 0; jo < k; jo++ {
					if jo == j {
						continue
					}
					round = append(round, Session{Sender: ids[base+jo*stride], Receiver: ids[m], Region: Region{p0, p1}})
				}
				lo[m], hi[m] = p0, p1
			}
		}
		rounds = append(rounds, round)
		stride *= k
	}
	return rounds, finalRegions(lo, hi)
}

func checkDims(n, h int) error {
	if n < 1 {
		return fmt.Errorf("plan: invalid GPU count %d", n)
	}
	if n > 64 {
		return fmt.Errorf("plan: composition plans support at most 64 GPUs, got %d", n)
	}
	if h < 1 {
		return fmt.Errorf("plan: invalid screen height %d", h)
	}
	return nil
}

func fullRegions(n, h int) (lo, hi []int) {
	lo = make([]int, n)
	hi = make([]int, n)
	for i := range hi {
		hi[i] = h
	}
	return lo, hi
}

func finalRegions(lo, hi []int) []Region {
	out := make([]Region, len(lo))
	for i := range out {
		out[i] = Region{lo[i], hi[i]}
	}
	return out
}

// factorize returns n's prime factors in ascending order.
func factorize(n int) []int {
	var out []int
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			out = append(out, f)
			n /= f
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// DefaultK returns the radix used when AlgRadixK (or Auto resolving to it)
// is requested without an explicit k: the largest of 8, 4, 2 that n is a
// power of, or 0 when n is not a power of two (radix-k does not apply).
func DefaultK(n int) int {
	for _, k := range []int{8, 4, 2} {
		ok := n >= 1
		for m := n; m > 1; m /= k {
			if m%k != 0 {
				ok = false
				break
			}
		}
		if ok {
			return k
		}
	}
	return 0
}

// Auto selects the exchange algorithm for a composition group from the
// group's GPU count, its operator class, and the fabric's hop diameter:
//
//   - non-commutative operators take direct-send, the only shape whose
//     merges the scheme layer can order (ordered groups actually execute
//     adjacent-merge chains, outside the plan machinery);
//   - small groups on a flat fabric (n ≤ 8, diameter ≤ 1) keep the paper's
//     direct-send — at that scale its single round beats extra rounds;
//   - larger power-of-two groups on a flat fabric take radix-k when a
//     radix > 2 divides evenly (fewer rounds, moderate fan-in), and
//     binary-swap otherwise;
//   - on high-diameter fabrics (ring, mesh) binary-swap wins: its
//     neighbour-heavy pairing keeps routed paths short and avoids
//     direct-send's all-to-all link storm;
//   - non-power-of-two counts take mixed-radix.
func Auto(n int, class OpClass, diameter int) Algorithm {
	if class != AssocCommutative {
		return AlgDirectSend
	}
	switch {
	case n <= 8 && diameter <= 1:
		return AlgDirectSend
	case n&(n-1) != 0:
		return AlgMixedRadix
	case diameter <= 1 && DefaultK(n) > 2:
		return AlgRadixK
	default:
		return AlgBinarySwap
	}
}

// For resolves alg (including Auto) against the group parameters, gates it
// on the operator class, and builds the plan. k is the radix for AlgRadixK;
// pass 0 for DefaultK.
func For(alg Algorithm, n, h, k int, class OpClass, diameter int) (*Plan, error) {
	if alg == AlgAuto {
		alg = Auto(n, class, diameter)
	}
	if !Legal(alg, class) {
		return nil, fmt.Errorf("plan: %s is illegal for a %s operator", alg, class)
	}
	switch alg {
	case AlgDirectSend:
		return DirectSend(n, h)
	case AlgBinarySwap:
		return BinarySwap(n, h)
	case AlgRadixK:
		if k == 0 {
			k = DefaultK(n)
			if k == 0 {
				return nil, fmt.Errorf("plan: radix-k needs a power-of-two GPU count or an explicit radix, got n=%d", n)
			}
		}
		return RadixK(n, h, k)
	case AlgMixedRadix:
		return MixedRadix(n, h)
	default:
		return nil, fmt.Errorf("plan: unknown algorithm %d", alg)
	}
}

// Check validates a plan's structural invariants by simulating per-row
// contribution sets: after the last round, every row of every GPU's Final
// region must have accumulated all participating contributions, and every
// session must stay inside the screen. Within one round a GPU's sent rows
// must be disjoint from its received rows — the property that lets the
// executor read a sender's buffer at merge time without round-internal
// ordering. Direct-send (OwnerRegions) plans are instead checked for exactly
// one session per ordered pair. Plans with a Live set (repair plans) must
// keep dead GPUs out of every session, leave their Final regions empty, and
// converge exactly the survivors' contributions.
func Check(p *Plan) error {
	if p.N < 1 || p.N > 64 {
		return fmt.Errorf("plan: invalid GPU count %d", p.N)
	}
	if p.Live != nil && len(p.Live) != p.N {
		return fmt.Errorf("plan: Live has %d entries, want %d", len(p.Live), p.N)
	}
	live := func(g int) bool { return p.Live == nil || p.Live[g] }
	numLive := p.NumLive()
	if numLive == 0 {
		return fmt.Errorf("plan: no live GPUs")
	}
	for ri, round := range p.Rounds {
		for _, s := range round {
			if s.Sender == s.Receiver {
				return fmt.Errorf("plan: round %d has a self-send on GPU %d", ri, s.Sender)
			}
			if s.Sender < 0 || s.Sender >= p.N || s.Receiver < 0 || s.Receiver >= p.N {
				return fmt.Errorf("plan: round %d session %d→%d out of range", ri, s.Sender, s.Receiver)
			}
			if !live(s.Sender) || !live(s.Receiver) {
				return fmt.Errorf("plan: round %d session %d→%d touches a dead GPU", ri, s.Sender, s.Receiver)
			}
			if s.Region.Lo < 0 || s.Region.Hi > p.Height || s.Region.Lo > s.Region.Hi {
				return fmt.Errorf("plan: round %d session %d→%d region [%d,%d) outside screen height %d",
					ri, s.Sender, s.Receiver, s.Region.Lo, s.Region.Hi, p.Height)
			}
		}
	}
	if p.OwnerRegions {
		seen := make(map[[2]int]bool, p.N*p.N)
		for _, round := range p.Rounds {
			for _, s := range round {
				k := [2]int{s.Sender, s.Receiver}
				if seen[k] {
					return fmt.Errorf("plan: duplicate direct-send session %d→%d", s.Sender, s.Receiver)
				}
				seen[k] = true
			}
		}
		want := numLive * (numLive - 1)
		if len(seen) != want {
			return fmt.Errorf("plan: direct-send has %d sessions, want %d", len(seen), want)
		}
		return nil
	}
	var full uint64
	contrib := make([][]uint64, p.N)
	for g := range contrib {
		contrib[g] = make([]uint64, p.Height)
		if !live(g) {
			continue
		}
		full |= 1 << uint(g)
		for y := range contrib[g] {
			contrib[g][y] = 1 << uint(g)
		}
	}
	for ri, round := range p.Rounds {
		sent := make([]map[int]bool, p.N)
		recv := make([]map[int]bool, p.N)
		// Receivers accumulate the senders' pre-round state: within a
		// round, rows a GPU sends are disjoint from rows it receives, so
		// ordering inside the round cannot matter.
		next := make([][]uint64, p.N)
		for g := range next {
			next[g] = append([]uint64(nil), contrib[g]...)
		}
		for _, s := range round {
			for y := s.Region.Lo; y < s.Region.Hi; y++ {
				if sent[s.Sender] == nil {
					sent[s.Sender] = map[int]bool{}
				}
				if recv[s.Receiver] == nil {
					recv[s.Receiver] = map[int]bool{}
				}
				sent[s.Sender][y] = true
				recv[s.Receiver][y] = true
				next[s.Receiver][y] |= contrib[s.Sender][y]
			}
		}
		for g := 0; g < p.N; g++ {
			for y := range sent[g] {
				if recv[g][y] {
					return fmt.Errorf("plan: round %d: GPU %d both sends and receives row %d", ri, g, y)
				}
			}
		}
		contrib = next
	}
	if len(p.Final) != p.N {
		return fmt.Errorf("plan: Final has %d entries, want %d", len(p.Final), p.N)
	}
	for g, fr := range p.Final {
		if !live(g) {
			if fr.Rows() != 0 {
				return fmt.Errorf("plan: dead GPU %d has non-empty final region [%d,%d)", g, fr.Lo, fr.Hi)
			}
			continue
		}
		for y := fr.Lo; y < fr.Hi; y++ {
			if contrib[g][y] != full {
				return fmt.Errorf("plan: GPU %d's final row %d has contributions %064b, want all %d live", g, y, contrib[g][y], numLive)
			}
		}
	}
	// Live final regions must tile the screen exactly once.
	cover := make([]int, p.Height)
	for _, fr := range p.Final {
		for y := fr.Lo; y < fr.Hi; y++ {
			cover[y]++
		}
	}
	for y, c := range cover {
		if c != 1 {
			return fmt.Errorf("plan: screen row %d covered by %d final regions, want exactly 1", y, c)
		}
	}
	return nil
}

// Repair synthesizes a replacement exchange plan after mid-plan failures:
// given the original plan and the survivor set, it builds a mixed-radix plan
// over the survivors in the original GPU id space (binary-swap when the
// survivor count is a power of two, since that is exactly the 2-2-…-2
// factorization). The executor restarts the exchange from freshly
// re-snapshotted work buffers (the composition-group checkpoints), so the
// repair plan is complete rather than a resumption; depth merge being
// commutative, associative, and idempotent is what makes the fresh restart
// exact. The scheme layer repairs only multi-round plans; direct-send
// recovers through its tile reassignment instead. The repaired plan always
// passes Check.
func Repair(p *Plan, live []bool) (*Plan, error) {
	if p == nil {
		return nil, fmt.Errorf("plan: repair of a nil plan")
	}
	if len(live) != p.N {
		return nil, fmt.Errorf("plan: repair survivor set has %d entries, want %d", len(live), p.N)
	}
	ids := make([]int, 0, p.N)
	for g, ok := range live {
		if !ok {
			continue
		}
		if p.Live != nil && !p.Live[g] {
			return nil, fmt.Errorf("plan: repair survivor %d was not live in the source plan", g)
		}
		ids = append(ids, g)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("plan: repair with no survivors")
	}
	q := &Plan{
		Alg:    AlgMixedRadix,
		N:      p.N,
		Height: p.Height,
		Final:  make([]Region, p.N),
		Live:   append([]bool(nil), live...),
	}
	// A lone survivor has no factors: no rounds, and it owns the screen.
	rounds, fin := radixRounds(ids, p.Height, factorize(len(ids)))
	q.Rounds = rounds
	for v, g := range ids {
		q.Final[g] = fin[v]
	}
	return q, nil
}
