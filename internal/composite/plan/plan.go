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
// power-of-two counts) and radix-k (log_k N rounds, generalizing both).
//
// Every plan reorders and regroups merges freely, so plans compose only the
// opaque depth merge, which is commutative and associative. Transparent
// groups keep the order-preserving adjacent-merge chains the scheme layer
// builds.
package plan

import "fmt"

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
	default:
		return AlgDirectSend, fmt.Errorf("plan: unknown composition algorithm %q (want direct-send, binary-swap, or radix-k)", s)
	}
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
	// Alg is the algorithm that generated the plan.
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
	p.Rounds, p.Final = radixRounds(n, h, 2)
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
	p.Rounds, p.Final = radixRounds(n, h, k)
	return p, nil
}

// radixRounds generates the log_k(n) rounds of grouped direct-send over GPUs
// 0..n-1, n a power of k, and returns them with the final per-GPU regions.
func radixRounds(n, h, k int) ([]Round, []Region) {
	final := make([]Region, n)
	for g := range final {
		final[g] = Region{0, h}
	}
	var rounds []Round
	for stride := 1; stride < n; stride *= k {
		var round Round
		for base := 0; base < n; base++ {
			if (base/stride)%k != 0 {
				continue
			}
			// The group is base, base+stride, …, base+(k−1)·stride, all
			// sharing one current range. Member j keeps piece j and
			// receives it from every other member.
			l, r := final[base].Lo, final[base].Hi
			for j := 0; j < k; j++ {
				m := base + j*stride
				p0 := l + (r-l)*j/k
				p1 := l + (r-l)*(j+1)/k
				for jo := 0; jo < k; jo++ {
					if jo == j {
						continue
					}
					round = append(round, Session{Sender: base + jo*stride, Receiver: m, Region: Region{p0, p1}})
				}
				final[m] = Region{p0, p1}
			}
		}
		rounds = append(rounds, round)
	}
	return rounds, final
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

// DefaultK returns the radix used when AlgRadixK is requested without an
// explicit k: the largest of 8, 4, 2 that n is a power of, or 0 when n is
// not a power of two (radix-k does not apply).
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

// For builds the plan alg names for n GPUs and h screen rows. k is the radix
// for AlgRadixK; pass 0 for DefaultK.
func For(alg Algorithm, n, h, k int) (*Plan, error) {
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
// one session per ordered pair.
func Check(p *Plan) error {
	if p.N < 1 || p.N > 64 {
		return fmt.Errorf("plan: invalid GPU count %d", p.N)
	}
	for ri, round := range p.Rounds {
		for _, s := range round {
			if s.Sender == s.Receiver {
				return fmt.Errorf("plan: round %d has a self-send on GPU %d", ri, s.Sender)
			}
			if s.Sender < 0 || s.Sender >= p.N || s.Receiver < 0 || s.Receiver >= p.N {
				return fmt.Errorf("plan: round %d session %d→%d out of range", ri, s.Sender, s.Receiver)
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
		want := p.N * (p.N - 1)
		if len(seen) != want {
			return fmt.Errorf("plan: direct-send has %d sessions, want %d", len(seen), want)
		}
		return nil
	}
	var full uint64
	contrib := make([][]uint64, p.N)
	for g := range contrib {
		contrib[g] = make([]uint64, p.Height)
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
		for y := fr.Lo; y < fr.Hi; y++ {
			if contrib[g][y] != full {
				return fmt.Errorf("plan: GPU %d's final row %d has contributions %064b, want all %d", g, y, contrib[g][y], p.N)
			}
		}
	}
	// Final regions must tile the screen exactly once.
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
