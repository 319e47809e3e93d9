// Link-level telemetry: per-link busy cycles, bytes, queueing, and
// per-transfer latency/hop histograms. Disabled by default; when enabled the
// hot-path cost is a nil check plus a handful of array increments, and the
// disabled path keeps the fabric's 0 allocs/op contract (same design as the
// tracer and the fault injector).
package interconnect

import (
	"fmt"
	"sort"

	"chopin/internal/obs/hist"
	"chopin/internal/sim"
)

// LinkTelemetry accumulates per-link counters and per-transfer histograms
// for one fabric. On routed topologies the link space is the topology's
// directed link channels; on the crossbar — which has no shared links — each
// ordered GPU pair's point-to-point connection is its own link, id
// src·n + dst. All counters are deterministic: they accumulate quantities
// the timing model already computes, so a telemetry-enabled run is
// byte-identical to a disabled one and identical on every repeated run.
type LinkTelemetry struct {
	f    *Fabric
	topo Topology // nil on the crossbar
	n    int

	// Per-link accumulators, indexed by directed link id.
	busy      []sim.Cycle // cycles the link was occupied by a transmission
	bytes     []int64     // payload bytes carried
	transfers []int64     // transmissions carried (retransmissions included)
	queued    []sim.Cycle // cycles transfers spent waiting for this link
	reroutes  []int64     // detours forced by this (downed) link; routed only

	latency hist.H // per-transmission end-to-end latency: queue → last byte drained
	hops    hist.H // per-transmission route length (1 on the crossbar)
}

// EnableLinkTelemetry attaches (and returns) the fabric's link-telemetry
// collector, allocating the per-link accumulators once. Idempotent: a second
// call returns the existing collector. Ideal fabrics have no links or
// timing, so they return nil and stay untouched.
func (f *Fabric) EnableLinkTelemetry() *LinkTelemetry {
	if f.cfg.Ideal {
		return nil
	}
	if f.lt != nil {
		return f.lt
	}
	links := f.n * f.n
	if f.topo != nil {
		links = f.topo.NumLinks()
	}
	f.lt = &LinkTelemetry{
		f:         f,
		topo:      f.topo,
		n:         f.n,
		busy:      make([]sim.Cycle, links),
		bytes:     make([]int64, links),
		transfers: make([]int64, links),
		queued:    make([]sim.Cycle, links),
		reroutes:  make([]int64, links),
	}
	return f.lt
}

// LinkTelemetry returns the attached collector, or nil when telemetry is
// disabled.
func (f *Fabric) LinkTelemetry() *LinkTelemetry { return f.lt }

// recordTransmission attributes one started transmission to its links.
// route is the claimed path on routed topologies and nil on the crossbar;
// wait is how long the transfer sat queued at the egress port before its
// first byte moved, attributed to the first link of the path (the one it was
// effectively waiting to enter).
func (lt *LinkTelemetry) recordTransmission(src, dst int, bytes int64, route []int, tx, wait sim.Cycle) {
	if lt.topo == nil {
		l := src*lt.n + dst
		lt.busy[l] += tx
		lt.bytes[l] += bytes
		lt.transfers[l]++
		lt.queued[l] += wait
		return
	}
	for i, l := range route {
		lt.busy[l] += tx
		lt.bytes[l] += bytes
		lt.transfers[l]++
		if i == 0 {
			lt.queued[l] += wait
		}
	}
}

// NumLinks returns the size of the link id space.
func (lt *LinkTelemetry) NumLinks() int { return len(lt.busy) }

// BusyCycles returns the cycles directed link l was occupied.
func (lt *LinkTelemetry) BusyCycles(l int) sim.Cycle { return lt.busy[l] }

// BytesOn returns the payload bytes carried over directed link l.
func (lt *LinkTelemetry) BytesOn(l int) int64 { return lt.bytes[l] }

// Transfers returns the transmissions carried over directed link l.
func (lt *LinkTelemetry) Transfers(l int) int64 { return lt.transfers[l] }

// QueuedCycles returns the cycles transfers spent waiting for directed link
// l: egress-queue wait for the first hop plus per-hop head-of-line wait on
// routed paths.
func (lt *LinkTelemetry) QueuedCycles(l int) sim.Cycle { return lt.queued[l] }

// Reroutes returns how many transfers detoured because directed link l was
// down. Always 0 on the crossbar (point-to-point pairs have no detour).
func (lt *LinkTelemetry) Reroutes(l int) int64 { return lt.reroutes[l] }

// Retries returns the retransmissions whose route crossed directed link l.
func (lt *LinkTelemetry) Retries(l int) int64 { return lt.f.LinkRetryCount(l) }

// Latency returns the per-transmission end-to-end latency histogram, in
// cycles from Send to the last byte draining at the destination.
func (lt *LinkTelemetry) Latency() *hist.H { return &lt.latency }

// Hops returns the per-transmission route-length histogram (every
// transmission records 1 on the crossbar).
func (lt *LinkTelemetry) Hops() *hist.H { return &lt.hops }

// MeanHops returns the mean route length over all transmissions.
func (lt *LinkTelemetry) MeanHops() float64 { return lt.hops.Mean() }

// MaxBusy returns the busiest link and its busy cycles (lowest id wins
// ties; -1 when no link carried traffic).
func (lt *LinkTelemetry) MaxBusy() (link int, busy sim.Cycle) {
	link = -1
	for l, b := range lt.busy {
		if b > busy {
			link, busy = l, b
		}
	}
	return link, busy
}

// LinkName renders directed link l as "gA->gB". On the crossbar the pair is
// encoded in the id; on routed topologies the endpoints are recovered from
// the wiring (report-path only, so the scan is fine).
func (lt *LinkTelemetry) LinkName(l int) string {
	src, dst := lt.linkEndpoints(l)
	if src < 0 {
		return fmt.Sprintf("link%d", l)
	}
	return fmt.Sprintf("g%d->g%d", src, dst)
}

// linkEndpoints resolves directed link l to its (src, dst) GPU pair, or
// (-1, -1) for an unused link slot (mesh edge slots pointing off the grid).
func (lt *LinkTelemetry) linkEndpoints(l int) (src, dst int) {
	if lt.topo == nil {
		return l / lt.n, l % lt.n
	}
	var buf []int
	for s := 0; s < lt.n; s++ {
		buf = lt.topo.Neighbors(s, buf[:0])
		for _, w := range buf {
			if lt.topo.LinkBetween(s, w) == l {
				return s, w
			}
		}
	}
	return -1, -1
}

// LinkLoad is one link's accumulated load, as reported by Top.
type LinkLoad struct {
	Link      int
	Name      string
	Busy      sim.Cycle
	Bytes     int64
	Transfers int64
	Queued    sim.Cycle
	Retries   int64
}

// Top returns the k busiest links (by busy cycles, then bytes, then
// ascending id — fully deterministic), skipping links that carried nothing.
func (lt *LinkTelemetry) Top(k int) []LinkLoad {
	var out []LinkLoad
	for l, b := range lt.busy {
		if b == 0 && lt.bytes[l] == 0 {
			continue
		}
		out = append(out, LinkLoad{
			Link: l, Name: lt.LinkName(l), Busy: b, Bytes: lt.bytes[l],
			Transfers: lt.transfers[l], Queued: lt.queued[l], Retries: lt.Retries(l),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Busy != out[j].Busy {
			return out[i].Busy > out[j].Busy
		}
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Link < out[j].Link
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Summary is a frame-level digest of the fabric's link telemetry, the form
// carried into FrameStats and run records.
type Summary struct {
	// Links is the directed link id space size; ActiveLinks how many carried
	// traffic.
	Links, ActiveLinks int
	// Transfers is the transmission count the histograms cover.
	Transfers int64
	// MaxLink is the busiest link's id, MaxLinkBusy its occupied cycles.
	MaxLink     int
	MaxLinkBusy sim.Cycle
	// MeanHops is the mean route length per transmission.
	MeanHops float64
	// LatencyP50/P90/P99 are per-transmission end-to-end latency quantiles
	// in cycles.
	LatencyP50, LatencyP90, LatencyP99 int64
	// QueuedCycles is the total time transfers spent waiting for links.
	QueuedCycles sim.Cycle
	// LinkBusy is the per-link busy-cycle vector (indexed by link id).
	LinkBusy []sim.Cycle
}

// Summarize builds the frame-level digest.
func (lt *LinkTelemetry) Summarize() Summary {
	s := Summary{
		Links:      len(lt.busy),
		Transfers:  lt.latency.Count(),
		MeanHops:   lt.hops.Mean(),
		LatencyP50: lt.latency.Quantile(0.50),
		LatencyP90: lt.latency.Quantile(0.90),
		LatencyP99: lt.latency.Quantile(0.99),
		LinkBusy:   append([]sim.Cycle(nil), lt.busy...),
	}
	s.MaxLink, s.MaxLinkBusy = lt.MaxBusy()
	for l, b := range lt.busy {
		if b != 0 || lt.bytes[l] != 0 {
			s.ActiveLinks++
		}
		s.QueuedCycles += lt.queued[l]
	}
	return s
}
