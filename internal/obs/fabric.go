package obs

import (
	"errors"
	"fmt"
	"sort"

	"chopin/internal/obs/hist"
)

// ErrNoTransferSpans reports a trace that contains no fabric transfer spans
// — a capture taken with the fabric untraced, an ideal-link run (which moves
// data without transmissions), or a frame that simply never touched the
// interconnect. Tools asked for a fabric breakdown must fail with this typed
// error instead of rendering an empty table.
var ErrNoTransferSpans = errors.New("obs: trace contains no transfer spans")

// PairLoad is one src→dst channel's accumulated load, reconstructed from the
// egress-track transfer spans of an exported timeline. The trace records
// logical channels (sender → final receiver), not physical hops: on a
// crossbar a pair IS a link, on routed topologies per-hop attribution needs
// the run-time collector (interconnect.LinkTelemetry).
type PairLoad struct {
	// Src and Dst are the endpoint GPU ids.
	Src, Dst int
	// Busy is the summed egress transmission time in cycles, Bytes the
	// payload carried, Transfers the transmission count (retransmissions
	// included), Retries how many of those were attempts past the first.
	Busy      int64
	Bytes     int64
	Transfers int64
	Retries   int64
}

// Name renders the pair as "gA->gB".
func (p PairLoad) Name() string { return fmt.Sprintf("g%d->g%d", p.Src, p.Dst) }

// Wave is one gap-separated burst of fabric activity: a maximal run of
// egress transfer spans with no cycle on which every egress port was idle
// between them. Composition exchanges executed round-by-round (with barriers
// between rounds) show up as one wave per round, making this the trace-side
// congestion table.
type Wave struct {
	// Start and End bound the wave's egress occupancy (first span start,
	// last span end — excludes wire latency to delivery).
	Start, End int64
	// Transfers and Bytes total the wave's transmissions.
	Transfers int64
	Bytes     int64
	// MaxPairSrc/MaxPairDst name the wave's hottest channel and MaxPairBusy
	// its busy cycles within the wave (lowest (src,dst) wins ties).
	MaxPairSrc, MaxPairDst int
	MaxPairBusy            int64
}

// FabricSummary is the fabric digest chopintrace -fabric prints, derived
// entirely from an exported timeline. Deterministic: identical traces yield
// identical summaries, and a repeated run exports a byte-identical trace.
type FabricSummary struct {
	// Transfers, Bytes, Retries total every egress transmission span.
	Transfers int64 `json:"transfers"`
	Bytes     int64 `json:"bytes"`
	Retries   int64 `json:"retries"`
	// Pairs holds per-channel loads, busiest first (busy, then bytes, then
	// ascending (src,dst)).
	Pairs []PairLoad `json:"pairs"`
	// Waves holds the gap-separated activity bursts in time order.
	Waves []Wave `json:"waves"`
	// LatencyP50/P90/P99 are wire-latency quantiles in cycles — egress span
	// start to ingress span end per flow-paired transmission — over
	// Latencies paired transfers. Unlike the run-time collector's end-to-end
	// histogram this excludes egress-queue wait, which the exporter does not
	// record.
	LatencyP50 int64 `json:"latency_p50"`
	LatencyP90 int64 `json:"latency_p90"`
	LatencyP99 int64 `json:"latency_p99"`
	Latencies  int64 `json:"latencies"`
}

// FabricSummary reconstructs the fabric digest from the trace's transfer
// spans. Returns ErrNoTransferSpans when the trace has none.
func (tf *TraceFile) FabricSummary() (*FabricSummary, error) {
	type span struct {
		ts, end, bytes int64
		src, dst       int
		retry          bool
	}
	var spans []span
	pairs := map[[2]int]*PairLoad{}
	// Flow pairing state for the wire-latency histogram: flow id → egress
	// start, and (pid, ts) → ingress span end for resolving the "f" arrow
	// (ingress spans serialize per port, so starts are unique per track).
	// The exporter writes tracks grouped by process, so an arrow's "s" can
	// appear after its "f" in the file; ends are collected first and resolved
	// after the scan.
	flowStart := map[string]int64{}
	ingressEnd := map[[2]int64]int64{}
	type flowEnd struct {
		id  string
		pid int64
		ts  int64
	}
	var flowEnds []flowEnd
	var lat hist.H
	for _, e := range tf.Events {
		switch {
		case e.Ph == "X" && e.Tid == TidEgress && e.Pid >= 1:
			dst, ok := e.Args["dst"]
			if !ok {
				continue // retry-backoff and other egress bookkeeping spans
			}
			s := span{
				ts: e.Ts, end: e.Ts + e.Dur, bytes: e.Args["bytes"],
				src: e.Pid - 1, dst: int(dst),
				retry: e.Args["attempt"] > 1,
			}
			spans = append(spans, s)
			key := [2]int{s.src, s.dst}
			p := pairs[key]
			if p == nil {
				p = &PairLoad{Src: s.src, Dst: s.dst}
				pairs[key] = p
			}
			p.Busy += e.Dur
			p.Bytes += s.bytes
			p.Transfers++
			if s.retry {
				p.Retries++
			}
		case e.Ph == "X" && e.Tid == TidIngress && e.Pid >= 1:
			ingressEnd[[2]int64{int64(e.Pid), e.Ts}] = e.Ts + e.Dur
		case e.Ph == "s":
			flowStart[e.ID] = e.Ts
		case e.Ph == "f":
			flowEnds = append(flowEnds, flowEnd{id: e.ID, pid: int64(e.Pid), ts: e.Ts})
		}
	}
	if len(spans) == 0 {
		return nil, ErrNoTransferSpans
	}
	for _, fe := range flowEnds {
		if start, ok := flowStart[fe.id]; ok {
			if end, ok := ingressEnd[[2]int64{fe.pid, fe.ts}]; ok {
				lat.Record(end - start)
			}
		}
	}

	fs := &FabricSummary{
		LatencyP50: lat.Quantile(0.50),
		LatencyP90: lat.Quantile(0.90),
		LatencyP99: lat.Quantile(0.99),
		Latencies:  lat.Count(),
	}
	for _, p := range pairs {
		fs.Transfers += p.Transfers
		fs.Bytes += p.Bytes
		fs.Retries += p.Retries
		fs.Pairs = append(fs.Pairs, *p)
	}
	sort.Slice(fs.Pairs, func(i, j int) bool {
		a, b := fs.Pairs[i], fs.Pairs[j]
		if a.Busy != b.Busy {
			return a.Busy > b.Busy
		}
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})

	// Waves: sweep spans in start order; a span starting strictly after every
	// earlier span has ended opens a new wave.
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	waveBusy := map[[2]int]int64{}
	flushWave := func(w *Wave) {
		best, bestKey := int64(0), [2]int{-1, -1}
		keys := make([][2]int, 0, len(waveBusy))
		for k := range waveBusy {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			if waveBusy[k] > best {
				best, bestKey = waveBusy[k], k
			}
		}
		w.MaxPairSrc, w.MaxPairDst, w.MaxPairBusy = bestKey[0], bestKey[1], best
		fs.Waves = append(fs.Waves, *w)
		for k := range waveBusy {
			delete(waveBusy, k)
		}
	}
	var cur *Wave
	for _, s := range spans {
		if cur != nil && s.ts > cur.End {
			flushWave(cur)
			cur = nil
		}
		if cur == nil {
			cur = &Wave{Start: s.ts, End: s.end}
		}
		if s.end > cur.End {
			cur.End = s.end
		}
		cur.Transfers++
		cur.Bytes += s.bytes
		waveBusy[[2]int{s.src, s.dst}] += s.end - s.ts
	}
	flushWave(cur)
	return fs, nil
}
