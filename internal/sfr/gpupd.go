package sfr

import (
	"chopin/internal/exec"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// GPUpd is the prior state-of-the-art sort-first scheme (Kim et al., MICRO
// 2017; paper Section III-A): primitives are split evenly across GPUs for a
// cooperative projection pre-pass, then primitive IDs are exchanged so each
// GPU owns exactly the primitives falling into its screen tiles, and
// finally each GPU runs the normal pipeline on its primitives.
//
// The exchange must preserve primitive order, so GPUs distribute their IDs
// strictly one GPU at a time — the sequential bottleneck of paper Fig. 4.
// Both paper optimizations are modelled: batching (projection of batch i+1
// overlaps distribution of batch i) and runahead execution (a GPU starts
// the normal pipeline on batches it has fully received while later batches
// are still in flight). IdealGPUpd is obtained with an ideal link config.
type GPUpd struct{}

// Name implements Scheme.
func (GPUpd) Name() string { return "GPUpd" }

// GPUpdBatchSize is GPUpd's primitive batch size for the batching/runahead
// optimizations. Small batches keep the order-preserving exchange
// fine-grained (GPUpd distributes primitive IDs in arrival order), at the
// cost of paying the link latency once per source GPU per batch — the
// sequential bottleneck of paper Fig. 4.
const GPUpdBatchSize = 192

// batchPiece is a contiguous triangle range of one draw inside a batch.
type batchPiece struct {
	draw     int // index into frame draws
	lo, hi   int // triangle range [lo, hi)
	triStart int // global primitive index of lo (for stats)
}

// batch is a primitive batch: the unit of the batching optimization.
type batch struct {
	pieces []batchPiece
	tris   int
}

// makeBatches slices a draw range into batches of at most batchSize
// triangles, never splitting across the range boundary.
func makeBatches(draws []primitive.DrawCommand, start, end, batchSize int) []batch {
	if batchSize < 1 {
		batchSize = 1
	}
	var out []batch
	cur := batch{}
	globalTri := 0
	for di := start; di < end; di++ {
		n := draws[di].TriangleCount()
		lo := 0
		for lo < n {
			room := batchSize - cur.tris
			take := n - lo
			if take > room {
				take = room
			}
			cur.pieces = append(cur.pieces, batchPiece{draw: di, lo: lo, hi: lo + take, triStart: globalTri})
			cur.tris += take
			lo += take
			globalTri += take
			if cur.tris == batchSize {
				out = append(out, cur)
				cur = batch{}
			}
		}
	}
	if cur.tris > 0 {
		out = append(out, cur)
	}
	return out
}

// destMasks returns the destination-GPU bitmasks of draw di's triangles:
// bit g of mask ti is set when GPU g owns a tile triangle ti's projected
// bounding box overlaps. Each draw's masks are computed on its first query,
// under the tile ownership at that moment, and cached; a GPU's share of the
// draw is the raster.Selection of these masks and its bit.
func destMasks(sys *multigpu.System, fr *primitive.Frame) func(di int) []uint64 {
	dests := make([][]uint64, len(fr.Draws))
	return func(di int) []uint64 {
		if dests[di] == nil {
			d := &fr.Draws[di]
			mvp := fr.Proj.Mul(fr.View).Mul(d.Model)
			masks := make([]uint64, len(d.Tris))
			for i := range d.Tris {
				rect, ok := raster.CoveredTiles(&d.Tris[i], &mvp, fr.Width, fr.Height)
				if !ok {
					continue
				}
				var m uint64
				for ty := rect.Y0; ty <= rect.Y1; ty++ {
					for tx := rect.X0; tx <= rect.X1; tx++ {
						m |= 1 << uint(sys.Owner(rect.Tile(tx, ty)))
					}
				}
				masks[i] = m
			}
			dests[di] = masks
		}
		return dests[di]
	}
}

// selectionReqs appends to reqs one request per GPU that masks[lo:hi]
// selects a triangle for, in ascending GPU order, each selecting that GPU's
// triangles with opts.
func selectionReqs(reqs []multigpu.DrawReq, masks []uint64, lo, hi, n int, opts gpu.DrawOpts) []multigpu.DrawReq {
	var union uint64
	for _, m := range masks[lo:hi] {
		union |= m
	}
	for dst := 0; dst < n; dst++ {
		if bit := uint64(1) << uint(dst); union&bit != 0 {
			reqs = append(reqs, multigpu.DrawReq{GPU: dst, Sel: raster.Selection{Masks: masks, Bit: bit}, Opts: opts})
		}
	}
	return reqs
}

// Run implements Scheme.
func (GPUpd) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	r := exec.New("GPUpd", sys, fr)
	r.OwnTiles()
	eng := sys.Eng
	n := sys.Cfg.NumGPUs

	destMask := destMasks(sys, fr)

	r.RunSegments(func(seg exec.Segment, done func()) {
		segStart := eng.Now()
		batches := makeBatches(fr.Draws, seg.Start, seg.End, GPUpdBatchSize)

		var projAllDone, distAllDone sim.Cycle
		projected := 0   // batches fully projected
		distributed := 0 // batches fully distributed

		// bar retires the segment's sub-draws; it seals once the last batch
		// has been fully distributed.
		bar := r.TracedBarrier("segment draws", func() {
			// Attribute the wall clock: projection up to projAllDone,
			// distribution up to distAllDone (overlapped projection charged
			// to projection), the rest to the normal pipeline.
			r.AttributePhases(segStart, []exec.Mark{
				{Tag: stats.PhaseProjection, At: projAllDone},
				{Tag: stats.PhaseDistribution, At: distAllDone},
			}, stats.PhaseNormal)
			done()
		})

		// submitBatch runs the normal pipeline on every destination's
		// share of batch b (runahead execution: called as soon as the batch
		// is delivered). Each piece is set up once and prepared, in piece
		// order, on every GPU it selects triangles for. The commits then go
		// destination by destination, each in piece order: the order of
		// the event tie-breaks.
		opts := gpu.DrawOpts{OnDone: func(*raster.DrawResult) { bar.Done() }}
		var reqs []multigpu.DrawReq
		var prep []*gpu.PreparedDraw
		var prepGPU []int
		submitBatch := func(b *batch) {
			for _, p := range b.pieces {
				reqs = selectionReqs(reqs[:0], destMask(p.draw), p.lo, p.hi, n, opts)
				if len(reqs) == 0 {
					continue
				}
				prep = sys.PrepareBroadcast(prep, &fr.Draws[p.draw], p.lo, p.hi, fr.View, fr.Proj, reqs)
				for _, r := range reqs {
					prepGPU = append(prepGPU, r.GPU)
				}
			}
			for dst := 0; dst < n; dst++ {
				for i, g := range prepGPU {
					if g == dst {
						bar.Add(1)
						sys.GPUs[dst].CommitDraw(prep[i])
					}
				}
			}
			clear(prep)
			prep, prepGPU = prep[:0], prepGPU[:0]
		}

		// Distribution of batch bi: each source GPU in turn sends, to each
		// destination, the IDs of the triangles in its projection slice that
		// cover that destination's tiles (4 bytes per ID).
		distStarted := make([]bool, len(batches))
		var distribute func(bi int)
		distribute = func(bi int) {
			b := &batches[bi]
			// Triangle index ranges of each source GPU's projection slice.
			slice := func(src int) (int, int) {
				lo := b.tris * src / n
				hi := b.tris * (src + 1) / n
				return lo, hi
			}
			// counts[src][dst] = IDs src sends to dst.
			counts := make([][]int64, n)
			for src := 0; src < n; src++ {
				counts[src] = make([]int64, n)
			}
			idx := 0
			for _, p := range b.pieces {
				masks := destMask(p.draw)
				for ti := p.lo; ti < p.hi; ti++ {
					src := 0
					for s := 0; s < n; s++ {
						if lo, hi := slice(s); idx >= lo && idx < hi {
							src = s
							break
						}
					}
					m := masks[ti]
					for dst := 0; dst < n; dst++ {
						if m&(1<<uint(dst)) != 0 && dst != src {
							counts[src][dst]++
						}
					}
					idx++
				}
			}
			pendingMsgs := 0
			src := 0
			var sendFrom func()
			finishBatch := func() {
				distributed++
				distAllDone = max(distAllDone, eng.Now())
				submitBatch(b)
				if bi+1 < len(batches) {
					// Batching: start the next batch's distribution if its
					// projection (which overlapped this distribution) is
					// already done; otherwise its projection callback will.
					if projected >= bi+2 && !distStarted[bi+1] {
						distStarted[bi+1] = true
						distribute(bi + 1)
					}
					return
				}
				bar.Seal()
			}
			// nextTurn passes the distribution turn to the next GPU, or
			// finishes the batch after the last one.
			nextTurn := func() {
				src++
				if src < n {
					sendFrom()
					return
				}
				finishBatch()
			}
			msgDone := func() {
				pendingMsgs--
				if pendingMsgs == 0 {
					nextTurn()
				}
			}
			sendFrom = func() {
				pendingMsgs = 0
				for dst := 0; dst < n; dst++ {
					if counts[src][dst] == 0 {
						continue
					}
					pendingMsgs++
					sys.Fabric.Send(src, dst, counts[src][dst]*4, interconnect.ClassPrimDist, msgDone)
				}
				if pendingMsgs == 0 {
					// Nothing to send: the turn token still crosses the
					// fabric to the next GPU (a control handshake).
					sys.Fabric.SendControl(src, (src+1)%n, 4, nextTurn)
				}
			}
			sendFrom()
		}

		// Projection: every batch is projected cooperatively; each GPU
		// handles an even slice. Batches are issued back-to-back; per-GPU
		// geometry units serialize them naturally.
		for bi := range batches {
			b := &batches[bi]
			per := (b.tris + n - 1) / n
			proj := exec.NewBarrier(func() {
				projected++
				projAllDone = max(projAllDone, eng.Now())
				// Start distribution if it is this batch's turn.
				if bi == distributed && !distStarted[bi] {
					distStarted[bi] = true
					distribute(bi)
				}
			})
			proj.Add(n)
			proj.Seal()
			for g := 0; g < n; g++ {
				sys.GPUs[g].SubmitProjection(per, proj.Done)
			}
		}
		if len(batches) == 0 {
			bar.Seal()
		}
	})
	return finishRun(r, sys, fr)
}
