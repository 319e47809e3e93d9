package sfr

import (
	"fmt"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/composite/plan"
	"chopin/internal/core"
	"chopin/internal/exec"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// planExec executes one opaque composition group's exchange plan
// (Config.CompAlg: binary-swap, radix-k, mixed-radix, or whatever Auto
// resolved to) over the simulated fabric, replacing the direct-send
// exchange while keeping the rest of the group lifecycle — draw
// distribution, readiness, phase attribution — unchanged.
//
// Execution model: when GPU g's sub-image is ready, its group contribution
// (the dirty tiles of its render target) is snapshotted into a work buffer,
// because multi-round plans forward partially accumulated region content
// that must contain only this group's rendering, not the target's prior
// frame state. Sessions transfer the full payload region (rows × width ×
// 8 B, the dense exchange of the classic schedules) and the receiver's ROPs
// depth-merge the sender's dirty content clipped to the region. A session
// completes — unblocking the round gating in core.PlanScheduler — only
// after its merge is applied, so content a GPU forwards in round r+1
// already includes everything it accumulated in round r. After the last
// round each GPU holds the fully composed pixels of its Final region and
// scatters them to the screen's tile owners, who merge them into their
// authoritative render targets.
//
// Fault recovery (DESIGN.md §12): a GPU excluded mid-plan — fail-stopped,
// or declared a straggler by the progress watchdog — invalidates every
// in-flight session of the current plan generation, hands its assigned
// draws to the surviving GPUs for re-rendering, and once no further draws
// are lost rebuilds the exchange as a repaired plan (plan.Repair) over the
// survivors. Because the opaque depth merge is commutative, associative and
// idempotent, restarting the exchange from re-snapshotted sub-images
// reproduces exactly the pixels a fault-free run would have composed. The
// time from exclusion to the repaired plan's installation is recorded as a
// recovery window and attributed to stats.PhaseRecovery.
type planExec struct {
	r    *chopinRun
	rt   int
	cmp  colorspace.CompareFunc
	p    *plan.Plan
	ps   *core.PlanScheduler
	work []*framebuffer.Buffer

	// gen is the plan generation: bumped on every exclusion so callbacks
	// belonging to a superseded exchange (transfers and merges already in
	// flight when the plan was torn down) retire as no-ops.
	gen int
	// excluded marks GPUs removed from this group's exchange (fail-stop or
	// straggler). assigned tracks the draw indices each GPU rendered for
	// this group, so an exclusion knows exactly what to re-render.
	excluded []bool
	assigned [][]int
	// readyG marks GPUs whose sub-image reached readiness; during a repair,
	// readiness is latched here and the snapshot deferred until the repaired
	// plan is installed (the render target may still be absorbing adopted
	// draws).
	readyG []bool
	// repairing is set from the first exclusion until the repaired plan is
	// installed; lost holds draw indices awaiting redistribution.
	repairing bool
	lost      []int
	winStart  sim.Cycle
	windows   []recWindow
	// tLiveReady is when every currently-live GPU had reached readiness
	// (the degraded-mode analogue of the group's all-ready timestamp).
	tLiveReady sim.Cycle

	// Straggler watchdog (Config.StragglerWindow > 0): progress counts
	// readiness, session starts and session completions; a window with no
	// progress excludes the laggard so the exchange repairs early instead of
	// waiting out a stalled GPU.
	swWindow   sim.Cycle
	swArmed    bool
	swLastSeen uint64
	progress   uint64

	scattered bool
	done      func()
}

// recWindow is one recovery interval: exclusion detected at start, repaired
// plan installed at end.
type recWindow struct {
	start, end sim.Cycle
}

func newPlanExec(r *chopinRun, rt int, cmp colorspace.CompareFunc, done func()) (*planExec, error) {
	ps, err := core.NewPlanScheduler(r.compPlan)
	if err != nil {
		return nil, err
	}
	return &planExec{
		r:        r,
		rt:       rt,
		cmp:      cmp,
		p:        r.compPlan,
		ps:       ps,
		work:     make([]*framebuffer.Buffer, r.n),
		excluded: make([]bool, r.n),
		assigned: make([][]int, r.n),
		readyG:   make([]bool, r.n),
		swWindow: r.sys.Cfg.StragglerWindow,
		done:     done,
	}, nil
}

// snapshot captures GPU g's group contribution (the dirty tiles of its
// render target) into its work buffer.
func (px *planExec) snapshot(g int) {
	tgt := px.r.sys.GPUs[g].Target(px.rt)
	w := framebuffer.MustNew(tgt.Width(), tgt.Height())
	for _, t := range tgt.DirtyTiles() {
		// Same dimensions by construction; CopyTileFrom cannot fail.
		_ = w.CopyTileFrom(tgt, t)
	}
	px.work[g] = w
}

// setReady records GPU g's sub-image readiness. Outside a repair it
// snapshots the contribution and lets the scheduler start any sessions the
// snapshot unblocks; during a repair the snapshot is deferred until the
// repaired plan is installed.
func (px *planExec) setReady(g int) {
	if px.excluded[g] {
		return
	}
	px.readyG[g] = true
	px.progress++
	px.noteLiveReady()
	if px.swWindow > 0 && !px.swArmed {
		px.swArmed = true
		px.armStraggler()
	}
	if px.repairing {
		return
	}
	px.snapshot(g)
	px.ps.SetReady(g)
	if px.ps.Done() {
		// A repaired lone-survivor plan has no sessions: readiness alone
		// completes it.
		px.scatter()
		return
	}
	px.pump()
}

// noteLiveReady stamps the first cycle at which every live GPU had reached
// readiness, for phase attribution.
func (px *planExec) noteLiveReady() {
	if px.tLiveReady != 0 {
		return
	}
	for g := 0; g < px.r.n; g++ {
		if !px.excluded[g] && !px.readyG[g] {
			return
		}
	}
	px.tLiveReady = px.r.sys.Eng.Now()
}

// pump starts every session the scheduler can arbitrate now. Completion
// callbacks carry the current generation so sessions of a superseded plan
// retire as no-ops after a repair.
func (px *planExec) pump() {
	r := px.r
	gen := px.gen
	for _, s := range px.ps.NextSessions() {
		s := s
		px.progress++
		rows := s.Region.Rows()
		if rows == 0 {
			// Degenerate split (more GPUs than rows in the range): the
			// session carries no pixels but still sequences the rounds.
			r.sys.Eng.After(0, func() { px.complete(gen, s) })
			continue
		}
		pixels := rows * r.sys.Width()
		bytes := int64(pixels) * framebuffer.OpaqueCompositionBytesPerPixel
		r.sys.Fabric.Send(s.Sender, s.Receiver, bytes, interconnect.ClassComposition, func() {
			if gen != px.gen {
				return // superseded by a repair while in flight
			}
			r.sys.GPUs[s.Receiver].SubmitMerge(pixels, func() {
				composite.DepthMergeRegion(px.work[s.Receiver], px.work[s.Sender],
					px.cmp, s.Region.Lo, s.Region.Hi, nil)
			}, func() { px.complete(gen, s) })
		})
	}
}

// complete retires a session after its merge has been applied, then either
// pumps newly unblocked sessions or, when every round has drained,
// scatters the composed regions to their owners.
func (px *planExec) complete(gen int, s plan.Session) {
	if gen != px.gen {
		return
	}
	if err := px.ps.Complete(s); err != nil {
		px.r.ex.Fail(err)
		return
	}
	px.progress++
	if px.ps.Done() {
		px.scatter()
		return
	}
	px.pump()
}

// exclude removes GPU g from this group's exchange: its contribution is
// discarded, in-flight sessions of the current plan are invalidated, and
// its assigned draws queue for redistribution. The first exclusion opens a
// recovery window; repairs triggered while one is already open fold into
// the running re-render loop.
func (px *planExec) exclude(g int) {
	if g < 0 || g >= px.r.n || px.excluded[g] {
		return
	}
	px.excluded[g] = true
	px.gen++
	px.progress++
	px.work[g] = nil
	// Restore message acceptance so senders' egress FIFOs never wedge
	// head-of-line behind a transfer addressed to the excluded GPU.
	px.r.sys.Fabric.SetAccept(g, true)
	px.lost = append(px.lost, px.assigned[g]...)
	px.assigned[g] = nil
	px.noteLiveReady()
	if px.scattered {
		// Too late to repair this group's exchange; the step-boundary
		// checkpoint (recoverFailed) restores the GPU's tiles.
		return
	}
	live := 0
	for _, ex := range px.excluded {
		if !ex {
			live++
		}
	}
	if live == 0 {
		px.r.ex.Fail(fmt.Errorf("sfr: every GPU excluded from the composition exchange"))
		return
	}
	if !px.repairing {
		px.repairing = true
		px.winStart = px.r.sys.Eng.Now()
		px.rerenderRound()
	}
}

// rerenderRound redistributes the draws lost to excluded GPUs round-robin
// across the survivors and re-renders them. It loops — an adopter failing
// mid-re-render loses its whole (grown) assignment back into lost — until a
// round ends with nothing newly lost, then installs the repaired plan.
func (px *planExec) rerenderRound() {
	r := px.r
	lost := px.lost
	px.lost = nil
	if len(lost) == 0 {
		px.completeRepair()
		return
	}
	var live []int
	for g := 0; g < r.n; g++ {
		if !px.excluded[g] {
			live = append(live, g)
		}
	}
	// exclude() fails the run before the live set can empty.
	bar := r.ex.TracedBarrier("plan repair re-render", px.rerenderRound)
	bar.Add(len(lost))
	driver := sim.Cycle(r.sys.Cfg.DriverCyclesPerDraw)
	for i, di := range lost {
		a := live[i%len(live)]
		px.assigned[a] = append(px.assigned[a], di)
		gp := r.sys.GPUs[a]
		d := r.fr.Draws[di]
		// Adopters render full-screen like the original assignment
		// (ownership masks are nil for the whole group), at the
		// command-processor issue rate.
		r.sys.Eng.After(sim.Cycle(i)*driver, func() {
			gp.SubmitDraw(d, r.fr.View, r.fr.Proj, gpu.DrawOpts{
				OnDone: func(*raster.DrawResult) { bar.Done() },
			})
		})
	}
	bar.SealDeferred(r.sys.Eng)
}

// completeRepair installs the repaired plan over the survivors, closes the
// recovery window, re-snapshots every live GPU that had reached readiness
// (their targets now include adopted draws; their old work buffers may hold
// merges from the dead plan), and restarts the exchange from round zero —
// exact, because the opaque depth merge is idempotent under re-merge.
func (px *planExec) completeRepair() {
	r := px.r
	live := make([]bool, r.n)
	for g := range live {
		live[g] = !px.excluded[g]
	}
	rp, err := plan.Repair(px.p, live)
	if err == nil {
		err = plan.Check(rp)
	}
	if err != nil {
		r.ex.Fail(err)
		return
	}
	ps, err := core.NewPlanScheduler(rp)
	if err != nil {
		r.ex.Fail(err)
		return
	}
	px.p, px.ps = rp, ps
	px.repairing = false
	px.windows = append(px.windows, recWindow{start: px.winStart, end: r.sys.Eng.Now()})
	r.ex.St.PlanRepairs++
	px.progress++
	for g := 0; g < r.n; g++ {
		if live[g] && px.readyG[g] {
			px.snapshot(g)
			ps.SetReady(g)
		}
	}
	if ps.Done() {
		// Every live GPU was already ready and the repaired plan has no
		// sessions left to run (lone survivor).
		px.scatter()
		return
	}
	px.pump()
}

// armStraggler schedules the next progress check.
func (px *planExec) armStraggler() {
	px.swLastSeen = px.progress
	px.r.sys.Eng.After(px.swWindow, px.stragglerTick)
}

// stragglerTick is the periodic progress check: a full window with no
// readiness, session start, or session completion singles out a laggard for
// exclusion, repairing the plan early instead of waiting out a stall. The
// window must comfortably exceed the longest healthy inter-event gap
// (render tail, transfer + merge of one session).
func (px *planExec) stragglerTick() {
	if px.scattered {
		return // group finished: park
	}
	if px.progress == px.swLastSeen && !px.repairing {
		if g := px.laggard(); g >= 0 {
			px.exclude(g)
		}
	}
	px.armStraggler()
}

// laggard picks the GPU to blame for a stalled exchange: the lowest-id live
// GPU that never reached readiness (still rendering), else the live GPU
// furthest behind in the rounds. It refuses when fewer than two GPUs are
// live or when nobody is ready yet (a uniformly slow render is not a
// straggler).
func (px *planExec) laggard() int {
	liveCount, readyCount := 0, 0
	for g := 0; g < px.r.n; g++ {
		if px.excluded[g] {
			continue
		}
		liveCount++
		if px.readyG[g] {
			readyCount++
		}
	}
	if liveCount <= 1 || readyCount == 0 {
		return -1
	}
	for g := 0; g < px.r.n; g++ {
		if !px.excluded[g] && !px.readyG[g] {
			return g
		}
	}
	best, bestRound := -1, int(^uint(0)>>1)
	for g := 0; g < px.r.n; g++ {
		if !px.excluded[g] && px.ps.Round(g) < bestRound {
			best, bestRound = g, px.ps.Round(g)
		}
	}
	return best
}

// phaseMarks builds the phase checkpoints for this group's wall-clock
// attribution. Without recovery windows it reduces to the classic pair —
// PhaseNormal until the all-ready stamp, PhaseComposition after — so
// fault-free runs attribute identically to the pre-recovery executor. Each
// recovery window contributes exactly its span to PhaseRecovery.
func (px *planExec) phaseMarks(tAllReady sim.Cycle) []exec.Mark {
	if len(px.windows) == 0 {
		return []exec.Mark{{Tag: stats.PhaseNormal, At: tAllReady}}
	}
	ready := px.tLiveReady
	var marks []exec.Mark
	readyMarked := false
	for _, w := range px.windows {
		if !readyMarked && ready != 0 && ready <= w.start {
			marks = append(marks, exec.Mark{Tag: stats.PhaseNormal, At: ready})
			readyMarked = true
		}
		before := stats.PhaseComposition
		if !readyMarked {
			before = stats.PhaseNormal
		}
		marks = append(marks, exec.Mark{Tag: before, At: w.start})
		marks = append(marks, exec.Mark{Tag: stats.PhaseRecovery, At: w.end})
	}
	if !readyMarked && ready != 0 {
		marks = append(marks, exec.Mark{Tag: stats.PhaseNormal, At: ready})
	}
	return marks
}

// planState snapshots the executor for watchdog diagnostics.
func (px *planExec) planState() *exec.PlanState {
	st := &exec.PlanState{
		CompletedRounds: px.ps.CompletedRounds(),
		Rounds:          px.ps.Rounds(),
		PendingSessions: px.ps.PendingSessions(),
		Ready:           px.ps.ReadyBits(),
	}
	for g := 0; g < px.r.n && g < 64; g++ {
		if !px.excluded[g] {
			st.Live |= 1 << uint(g)
		}
	}
	return st
}

// scatter distributes each GPU's fully composed Final region to the
// screen's tile owners, who depth-merge it into their authoritative render
// target — the plan-executor counterpart of direct-send's owner-addressed
// delivery, paying one transfer per (holder, owner) pair with content.
// Fail-stopped owners are skipped: their tiles are reassigned and
// re-rendered at the next step-boundary checkpoint.
func (px *planExec) scatter() {
	if px.scattered {
		return
	}
	px.scattered = true
	r := px.r
	bar := r.ex.TracedBarrier("plan scatter", px.done)
	for g := 0; g < r.n; g++ {
		fr := px.p.Final[g]
		w := px.work[g]
		if fr.Empty() || w == nil || px.excluded[g] {
			continue
		}
		for owner := 0; owner < r.n; owner++ {
			if !r.sys.Alive(owner) {
				continue
			}
			var tiles []int
			pxCount := 0
			for t := 0; t < r.sys.TileCount(); t++ {
				if r.sys.Owner(t) != owner || !w.Dirty(t) {
					continue
				}
				x0, y0, x1, y1 := w.TileRect(t)
				cy0, cy1 := max(y0, fr.Lo), min(y1, fr.Hi)
				if cy1 <= cy0 {
					continue
				}
				tiles = append(tiles, t)
				pxCount += (cy1 - cy0) * (x1 - x0)
			}
			if pxCount == 0 {
				continue
			}
			owner, tiles, pxCount := owner, tiles, pxCount
			apply := func() {
				dst := r.sys.GPUs[owner].Target(px.rt)
				composite.DepthMergeRegion(dst, w, px.cmp, fr.Lo, fr.Hi, tiles)
			}
			bar.Add(1)
			if owner == g {
				// The holder owns these tiles itself: a local ROP merge, no
				// fabric traffic.
				r.sys.GPUs[owner].SubmitMerge(pxCount, apply, bar.Done)
				continue
			}
			bytes := int64(pxCount) * framebuffer.OpaqueCompositionBytesPerPixel
			r.sys.Fabric.Send(g, owner, bytes, interconnect.ClassComposition, func() {
				r.sys.GPUs[owner].SubmitMerge(pxCount, apply, bar.Done)
			})
		}
	}
	bar.SealDeferred(r.sys.Eng)
}
