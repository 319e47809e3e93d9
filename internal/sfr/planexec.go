package sfr

import (
	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/composite/plan"
	"chopin/internal/core"
	"chopin/internal/exec"
	"chopin/internal/framebuffer"
)

// planExec executes one opaque composition group's exchange plan
// (Config.CompAlg: binary-swap or radix-k) over the simulated fabric,
// replacing the direct-send exchange while keeping the rest of the group
// lifecycle — draw distribution, readiness, phase attribution — unchanged.
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
// Fault recovery (DESIGN.md §12) is direct-send's: a GPU that fail-stops
// mid-plan has its in-flight work treated as flushed, so the exchange
// finishes, and the next step-boundary checkpoint (chopinRun.recoverFailed)
// re-renders the failed GPU's tiles on survivors.
type planExec struct {
	r    *chopinRun
	rt   int
	cmp  colorspace.CompareFunc
	p    *plan.Plan
	ps   *core.PlanScheduler
	work []*framebuffer.Buffer
	done func()
}

func newPlanExec(r *chopinRun, rt int, cmp colorspace.CompareFunc, done func()) (*planExec, error) {
	ps, err := core.NewPlanScheduler(r.compPlan)
	if err != nil {
		return nil, err
	}
	return &planExec{
		r:    r,
		rt:   rt,
		cmp:  cmp,
		p:    r.compPlan,
		ps:   ps,
		work: make([]*framebuffer.Buffer, r.n),
		done: done,
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

// setReady records GPU g's sub-image readiness: it snapshots the
// contribution and starts any sessions the snapshot unblocks.
func (px *planExec) setReady(g int) {
	px.snapshot(g)
	px.ps.SetReady(g)
	px.pump()
}

// pump starts every session the scheduler can arbitrate now.
func (px *planExec) pump() {
	r := px.r
	for _, s := range px.ps.NextSessions() {
		rows := s.Region.Rows()
		if rows == 0 {
			// Degenerate split (more GPUs than rows in the range): the
			// session carries no pixels but still sequences the rounds.
			r.sys.Eng.After(0, func() { px.complete(s) })
			continue
		}
		r.sendMerge(s.Sender, s.Receiver, rows*r.sys.Width(), framebuffer.OpaqueCompositionBytesPerPixel, func() {
			composite.DepthMergeRegion(px.work[s.Receiver], px.work[s.Sender],
				px.cmp, s.Region.Lo, s.Region.Hi, nil)
		}, nil, func() { px.complete(s) })
	}
}

// complete retires a session after its merge has been applied, then either
// pumps newly unblocked sessions or, when every round has drained,
// scatters the composed regions to their owners.
func (px *planExec) complete(s plan.Session) {
	if err := px.ps.Complete(s); err != nil {
		px.r.ex.Fail(err)
		return
	}
	if px.ps.Done() {
		px.scatter()
		return
	}
	px.pump()
}

// planState snapshots the executor for watchdog diagnostics.
func (px *planExec) planState() *exec.PlanState {
	return &exec.PlanState{
		CompletedRounds: px.ps.CompletedRounds(),
		Rounds:          px.ps.Rounds(),
		PendingSessions: px.ps.PendingSessions(),
		Ready:           px.ps.ReadyBits(),
	}
}

// scatter distributes each GPU's fully composed Final region to the
// screen's tile owners, who depth-merge it into their authoritative render
// target — the plan-executor counterpart of direct-send's owner-addressed
// delivery, paying one transfer per (holder, owner) pair with content.
// Fail-stopped owners are skipped: their tiles are reassigned and
// re-rendered at the next step-boundary checkpoint. A fail-stopped holder
// still scatters, since its in-flight work counts as flushed.
func (px *planExec) scatter() {
	r := px.r
	bar := r.ex.TracedBarrier("plan scatter", px.done)
	for g := 0; g < r.n; g++ {
		fr := px.p.Final[g]
		w := px.work[g]
		if fr.Empty() {
			continue
		}
		for owner := 0; owner < r.n; owner++ {
			if !r.sys.Alive(owner) {
				continue
			}
			tiles, pxCount := r.sys.OwnedDirtyTiles(w, owner, fr.Lo, fr.Hi)
			if pxCount == 0 {
				continue
			}
			bar.Add(1)
			r.sendMerge(g, owner, pxCount, framebuffer.OpaqueCompositionBytesPerPixel, func() {
				dst := r.sys.GPUs[owner].Target(px.rt)
				composite.DepthMergeRegion(dst, w, px.cmp, fr.Lo, fr.Hi, tiles)
			}, nil, bar.Done)
		}
	}
	bar.SealDeferred(r.sys.Eng)
}
