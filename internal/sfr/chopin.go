package sfr

import (
	"fmt"
	"slices"
	"sort"

	"chopin/internal/colorspace"
	"chopin/internal/composite"
	"chopin/internal/composite/plan"
	"chopin/internal/core"
	"chopin/internal/exec"
	"chopin/internal/framebuffer"
	"chopin/internal/gpu"
	"chopin/internal/interconnect"
	"chopin/internal/multigpu"
	"chopin/internal/primitive"
	"chopin/internal/raster"
	"chopin/internal/sim"
	"chopin/internal/stats"
)

// CHOPIN is the paper's scheme (Section IV): the frame is split into
// composition groups; each group's draw commands are distributed whole
// across GPUs (no redundant geometry processing); and the resulting
// sub-images are composed in parallel — out-of-order for opaque groups,
// associatively for transparent groups.
//
// The system Config selects the variants the paper evaluates:
//
//   - Config.UseCompScheduler toggles the image-composition scheduler
//     (CHOPIN vs CHOPIN+CompSched, Fig. 13);
//   - Config.Link.Ideal gives IdealCHOPIN;
//   - RoundRobin replaces the Fig. 10 draw scheduler with naive round-robin
//     (Fig. 8);
//   - Config.GroupThreshold is the Fig. 7 duplication-fallback threshold
//     (Fig. 22); Config.SchedulerQuantum is the update interval (Fig. 18).
type CHOPIN struct {
	// RoundRobin selects naive round-robin draw scheduling instead of the
	// least-remaining-triangles scheduler.
	RoundRobin bool
	// Scheduler, when non-nil, overrides the draw-command scheduler
	// entirely (for experimentation with custom policies).
	Scheduler core.DrawScheduler
	// Reorder enables the image-preserving draw reordering of
	// core.Reorder, the group-enlarging extension sketched in
	// Section IV-A.
	Reorder bool
}

// Name implements Scheme.
func (c CHOPIN) Name() string {
	switch {
	case c.RoundRobin:
		return "CHOPIN_Round_Robin"
	case c.Reorder:
		return "CHOPIN_Reorder"
	default:
		return "CHOPIN"
	}
}

// chopinRun carries the per-frame state of one CHOPIN simulation.
type chopinRun struct {
	ex  *exec.Runtime
	sys *multigpu.System
	fr  *primitive.Frame
	n   int

	sched core.DrawScheduler
	ll    *core.LeastLoadedScheduler // non-nil when the Fig. 10 scheduler is used

	// compPlan is the exchange Config.CompAlg resolved to (nil on one GPU).
	// Opaque groups run the paper's owner-addressed direct send on a
	// direct-send plan and the plan executor on any other.
	compPlan *plan.Plan
	// curPex is the live plan executor while an opaque group composes via
	// compPlan, so a fail-stop detected mid-plan excludes the GPU from the
	// running exchange immediately instead of waiting for the step-boundary
	// checkpoint.
	curPex *planExec

	steps  []core.Step
	next   func() // advances the step sequence
	prevRT int

	// cumDirty[g][rt] records owned tiles of g ever dirtied, surviving the
	// per-group ClearDirty, for consistency-sync payloads.
	cumDirty []map[int]map[int]bool

	// failedPending holds GPUs declared failed since the last recovery
	// checkpoint; touchedRTs tracks the render targets the frame has drawn
	// into, so recovery knows what to repair.
	failedPending []int
	touchedRTs    map[int]bool
}

// Run implements Scheme.
func (c CHOPIN) Run(sys *multigpu.System, fr *primitive.Frame) (*stats.FrameStats, error) {
	if c.Reorder {
		reordered := *fr
		reordered.Draws = core.Reorder(fr.Draws)
		fr = &reordered
	}
	r := &chopinRun{
		ex:  exec.New(c.Name(), sys, fr),
		sys: sys,
		fr:  fr,
		n:   sys.Cfg.NumGPUs,
	}
	switch {
	case c.Scheduler != nil:
		r.sched = c.Scheduler
	case c.RoundRobin:
		r.sched = core.NewRoundRobin(r.n)
	default:
		r.ll = core.NewLeastLoaded(sys.GPUs, sys.Cfg.SchedulerQuantum, sys.Cfg.Link.LatencyCycles)
		r.sched = r.ll
	}
	if r.n > 1 {
		// Opaque depth merge is commutative and associative, so every
		// planner is legal; Auto picks per group size and fabric diameter.
		p, err := plan.For(sys.Cfg.CompAlg, r.n, sys.Height(), sys.Cfg.RadixK,
			plan.AssocCommutative, sys.Fabric.Diameter())
		if err != nil {
			return nil, err
		}
		r.compPlan = p
	}
	r.steps = core.Plan(fr.Draws, sys.Cfg.GroupThreshold)
	if r.n == 1 {
		// A 1-GPU system has nothing to compose: every group renders
		// locally, exactly like the conventional pipeline.
		for i := range r.steps {
			r.steps[i].Duplicate = true
		}
	}
	summary := core.Summarize(r.steps)
	st := r.ex.St
	st.GroupsTotal = summary.Groups
	st.GroupsAccelerated = summary.Accelerated
	st.TrianglesAccelerated = summary.TrianglesAccel
	r.ex.SetTextures()
	r.cumDirty = make([]map[int]map[int]bool, r.n)
	for g := range r.cumDirty {
		r.cumDirty[g] = map[int]map[int]bool{}
	}
	r.touchedRTs = map[int]bool{}
	if len(fr.Draws) > 0 {
		r.prevRT = fr.Draws[0].State.RenderTarget
	}
	sys.OnGPUFail(func(g int) {
		r.failedPending = append(r.failedPending, g)
		if r.curPex != nil {
			r.curPex.exclude(g)
		}
	})

	// One virtual step past the last group gives failures after the final
	// group a recovery checkpoint before the image is assembled.
	r.ex.Sequence(len(r.steps)+1, r.step)
	err := r.ex.Run()
	finishStats(st, sys, fr)
	// Draw-scheduler status updates (Section VI-D), accounted analytically.
	if r.ll != nil {
		st.ControlBytes += core.UpdateTrafficBytes(st.Triangles, sys.Cfg.SchedulerQuantum)
	}
	if err == nil {
		err = sys.Fabric.Err()
	}
	return st, err
}

// nextAlive returns the first alive GPU at or after g (wrapping), for
// remapping scheduler assignments away from failed GPUs.
func (r *chopinRun) nextAlive(g int) int {
	for off := 0; off < r.n; off++ {
		if cand := (g + off) % r.n; r.sys.Alive(cand) {
			return cand
		}
	}
	return g
}

// nextEligible is nextAlive additionally skipping GPUs excluded from the
// active composition exchange (stragglers are alive but no longer receive
// this group's draws).
func (r *chopinRun) nextEligible(g int, excluded []bool) int {
	for off := 0; off < r.n; off++ {
		cand := (g + off) % r.n
		if r.sys.Alive(cand) && !excluded[cand] {
			return cand
		}
	}
	return g
}

// recoverFailed is the degraded-mode checkpoint run at each step boundary
// (paper-model extension; see DESIGN.md §7): if GPUs failed since the last
// checkpoint, their screen tiles are reassigned round-robin to survivors,
// the adopted tiles are cleared, and each adopter re-renders the frame's
// draws [0, boundary) restricted to its adopted tiles — reproducing exactly
// the sequential reference pixels for those tiles. then runs once recovery
// (if any) completes.
func (r *chopinRun) recoverFailed(boundary int, then func()) {
	if len(r.failedPending) == 0 {
		then()
		return
	}
	failed := r.failedPending
	r.failedPending = nil
	if r.sys.NumAlive() == 0 {
		r.ex.Fail(fmt.Errorf("sfr: all %d GPUs failed; cannot recover frame", r.n))
		return
	}
	t := r.ex.StartPhase(stats.PhaseRecovery)
	adopted := r.sys.ReassignTiles(failed)
	for _, g := range failed {
		// A dead GPU owns nothing: its pending sync payloads vanish with it.
		r.cumDirty[g] = map[int]map[int]bool{}
	}
	rts := make([]int, 0, len(r.touchedRTs))
	for rt := range r.touchedRTs {
		rts = append(rts, rt)
	}
	sort.Ints(rts)

	bar := r.ex.TracedBarrier("degraded re-render", func() {
		for a := range adopted {
			for _, rt := range rts {
				r.foldDirty(a, rt)
			}
			// The group body that follows re-establishes ownership.
			_ = r.sys.GPUs[a].SetOwnership(nil)
		}
		t.Stop()
		then()
	})
	reDraws := 0
	adopters := make([]int, 0, len(adopted))
	for a := range adopted {
		adopters = append(adopters, a)
	}
	sort.Ints(adopters)
	for _, a := range adopters {
		tiles := adopted[a]
		gp := r.sys.GPUs[a]
		mask := make([]bool, r.sys.TileCount())
		for _, tl := range tiles {
			mask[tl] = true
			for _, rt := range rts {
				gp.Target(rt).ClearTile(tl)
			}
		}
		// Masks are built to the tile count; cannot mismatch.
		_ = gp.SetOwnership(mask)
		reDraws += boundary
	}
	bar.Add(reDraws)
	for _, a := range adopters {
		gp := r.sys.GPUs[a]
		r.ex.IssueDraws(0, boundary, func(i int) {
			gp.SubmitDraw(r.fr.Draws[i], r.fr.View, r.fr.Proj, gpu.DrawOpts{
				OnDone: func(*raster.DrawResult) { bar.Done() },
			})
		})
	}
	// SealDeferred keeps the release on a fresh event even when there was
	// nothing to re-render (failure before any draws were issued).
	bar.SealDeferred(r.sys.Eng)
}

// foldDirty accumulates g's currently dirty owned tiles of rt into the
// cumulative set, under the system's current — possibly remapped — tile
// ownership.
func (r *chopinRun) foldDirty(g, rt int) {
	fb := r.sys.GPUs[g].Target(rt)
	set := r.cumDirty[g][rt]
	if set == nil {
		set = map[int]bool{}
		r.cumDirty[g][rt] = set
	}
	for t := 0; t < r.sys.TileCount(); t++ {
		if r.sys.Owner(t) == g && fb.Dirty(t) {
			set[t] = true
		}
	}
}

// syncTiles returns g's cumulative dirty owned tiles of rt, sorted.
func (r *chopinRun) syncTiles(g, rt int) []int {
	r.foldDirty(g, rt)
	set := r.cumDirty[g][rt]
	tiles := make([]int, 0, len(set))
	for t := range set {
		tiles = append(tiles, t)
	}
	sort.Ints(tiles)
	return tiles
}

// clearSync empties the cumulative sets for rt after a broadcast.
func (r *chopinRun) clearSync(rt int) {
	for g := 0; g < r.n; g++ {
		delete(r.cumDirty[g], rt)
	}
}

// step executes composition group i, inserting a consistency sync at
// render-target switches (paper Section V) and a degraded-mode recovery
// checkpoint when GPUs failed since the previous step. It is the body of the
// runtime's step sequence; the group's completion path invokes r.next. Step
// len(steps) is virtual: a final recovery checkpoint with no group body.
func (r *chopinRun) step(i int, next func()) {
	r.next = next
	if i == len(r.steps) {
		r.recoverFailed(len(r.fr.Draws), next)
		return
	}
	step := r.steps[i]
	rt := r.fr.Draws[step.Group.Start].State.RenderTarget
	r.touchedRTs[rt] = true
	if r.ex.Tracer() != nil {
		kind := "opaque"
		switch {
		case step.Duplicate:
			kind = "duplicate"
		case step.Group.Transparent:
			kind = "transparent"
		}
		r.ex.MarkStep(fmt.Sprintf("group %d (%s, %d draws)", i, kind, step.Group.Len()))
	}

	execute := func() {
		switch {
		case step.Duplicate:
			r.duplicateGroup(step.Group, rt)
		case step.Group.Transparent:
			r.transparentGroup(step.Group, rt)
		default:
			r.opaqueGroup(step.Group, rt)
		}
	}
	body := func() {
		if rt != r.prevRT {
			old := r.prevRT
			r.prevRT = rt
			t := r.ex.StartPhase(stats.PhaseSync)
			r.ex.SyncTarget(old, func(src int) []int { return r.syncTiles(src, old) }, func() {
				r.clearSync(old)
				t.Stop()
				execute()
			})
			return
		}
		execute()
	}
	r.recoverFailed(step.Group.Start, body)
}

// duplicateGroup runs a below-threshold group the conventional way: every
// live GPU executes every draw with its tile-ownership mask (Fig. 7 step Ë).
func (r *chopinRun) duplicateGroup(grp primitive.Group, rt int) {
	phase := r.ex.StartPhase(stats.PhaseNormal)
	for g, gp := range r.sys.GPUs {
		// System masks match the tile count by construction.
		_ = gp.SetOwnership(r.sys.Mask(g))
	}
	if r.ll != nil {
		r.ll.NoteDuplicated(grp.Triangles)
	}
	bar := r.ex.TracedBarrier("duplicate group draws", func() {
		phase.Stop()
		r.next()
	})
	// Registered per submission (not len×N upfront) so a GPU failing between
	// issues shrinks the expected count instead of wedging the barrier.
	// The alive-GPU broadcast goes through BroadcastDraw so each draw is set
	// up once on the host for all of them, in submission order.
	last := grp.End - 1
	reqs := make([]multigpu.DrawReq, 0, r.n)
	r.ex.IssueDraws(grp.Start, grp.End, func(i int) {
		reqs = reqs[:0]
		for g := 0; g < r.n; g++ {
			if !r.sys.Alive(g) {
				continue
			}
			bar.Add(1)
			reqs = append(reqs, multigpu.DrawReq{GPU: g, Opts: gpu.DrawOpts{
				RecordTiming: r.sys.Cfg.RecordPerDraw && g == 0,
				OnDone:       func(*raster.DrawResult) { bar.Done() },
			}})
		}
		r.sys.BroadcastDraw(&r.fr.Draws[i], r.fr.View, r.fr.Proj, reqs)
		if i == last {
			bar.Seal()
		}
	})
}

// staggered splits a direct-send plan's sessions by sender, each rotated to
// start after the sender itself: naive sender g issues to g+1, g+2, … mod n
// at once, so the senders do not all address GPU 0 first.
func staggered(p *plan.Plan) [][]plan.Session {
	rows := make([][]plan.Session, p.N)
	for _, round := range p.Rounds {
		for _, s := range round {
			rows[s.Sender] = append(rows[s.Sender], s)
		}
	}
	for g, row := range rows {
		k := sort.Search(len(row), func(i int) bool { return row[i].Receiver > g })
		rows[g] = slices.Concat(row[k:], row[:k])
	}
	return rows
}

// opaqueGroup distributes draws across GPUs and composes the sub-images
// out-of-order (Fig. 7 steps Ï–Ð).
func (r *chopinRun) opaqueGroup(grp primitive.Group, rt int) {
	eng := r.sys.Eng
	phaseStart := eng.Now()
	var tAllReady sim.Cycle

	// The merge comparison: strict less-than for depth-writing groups;
	// less-or-equal when the group tests but does not write depth, so that
	// its colour writes survive ties against the owner's identical depth.
	mergeCmp := colorspace.CmpLess
	if !r.fr.Draws[grp.Start].State.DepthWrite {
		mergeCmp = colorspace.CmpLessEqual
	}

	for g, gp := range r.sys.GPUs {
		_ = gp.SetOwnership(nil) // distributed draws render the full screen
		r.foldDirty(g, rt)
		gp.Target(rt).ClearDirty()
		r.sys.Fabric.SetAccept(g, false)
	}

	outstanding := make([]int, r.n)
	ready := make([]bool, r.n)
	readyCount := 0
	driverDone := false

	// A multi-round plan runs on the plan executor (pex is assigned below;
	// groupEnd closes over it). Direct send runs here, arbitrated by the
	// composition scheduler (ps) under Config.UseCompScheduler and naive
	// otherwise.
	var pex *planExec
	var ps *core.PlanScheduler

	groupEnd := func() {
		marks := []exec.Mark{{Tag: stats.PhaseNormal, At: tAllReady}}
		if pex != nil {
			r.curPex = nil
			r.ex.SetPlanState(nil)
			marks = pex.phaseMarks(tAllReady)
		}
		r.ex.AttributePhases(phaseStart, marks, stats.PhaseComposition)
		for g := range r.cumDirty {
			r.foldDirty(g, rt)
		}
		r.next()
	}

	var naiveSessions [][]plan.Session
	naiveRemaining := 0
	switch {
	case r.compPlan.Alg != plan.AlgDirectSend:
		var err error
		pex, err = newPlanExec(r, rt, mergeCmp, groupEnd)
		if err != nil {
			r.ex.Fail(err)
			return
		}
		r.curPex = pex
		r.ex.SetPlanState(pex.planState)
	case r.sys.Cfg.UseCompScheduler:
		var err error
		ps, err = core.NewPlanScheduler(r.compPlan)
		if err != nil {
			r.ex.Fail(err)
			return
		}
	default:
		naiveSessions = staggered(r.compPlan)
		naiveRemaining = r.compPlan.Sessions()
	}

	// region computes the transfer payload sender→receiver: sender's tiles
	// dirtied by this group that receiver owns.
	region := func(sender, receiver int) ([]int, int) {
		tiles := r.sys.OwnedDirtyTiles(r.sys.GPUs[sender], rt, receiver)
		return tiles, r.sys.PixelCount(tiles)
	}
	applyMerge := func(sender, receiver int, tiles []int) func() {
		return func() {
			dst := r.sys.GPUs[receiver].Target(rt)
			src := r.sys.GPUs[sender].Target(rt)
			if ck := r.sys.Check; ck != nil {
				// Verified runs assert depth-test monotonicity per pixel.
				ck.DepthMerge(dst, src, mergeCmp, tiles)
				return
			}
			composite.DepthMerge(dst, src, mergeCmp, tiles)
		}
	}

	// In scheduled mode a session occupies the ports only for the pixel
	// transfer; the receiving GPU's ROPs drain the merge asynchronously.
	// The group completes when all sessions AND all merges are done.
	pendingMerges := 0
	maybeGroupEnd := func() {
		if ps.Done() && pendingMerges == 0 {
			groupEnd()
		}
	}
	var pumpScheduled func()
	pumpScheduled = func() {
		for _, s := range ps.NextSessions() {
			s := s
			tiles, px := region(s.Sender, s.Receiver)
			if px == 0 {
				eng.After(0, func() {
					if err := ps.Complete(s); err != nil {
						r.ex.Fail(err)
						return
					}
					maybeGroupEnd()
					pumpScheduled()
				})
				continue
			}
			pendingMerges++
			bytes := int64(px) * framebuffer.OpaqueCompositionBytesPerPixel
			r.sys.Fabric.Send(s.Sender, s.Receiver, bytes, interconnect.ClassComposition, func() {
				if err := ps.Complete(s); err != nil {
					r.ex.Fail(err)
					return
				}
				r.sys.GPUs[s.Receiver].SubmitMerge(px, applyMerge(s.Sender, s.Receiver, tiles), func() {
					pendingMerges--
					maybeGroupEnd()
				})
				pumpScheduled()
			})
		}
	}

	naiveSend := func(g int) {
		for _, s := range naiveSessions[g] {
			recv := s.Receiver
			tiles, px := region(g, recv)
			finish := func() {
				naiveRemaining--
				if naiveRemaining == 0 {
					groupEnd()
				}
			}
			if px == 0 {
				eng.After(0, finish)
				continue
			}
			bytes := int64(px) * framebuffer.OpaqueCompositionBytesPerPixel
			r.sys.Fabric.Send(g, recv, bytes, interconnect.ClassComposition, func() {
				r.sys.GPUs[recv].SubmitMerge(px, applyMerge(g, recv, tiles), finish)
			})
		}
	}

	maybeReady := func(g int) {
		if !driverDone || ready[g] || outstanding[g] != 0 {
			return
		}
		ready[g] = true
		readyCount++
		r.sys.Fabric.SetAccept(g, true)
		if readyCount == r.n {
			tAllReady = eng.Now()
		}
		switch {
		case pex != nil:
			pex.setReady(g)
		case ps != nil:
			ps.SetReady(g)
			pumpScheduled()
		default:
			naiveSend(g)
		}
	}

	r.ex.IssueDraws(grp.Start, grp.End, func(i int) {
		d := r.fr.Draws[i]
		g := r.sched.Assign(d.TriangleCount(), eng.Now())
		if pex != nil {
			// Remap assignments away from failed or excluded GPUs (the
			// driver stops dispatching to a dead GPU as soon as failure is
			// detected) and record who renders what, so a mid-plan
			// exclusion knows which draws to re-render on survivors.
			g = r.nextEligible(g, pex.excluded)
			pex.assigned[g] = append(pex.assigned[g], i)
		} else if !r.sys.Alive(g) {
			g = r.nextAlive(g)
		}
		outstanding[g]++
		r.sys.GPUs[g].SubmitDraw(d, r.fr.View, r.fr.Proj, gpu.DrawOpts{
			RecordTiming: r.sys.Cfg.RecordPerDraw && g == 0,
			OnDone: func(*raster.DrawResult) {
				outstanding[g]--
				maybeReady(g)
			},
		})
		if i == grp.End-1 {
			driverDone = true
			for g := 0; g < r.n; g++ {
				maybeReady(g)
			}
		}
	})
}

// transparentGroup distributes contiguous draw ranges, renders them into
// per-GPU sub-image layers, merges adjacent layers asynchronously, and
// blends the final layer over the background at each tile owner
// (Fig. 7 steps Ì–Î).
func (r *chopinRun) transparentGroup(grp primitive.Group, rt int) {
	op := grp.BlendOp

	// Every GPU first needs the true composed framebuffer (colour for the
	// final blend, depth for occlusion of transparent fragments): a
	// consistency sync on the current target (see DESIGN.md §4.3).
	t := r.ex.StartPhase(stats.PhaseSync)
	r.ex.SyncTarget(rt, func(src int) []int { return r.syncTiles(src, rt) }, func() {
		r.clearSync(rt)
		t.Stop()
		r.transparentBody(grp, rt, op)
	})
}

func (r *chopinRun) transparentBody(grp primitive.Group, rt int, op colorspace.BlendOp) {
	eng := r.sys.Eng
	phaseStart := eng.Now()
	var tAllReady sim.Cycle

	// Create the sub-image layer render targets: opaque depth inherited,
	// colour transparent (the "extra render targets" of Section IV-A).
	layers := make([]*framebuffer.Buffer, r.n)
	saved := make([]*framebuffer.Buffer, r.n)
	for g, gp := range r.sys.GPUs {
		_ = gp.SetOwnership(nil)
		saved[g] = gp.Target(rt)
		layer := saved[g].Clone()
		layer.FillColor(colorspace.Transparent)
		layer.ClearDirty()
		layers[g] = layer
		// The layer is a clone of the GPU's own target: same dimensions.
		_ = gp.SetTarget(rt, layer)
	}

	// Distribute the draw range over the live GPUs only; failed GPUs get an
	// empty chunk (their empty layer merges away logically).
	aliveList := make([]int, 0, r.n)
	for g := 0; g < r.n; g++ {
		if r.sys.Alive(g) {
			aliveList = append(aliveList, g)
		}
	}
	aliveChunks, err := core.DivideRange(r.fr.Draws, grp.Start, grp.End, max(1, len(aliveList)))
	if err != nil {
		r.ex.Fail(err)
		return
	}
	chunks := make([][2]int, r.n)
	for g := range chunks {
		chunks[g] = [2]int{grp.Start, grp.Start}
	}
	for j, g := range aliveList {
		chunks[g] = aliveChunks[j]
	}
	if r.ll != nil {
		for g, c := range chunks {
			tris := 0
			for i := c[0]; i < c[1]; i++ {
				tris += r.fr.Draws[i].TriangleCount()
			}
			r.ll.NoteAssigned(g, tris)
		}
	}

	tc := core.NewTransparentComposer(r.n)
	outstanding := make([]int, r.n)
	issued := make([]bool, r.n)
	readyCount := 0

	groupEnd := func() {
		for g, gp := range r.sys.GPUs {
			_ = gp.SetTarget(rt, saved[g])
			r.foldDirty(g, rt)
		}
		r.ex.AttributePhases(phaseStart, []exec.Mark{
			{Tag: stats.PhaseNormal, At: tAllReady},
		}, stats.PhaseComposition)
		r.next()
	}

	// backgroundMerge distributes the final layer to tile owners, who blend
	// it over their authoritative framebuffer region.
	backgroundMerge := func(holder int) {
		layer := layers[holder]
		bar := r.ex.TracedBarrier("background merge", groupEnd)
		for owner := 0; owner < r.n; owner++ {
			var tiles []int
			for t := 0; t < r.sys.TileCount(); t++ {
				if r.sys.Owner(t) == owner && layer.Dirty(t) {
					tiles = append(tiles, t)
				}
			}
			px := r.sys.PixelCount(tiles)
			if px == 0 {
				continue
			}
			bar.Add(1)
			owner, tiles := owner, tiles
			apply := func() {
				// The GPU's target slot still points at the layer; blend
				// into the real framebuffer it will be restored to.
				composite.BlendMerge(saved[owner], layer, op, tiles)
			}
			if owner == holder {
				r.sys.GPUs[owner].SubmitMerge(px, apply, bar.Done)
				continue
			}
			bytes := int64(px) * framebuffer.TransparentCompositionBytesPerPixel
			r.sys.Fabric.Send(holder, owner, bytes, interconnect.ClassComposition, func() {
				r.sys.GPUs[owner].SubmitMerge(px, apply, bar.Done)
			})
		}
		bar.SealDeferred(eng)
	}

	var pump func()
	pump = func() {
		if tc.Done() {
			holder, ok := tc.FinalHolder()
			if !ok {
				r.ex.Fail(fmt.Errorf("sfr: transparent composition lost its holder"))
				return
			}
			backgroundMerge(holder)
			return
		}
		for _, m := range tc.NextMerges() {
			m := m
			src := layers[m.From]
			px := 0
			for _, t := range src.DirtyTiles() {
				px += src.TilePixelCount(t)
			}
			finish := func() {
				if err := tc.Complete(m); err != nil {
					r.ex.Fail(err)
					return
				}
				pump()
			}
			apply := func() {
				// m.From holds the later (front) range: blend it over
				// m.To's accumulated layer.
				composite.BlendMerge(layers[m.To], src, op, nil)
			}
			if px == 0 {
				// Nothing rendered: complete the merge logically.
				eng.After(0, func() {
					apply()
					finish()
				})
				continue
			}
			bytes := int64(px) * framebuffer.TransparentCompositionBytesPerPixel
			r.sys.Fabric.Send(m.From, m.To, bytes, interconnect.ClassComposition, func() {
				r.sys.GPUs[m.To].SubmitMerge(px, apply, finish)
			})
		}
	}

	maybeReady := func(g int) {
		if !issued[g] || outstanding[g] != 0 {
			return
		}
		issued[g] = false // guard against double-readiness
		readyCount++
		r.sys.Fabric.SetAccept(g, true)
		if readyCount == r.n {
			tAllReady = eng.Now()
		}
		tc.SetReady(g)
		pump()
	}

	for g := 0; g < r.n; g++ {
		r.sys.Fabric.SetAccept(g, false)
		c := chunks[g]
		if c[0] == c[1] {
			g := g
			eng.After(0, func() {
				issued[g] = true
				maybeReady(g)
			})
			continue
		}
		g := g
		last := c[1] - 1
		r.ex.IssueDraws(c[0], c[1], func(i int) {
			d := r.fr.Draws[i]
			outstanding[g]++
			r.sys.GPUs[g].SubmitDraw(d, r.fr.View, r.fr.Proj, gpu.DrawOpts{
				OnDone: func(*raster.DrawResult) {
					outstanding[g]--
					maybeReady(g)
				},
			})
			if i == last {
				issued[g] = true
				maybeReady(g)
			}
		})
	}
}
