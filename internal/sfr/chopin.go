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
//
// Every wait of a group is an exec.Barrier, so a group that loses a
// composition transfer leaves the step walk unfinished and the frame fails
// with an exec.DeadlockError instead of returning a partly composed image.
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

	// compPlan is the exchange plan Config.CompAlg names (nil on one GPU).
	// Opaque groups run the paper's owner-addressed direct send on a
	// direct-send plan and the plan executor on any other.
	compPlan *plan.Plan

	steps  []core.Step
	next   func() // advances the step sequence
	prevRT int

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
		p, err := plan.For(sys.Cfg.CompAlg, r.n, sys.Height(), sys.Cfg.RadixK)
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
	r.touchedRTs = map[int]bool{}
	if len(fr.Draws) > 0 {
		r.prevRT = fr.Draws[0].State.RenderTarget
	}
	sys.OnGPUFail(func(g int) {
		r.failedPending = append(r.failedPending, g)
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
	rts := make([]int, 0, len(r.touchedRTs))
	for rt := range r.touchedRTs {
		rts = append(rts, rt)
	}
	sort.Ints(rts)

	bar := r.ex.TracedBarrier("degraded re-render", func() {
		for a := range adopted {
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
			// Every GPU first needs the true composed framebuffer (colour
			// for the final blend, depth for occlusion of transparent
			// fragments): a consistency sync on the current target (see
			// DESIGN.md §4.3b).
			r.ex.Sync(rt, func() { r.transparentGroup(step.Group, rt) })
		default:
			r.opaqueGroup(step.Group, rt)
		}
	}
	body := func() {
		if rt != r.prevRT {
			old := r.prevRT
			r.prevRT = rt
			r.ex.Sync(old, execute)
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

// sendMerge is CHOPIN's one composition transfer: it moves px pixels of
// sub-image payload (bytesPerPx each) from src to dst and merges them on
// dst's ROPs, where apply performs the merge and merged fires once the ROPs
// have drained it. When src == dst the merge is local and no fabric traffic
// flows. Otherwise, on delivery dst's merge is queued first and delivered,
// when non-nil, runs after it — the point where a composition scheduler
// frees the session's ports.
func (r *chopinRun) sendMerge(src, dst, px int, bytesPerPx int64, apply, delivered, merged func()) {
	if src == dst {
		r.sys.GPUs[dst].SubmitMerge(px, apply, merged)
		return
	}
	r.sys.Fabric.Send(src, dst, int64(px)*bytesPerPx, interconnect.ClassComposition, func() {
		r.sys.GPUs[dst].SubmitMerge(px, apply, merged)
		if delivered != nil {
			delivered()
		}
	})
}

// groupDraws is the draw phase CHOPIN's distributed opaque and transparent
// groups share. Each GPU's barrier counts its draws in flight; its release
// marks the GPU ready, so its sub-image may be composed.
type groupDraws struct {
	r        *chopinRun
	start    sim.Cycle
	allReady sim.Cycle       // when the last GPU turned ready
	bars     []*exec.Barrier // bars[g] is sealed by the caller after GPU g's last draw
}

// startGroup begins a distributed group at the current cycle with every
// GPU's ingress closed. When GPU g's draws have drained, its release opens
// g's ingress, stamps allReady if g was the last GPU, and runs ready(g).
func (r *chopinRun) startGroup(ready func(g int)) *groupDraws {
	gd := &groupDraws{r: r, start: r.sys.Eng.Now(), bars: make([]*exec.Barrier, r.n)}
	readyCount := 0
	for g := range gd.bars {
		r.sys.Fabric.SetAccept(g, false)
		gd.bars[g] = exec.NewBarrier(func() {
			readyCount++
			r.sys.Fabric.SetAccept(g, true)
			if readyCount == r.n {
				gd.allReady = r.sys.Eng.Now()
			}
			ready(g)
		})
	}
	return gd
}

// submit issues draw d to GPU g as part of the group.
func (gd *groupDraws) submit(g int, d primitive.DrawCommand, recordTiming bool) {
	bar := gd.bars[g]
	bar.Add(1)
	gd.r.sys.GPUs[g].SubmitDraw(d, gd.r.fr.View, gd.r.fr.Proj, gpu.DrawOpts{
		RecordTiming: recordTiming,
		OnDone:       func(*raster.DrawResult) { bar.Done() },
	})
}

// end attributes the group's wall clock, the normal pipeline until every
// GPU was ready and composition after, and advances the step walk.
func (gd *groupDraws) end() {
	gd.r.ex.AttributePhases(gd.start, []exec.Mark{
		{Tag: stats.PhaseNormal, At: gd.allReady},
	}, stats.PhaseComposition)
	gd.r.next()
}

// opaqueGroup distributes draws across GPUs and composes the sub-images
// out-of-order (Fig. 7 steps Ï–Ð).
func (r *chopinRun) opaqueGroup(grp primitive.Group, rt int) {
	eng := r.sys.Eng

	// The merge comparison: strict less-than for depth-writing groups;
	// less-or-equal when the group tests but does not write depth, so that
	// its colour writes survive ties against the owner's identical depth.
	mergeCmp := colorspace.CmpLess
	if !r.fr.Draws[grp.Start].State.DepthWrite {
		mergeCmp = colorspace.CmpLessEqual
	}

	for _, gp := range r.sys.GPUs {
		_ = gp.SetOwnership(nil) // distributed draws render the full screen
		gp.Target(rt).ClearDirty()
	}

	// A multi-round plan runs on the plan executor (pex), which ends the
	// group through its scatter barrier. Direct send runs here, arbitrated
	// by the composition scheduler (ps) under Config.UseCompScheduler and
	// naive otherwise, and ends the group once every session has merged.
	var gd *groupDraws
	var pex *planExec
	var ps *core.PlanScheduler
	var naiveSessions [][]plan.Session
	var err error
	switch {
	case r.compPlan.Alg != plan.AlgDirectSend:
		pex, err = newPlanExec(r, rt, mergeCmp, func() {
			r.ex.SetPlanState(nil)
			gd.end()
		})
	case r.sys.Cfg.UseCompScheduler:
		ps, err = core.NewPlanScheduler(r.compPlan)
	default:
		naiveSessions = staggered(r.compPlan)
	}
	if err != nil {
		r.ex.Fail(err)
		return
	}

	// A direct-send session carries the sender's tiles dirtied by this group
	// that the receiver owns. Under the composition scheduler a session
	// occupies the ports only for the pixel transfer: its delivery completes
	// it and starts the sessions it unblocks while the receiver's ROPs drain
	// the merge.
	var sessions *exec.Barrier
	if pex != nil {
		r.ex.SetPlanState(pex.planState)
	} else {
		sessions = exec.NewBarrier(func() { gd.end() })
		sessions.Add(r.compPlan.Sessions())
		sessions.Seal()
	}
	var pump func()
	complete := func(s plan.Session) {
		if err := ps.Complete(s); err != nil {
			r.ex.Fail(err)
			return
		}
		pump()
	}
	send := func(s plan.Session) {
		tiles, px := r.sys.OwnedDirtyTiles(r.sys.GPUs[s.Sender].Target(rt), s.Receiver, 0, r.sys.Height())
		if px == 0 {
			eng.After(0, func() {
				if ps != nil {
					complete(s)
				}
				sessions.Done()
			})
			return
		}
		var delivered func()
		if ps != nil {
			delivered = func() { complete(s) }
		}
		r.sendMerge(s.Sender, s.Receiver, px, framebuffer.OpaqueCompositionBytesPerPixel, func() {
			dst := r.sys.GPUs[s.Receiver].Target(rt)
			src := r.sys.GPUs[s.Sender].Target(rt)
			if ck := r.sys.Check; ck != nil {
				// Verified runs assert depth-test monotonicity per pixel.
				ck.DepthMerge(dst, src, mergeCmp, tiles)
				return
			}
			composite.DepthMerge(dst, src, mergeCmp, tiles)
		}, delivered, sessions.Done)
	}
	pump = func() {
		for _, s := range ps.NextSessions() {
			send(s)
		}
	}

	gd = r.startGroup(func(g int) {
		switch {
		case pex != nil:
			pex.setReady(g)
		case ps != nil:
			ps.SetReady(g)
			pump()
		default:
			for _, s := range naiveSessions[g] {
				send(s)
			}
		}
	})

	last := grp.End - 1
	r.ex.IssueDraws(grp.Start, grp.End, func(i int) {
		d := r.fr.Draws[i]
		g := r.sched.Assign(d.TriangleCount(), eng.Now())
		if !r.sys.Alive(g) {
			// The driver stops dispatching to a dead GPU as soon as its
			// failure is detected.
			g = r.nextAlive(g)
		}
		gd.submit(g, d, r.sys.Cfg.RecordPerDraw && g == 0)
		if i == last {
			for _, bar := range gd.bars {
				bar.Seal()
			}
		}
	})
}

// transparentGroup distributes contiguous draw ranges, renders them into
// per-GPU sub-image layers, merges adjacent layers asynchronously, and
// blends the final layer over the background at each tile owner
// (Fig. 7 steps Ì–Î). It runs right after a sync of rt.
func (r *chopinRun) transparentGroup(grp primitive.Group, rt int) {
	op := grp.BlendOp
	eng := r.sys.Eng

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
	var pump func()
	gd := r.startGroup(func(g int) {
		tc.SetReady(g)
		pump()
	})
	groupEnd := func() {
		for g, gp := range r.sys.GPUs {
			_ = gp.SetTarget(rt, saved[g])
		}
		gd.end()
	}

	// backgroundMerge distributes the final layer to tile owners, who blend
	// it over their authoritative framebuffer region.
	backgroundMerge := func(holder int) {
		layer := layers[holder]
		bar := r.ex.TracedBarrier("background merge", groupEnd)
		for owner := 0; owner < r.n; owner++ {
			tiles, px := r.sys.OwnedDirtyTiles(layer, owner, 0, r.sys.Height())
			if px == 0 {
				continue
			}
			bar.Add(1)
			r.sendMerge(holder, owner, px, framebuffer.TransparentCompositionBytesPerPixel, func() {
				// The GPU's target slot still points at the layer; blend
				// into the real framebuffer it will be restored to.
				composite.BlendMerge(saved[owner], layer, op, tiles)
			}, nil, bar.Done)
		}
		bar.SealDeferred(eng)
	}

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
			r.sendMerge(m.From, m.To, px, framebuffer.TransparentCompositionBytesPerPixel, apply, nil, finish)
		}
	}

	for g, c := range chunks {
		if c[0] == c[1] {
			// An empty chunk is ready at once, from a fresh event.
			gd.bars[g].SealDeferred(eng)
			continue
		}
		last := c[1] - 1
		r.ex.IssueDraws(c[0], c[1], func(i int) {
			gd.submit(g, r.fr.Draws[i], false)
			if i == last {
				gd.bars[g].Seal()
			}
		})
	}
}
