package mgl

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"mclegal/internal/faults"
	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Stats reports work done by a Run. Every field except Workers is a
// deterministic work counter: it depends on the design and options,
// never on the worker count or the machine.
type Stats struct {
	Placed int
	// WindowRetries counts window growths of any cause; it is
	// QualityRetries + InfeasibleRetries.
	WindowRetries int
	// QualityRetries counts growths after a feasible plan was found,
	// chasing a cheaper position that may lie beyond the window
	// (Options.QualityGrowths).
	QualityRetries int
	// InfeasibleRetries counts evaluations whose window held no
	// feasible insertion point, including a final full-core failure.
	InfeasibleRetries int
	Batches           int
	// InsertionsEvaluated counts insertion points whose push chains
	// were built, i.e. those past the free-width quick rejection.
	InsertionsEvaluated int
	// ChainCells counts the cells of every push chain built (left and
	// right), the chain-walk work behind InsertionsEvaluated.
	ChainCells int
	// Workers is the evaluation concurrency the run actually used
	// (after defaulting). It never affects the placement — see
	// Options.Workers — and is reported for observability only.
	Workers int
}

// Legalizer runs multi-row global legalization over one design.
type Legalizer struct {
	d    *model.Design
	grid *seg.Grid
	// hot is the struct-of-arrays view of d's cells the evaluation hot
	// paths read; commit writes every move through it so the view and
	// the design never diverge within a run.
	hot   *model.HotCells
	occ   *occupancy
	opt   Options
	maxSp int
	rs    runState

	// Stats is populated by Run; it remains valid (partially filled)
	// after a failed or cancelled run.
	Stats Stats
}

// New builds a legalizer for d over the prebuilt segmentation grid.
//
//mclegal:writes hotcells construction materializes the hot view of the design's cells
func New(d *model.Design, grid *seg.Grid, opt Options) *Legalizer {
	hot := model.NewHotCells(d)
	return &Legalizer{
		d:     d,
		grid:  grid,
		hot:   hot,
		occ:   newOccupancy(d, hot, grid),
		opt:   opt.withDefaults(),
		maxSp: d.Tech.MaxEdgeSpacing(),
	}
}

// Order returns the cell legalization order under the configured policy.
func (l *Legalizer) Order() []model.CellID {
	ids := make([]model.CellID, 0, l.d.MovableCount())
	for i := range l.d.Cells {
		if !l.d.Cells[i].Fixed {
			ids = append(ids, model.CellID(i))
		}
	}
	ts := l.d.Types
	cs := l.d.Cells
	sort.SliceStable(ids, func(a, b int) bool {
		ca, cb := &cs[ids[a]], &cs[ids[b]]
		ta, tb := &ts[ca.Type], &ts[cb.Type]
		switch l.opt.Order {
		case GPLeftToRight:
			if ca.GX != cb.GX {
				return ca.GX < cb.GX
			}
		case WidestAreaFirst:
			aa, ab := ta.Width*ta.Height, tb.Width*tb.Height
			if aa != ab {
				return aa > ab
			}
		default: // TallestFirst
			if ta.Height != tb.Height {
				return ta.Height > tb.Height
			}
		}
		if ca.GX != cb.GX {
			return ca.GX < cb.GX
		}
		return ids[a] < ids[b]
	})
	return ids
}

// windowFor returns the (attempt-times grown) search window of cell t,
// clamped to the core.
func (l *Legalizer) windowFor(t model.CellID, attempt int) geom.Rect {
	c := &l.d.Cells[t]
	ct := &l.d.Types[c.Type]
	hw := l.opt.WindowW
	if hw <= 0 {
		hw = 2*ct.Width + 8
	}
	hh := l.opt.WindowH
	if hh <= 0 {
		hh = ct.Height + 2
	}
	for i := 0; i < attempt; i++ {
		hw *= l.opt.GrowFactor
		hh *= l.opt.GrowFactor
	}
	core := l.d.Tech.CoreRect()
	win := geom.Rect{
		XLo: c.GX - hw, XHi: c.GX + ct.Width + hw,
		YLo: c.GY - hh, YHi: c.GY + ct.Height + hh,
	}
	return win.Intersect(core)
}

// betterPlan reports whether p beats best: by cost, then by |Δrow| to
// the GP row, then by lower y, then lower x. An unset best always
// loses. The tiebreak chain makes the choice worker-independent.
func betterPlan(p, best plan, gy int) bool {
	if !best.ok {
		return true
	}
	if p.cost != best.cost {
		return p.cost < best.cost
	}
	da, db := geom.Abs(p.y-gy), geom.Abs(best.y-gy)
	if da != db {
		return da < db
	}
	if p.y != best.y {
		return p.y < best.y
	}
	return p.x < best.x
}

// bestInWindow evaluates every insertion point of t in win and returns
// the cheapest feasible plan. The winning plan's moves are copied into
// *dst (reusing its capacity), so the returned plan stays valid after
// the evaluation's scratch buffers are recycled. The evaluation's work
// counters are stored into *wc.
//
//mclegal:hotpath per-cell inner loop of MGL; TestBestInWindowZeroAlloc pins it to 0 allocs/op after warm-up
func (l *Legalizer) bestInWindow(t model.CellID, win geom.Rect, dst *[]move, wc *evalWork) (plan, bool) {
	d := l.d
	hc := l.hot
	h := int(hc.H[t])

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.work = evalWork{}

	var best plan

	// Scan candidate rows outward from the GP row — distance ascending,
	// lower row first on ties — so that row pruning (PruneSlackRows) can
	// stop early: once the y-cost alone exceeds the best cost plus the
	// slack, no farther row can win. The order is generated directly
	// (no row buffer, no sort): for each distance dist, try GY-dist
	// then GY+dist.
	yLo := win.YLo
	if yLo < 0 {
		yLo = 0
	}
	yHi := win.YHi
	if yHi > d.Tech.NumRows {
		yHi = d.Tech.NumRows
	}
	yHi -= h // highest valid bottom row
	gy := int(hc.GY[t])
	dMax := -1
	if yHi >= yLo {
		dMax = geom.Abs(gy - yLo)
		if v := geom.Abs(yHi - gy); v > dMax {
			dMax = v
		}
	}
	rowH := int64(d.Tech.RowH)
rowLoop:
	for dist := 0; dist <= dMax; dist++ {
		for side := 0; side < 2; side++ {
			y := gy - dist
			if side == 1 {
				if dist == 0 {
					continue
				}
				y = gy + dist
			}
			if y < yLo || y > yHi {
				continue
			}
			if l.opt.PruneSlackRows >= 0 && best.ok {
				yCost := int64(dist) * rowH
				if yCost > best.cost+int64(l.opt.PruneSlackRows)*rowH {
					break rowLoop
				}
			}
			if !d.Tech.RowAllowed(h, y) {
				continue
			}
			if l.opt.Rules != nil && l.opt.Rules.RowForbidden(hc.Type[t], y) {
				continue
			}
			for _, x0 := range l.insertionReps(sc, hc.Fence[t], y, h, win) {
				p, ok := l.evaluateInsertion(sc, t, y, h, x0, win)
				if ok && betterPlan(p, best, gy) {
					// p.moves aliases sc.moves, which the next
					// evaluation overwrites: keep a stable copy.
					sc.bestMoves = append(sc.bestMoves[:0], p.moves...)
					best = p
					best.moves = sc.bestMoves
				}
			}
		}
	}
	if best.ok {
		*dst = append((*dst)[:0], best.moves...)
		best.moves = *dst
	}
	*wc = sc.work
	return best, best.ok
}

// insertionReps returns the representative x positions that enumerate
// all distinct insertion points for rows [y,y+h) within win: one per
// elementary interval between segment starts and placed-cell left
// edges. The returned slice is owned by sc and valid until the next
// call.
func (l *Legalizer) insertionReps(sc *scratch, f model.FenceID, y, h int, win geom.Rect) []int {
	reps := sc.reps[:0]
	lo, hi := win.XLo, win.XHi
	if lo < hi {
		reps = append(reps, lo)
	}
	hc := l.hot
	grid := l.grid
	for r := y; r < y+h; r++ {
		for _, sid := range grid.Row(r) {
			sLo, sHi := grid.Lo(sid), grid.Hi(sid)
			if grid.FenceOf(sid) != f || sLo >= hi || sHi <= lo {
				continue
			}
			if sLo >= lo && sLo < hi {
				reps = append(reps, sLo)
			}
			// Only cells whose left edge lies inside [lo, hi) can
			// contribute; the occupancy list is x-sorted, so binary
			// search to the first candidate and stop at the window end.
			lst := l.occ.cellsIn(sid)
			start := sort.Search(len(lst), func(k int) bool { return int(hc.X[lst[k]]) >= lo })
			for _, id := range lst[start:] {
				x := int(hc.X[id])
				if x >= hi {
					break
				}
				reps = append(reps, x)
			}
		}
	}
	slices.Sort(reps)
	out := reps[:0]
	for i, x := range reps {
		if i == 0 || x != reps[i-1] {
			out = append(out, x)
		}
	}
	sc.reps = reps
	return out
}

// commit applies a plan: chain cells shift, the target is placed and
// registered. Shifts preserve the x-order of every occupancy list.
func (l *Legalizer) commit(p plan) error {
	for _, mv := range p.moves {
		l.hot.SetX(l.d, mv.id, mv.newX)
	}
	l.hot.SetXY(l.d, p.target, p.x, p.y)
	c := &l.d.Cells[p.target]
	if l.opt.Faults.ShouldFire(faults.MGLInsertOutside) {
		return &InsertError{Cell: p.target, Name: c.Name, X: c.X, Y: c.Y, Row: c.Y}
	}
	if err := l.occ.insert(p.target); err != nil {
		return err
	}
	l.Stats.Placed++
	return nil
}

// coverageBound returns the minimum possible target-displacement cost
// of any position *outside* win: if the best in-window plan costs more,
// a cheaper position may exist beyond the window.
func (l *Legalizer) coverageBound(t model.CellID, win geom.Rect) int64 {
	c := &l.d.Cells[t]
	ct := &l.d.Types[c.Type]
	core := l.d.Tech.CoreRect()
	siteW := int64(l.d.Tech.SiteW)
	rowH := int64(l.d.Tech.RowH)
	bound := int64(1) << 62
	if win.XLo > core.XLo {
		bound = min64(bound, int64(c.GX-win.XLo)*siteW)
	}
	if win.XHi < core.XHi {
		bound = min64(bound, int64(win.XHi-ct.Width-c.GX)*siteW)
	}
	if win.YLo > core.YLo {
		bound = min64(bound, int64(c.GY-win.YLo)*rowH)
	}
	if win.YHi < core.YHi {
		bound = min64(bound, int64(win.YHi-ct.Height-c.GY)*rowH)
	}
	return bound
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// runState holds the scheduler's per-run buffers: per-cell retry
// counters, epoch-stamped batch membership (replacing per-batch maps),
// the per-slot evaluation results, and the sorted-interval sweep over
// the chosen windows. Everything is allocated once per design size and
// reused across batches and runs.
type runState struct {
	// Per-cell state, indexed by CellID. attempt and quality persist
	// across batches within one run; selEpoch/failEpoch mark batch
	// membership by carrying the batch's epoch value, so "clearing"
	// them between batches is a single counter increment.
	attempt   []int32
	quality   []int32
	selEpoch  []uint32
	failEpoch []uint32
	epoch     uint32

	// Per-batch slots, capacity BatchCap.
	batch     []model.CellID
	wins      []geom.Rect
	plans     []plan
	oks       []bool
	panics    []*WorkerPanicError
	moves     [][]move // stable backing storage for plans[i].moves
	work      []evalWork
	committed []model.CellID

	// Window-overlap sweep: indices into wins sorted by XLo, with a
	// parallel prefix-maximum of XHi (see overlapsChosen).
	byXLo []int32
	maxHi []int
}

func (rs *runState) ensure(nCells, batchCap int) {
	if len(rs.attempt) < nCells {
		rs.attempt = make([]int32, nCells)
		rs.quality = make([]int32, nCells)
		rs.selEpoch = make([]uint32, nCells)
		rs.failEpoch = make([]uint32, nCells)
	} else {
		// Repeat runs restart the retry counters; the epoch stamps
		// stay valid because the epoch counter keeps increasing.
		clear(rs.attempt[:nCells])
		clear(rs.quality[:nCells])
	}
	if cap(rs.plans) < batchCap {
		rs.batch = make([]model.CellID, 0, batchCap)
		rs.wins = make([]geom.Rect, 0, batchCap)
		rs.plans = make([]plan, batchCap)
		rs.oks = make([]bool, batchCap)
		rs.panics = make([]*WorkerPanicError, batchCap)
		rs.moves = make([][]move, batchCap)
		rs.work = make([]evalWork, batchCap)
		rs.byXLo = make([]int32, 0, batchCap)
		rs.maxHi = make([]int, 0, batchCap)
	}
}

// overlapsChosen reports whether w overlaps any window already chosen
// for the current batch. Instead of the former O(batch) pairwise scan
// per candidate, the chosen windows are kept sorted by XLo with a
// running prefix-max of XHi: windows starting at or right of w.XHi are
// skipped by binary search, and the backward scan stops as soon as the
// prefix maximum right edge falls at or left of w.XLo. The residual
// rectangle test is exact, so batch composition — and therefore the
// final placement — is identical to the pairwise version.
func (rs *runState) overlapsChosen(w geom.Rect) bool {
	k := sort.Search(len(rs.byXLo), func(i int) bool {
		return rs.wins[rs.byXLo[i]].XLo >= w.XHi
	})
	for j := k - 1; j >= 0; j-- {
		if rs.maxHi[j] <= w.XLo {
			return false
		}
		if rs.wins[rs.byXLo[j]].Overlaps(w) {
			return true
		}
	}
	return false
}

// addChosen inserts wins[idx] into the sweep structures, keeping byXLo
// sorted and maxHi its prefix maximum of XHi.
func (rs *runState) addChosen(idx int) {
	w := rs.wins[idx]
	k := sort.Search(len(rs.byXLo), func(i int) bool {
		return rs.wins[rs.byXLo[i]].XLo > w.XLo
	})
	rs.byXLo = append(rs.byXLo, 0)
	copy(rs.byXLo[k+1:], rs.byXLo[k:])
	rs.byXLo[k] = int32(idx)
	rs.maxHi = append(rs.maxHi, 0)
	for j := k; j < len(rs.byXLo); j++ {
		hi := rs.wins[rs.byXLo[j]].XHi
		if j > 0 && rs.maxHi[j-1] > hi {
			hi = rs.maxHi[j-1]
		}
		rs.maxHi[j] = hi
	}
}

// evalOne evaluates batch slot i against the current snapshot. A panic
// inside the evaluation is recovered into a typed *WorkerPanicError
// carrying the cell and stack — the first panic wins deterministically
// (lowest batch index) — so a degenerate window can never crash the
// process.
func (l *Legalizer) evalOne(i int) {
	rs := &l.rs
	defer func() {
		if r := recover(); r != nil {
			rs.panics[i] = &WorkerPanicError{
				Cell: rs.batch[i], Value: r, Stack: debug.Stack(),
			}
		}
	}()
	if l.opt.Faults.ShouldFire(faults.MGLWorkerPanic) {
		panic("injected worker panic")
	}
	rs.plans[i], rs.oks[i] = l.bestInWindow(rs.batch[i], rs.wins[i], &rs.moves[i], &rs.work[i])
}

// evalPool is the persistent evaluation worker pool of one RunContext:
// opt.Workers goroutines started once, fed batch slot indices over a
// channel, and torn down by stop() on every return path. This replaces
// the former per-batch goroutine+semaphore spawn, whose setup cost was
// paid thousands of times per run.
type evalPool struct {
	work    chan int
	workers sync.WaitGroup // worker goroutine lifetimes
	pending sync.WaitGroup // outstanding evaluations of the current batch
}

// startPool launches the workers. Workers observing a cancelled ctx
// drain their indices without evaluating (oks stays false); RunContext
// checks ctx before interpreting any result.
func (l *Legalizer) startPool(ctx context.Context) *evalPool {
	// The buffer covers a full batch, so dispatch never blocks.
	p := &evalPool{work: make(chan int, l.opt.BatchCap)}
	p.workers.Add(l.opt.Workers)
	for w := 0; w < l.opt.Workers; w++ {
		go func() {
			defer p.workers.Done()
			for i := range p.work {
				if ctx.Err() == nil {
					l.evalOne(i)
				}
				p.pending.Done()
			}
		}()
	}
	return p
}

// run evaluates slots [0,n) of the current batch and blocks until all
// are done. The WaitGroup handoff orders the workers' writes to the
// runState slots before RunContext reads them.
func (p *evalPool) run(n int) {
	p.pending.Add(n)
	for i := 0; i < n; i++ {
		p.work <- i
	}
	p.pending.Wait()
}

// stop tears the pool down and waits for every worker to exit, so a
// returned RunContext never leaks goroutines (see
// TestPoolShutdownNoGoroutineLeak).
func (p *evalPool) stop() {
	close(p.work)
	p.workers.Wait()
}

// Run legalizes every movable cell (see RunContext).
//
//mclegal:writes design.xy,hotcells,occupancy,routememo MGL commits legal positions through both the design and its hot view, maintains the occupancy index, and warms the route-rule memo
func (l *Legalizer) Run() error { return l.RunContext(context.Background()) }

// RunContext legalizes every movable cell using the deterministic
// window scheduler of paper Section 3.5: each iteration selects up to
// BatchCap cells (in queue order) whose windows are pairwise disjoint,
// evaluates them (on the persistent worker pool for Workers > 1)
// against the iteration's snapshot, then commits the results in queue
// order. Batch composition and commit order never depend on Workers,
// so the final placement is byte-identical for every worker count.
//
// Cancelling ctx aborts between batches — never mid-commit — with
// ctx.Err(): cells already committed keep their legal positions and
// the remainder stay at their GP positions, so the design remains
// consistent and auditable (though not legal).
//
//mclegal:writes design.xy,hotcells,occupancy,routememo MGL commits legal positions through both the design and its hot view, maintains the occupancy index, and warms the route-rule memo
func (l *Legalizer) RunContext(ctx context.Context) error {
	queue := l.Order()
	rs := &l.rs
	rs.ensure(len(l.d.Cells), l.opt.BatchCap)
	l.Stats.Workers = l.opt.Workers
	var pool *evalPool
	if l.opt.Workers > 1 {
		pool = l.startPool(ctx)
		defer pool.stop()
	}
	core := l.d.Tech.CoreRect()
	for len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Select the batch L_p: queue-ordered, pairwise-disjoint windows.
		rs.epoch++
		rs.batch = rs.batch[:0]
		rs.wins = rs.wins[:0]
		rs.byXLo = rs.byXLo[:0]
		rs.maxHi = rs.maxHi[:0]
		for _, t := range queue {
			if len(rs.batch) >= l.opt.BatchCap {
				break
			}
			w := l.windowFor(t, int(rs.attempt[t]))
			if rs.overlapsChosen(w) {
				continue
			}
			rs.batch = append(rs.batch, t)
			rs.wins = append(rs.wins, w)
			rs.addChosen(len(rs.batch) - 1)
			rs.selEpoch[t] = rs.epoch
		}
		l.Stats.Batches++

		// Evaluation against the current snapshot: inline for a single
		// worker, on the pool otherwise. Cancelled evaluations leave
		// oks[i] false, but those entries are never interpreted — the
		// ctx check below returns before any commit.
		n := len(rs.batch)
		for i := 0; i < n; i++ {
			rs.oks[i] = false
			rs.panics[i] = nil
		}
		if pool != nil {
			pool.run(n)
		} else {
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					break
				}
				l.evalOne(i)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, pe := range rs.panics[:n] {
			if pe != nil {
				return pe
			}
		}

		// Sequential deterministic commit; failures grow their window
		// and return to the queue. Every slot's work counts, whatever
		// becomes of its plan.
		rs.committed = rs.committed[:0]
		for i, t := range rs.batch {
			l.Stats.InsertionsEvaluated += rs.work[i].evaluated
			l.Stats.ChainCells += rs.work[i].chainCells
			if rs.oks[i] {
				// Quality-driven growth (see legalizeOne): if a
				// cheaper position may lie outside this window and the
				// budget allows, retry with a bigger window instead of
				// committing. The next batch re-evaluates fresh, which
				// keeps batch windows disjoint.
				if rs.wins[i] != core && l.opt.QualityGrowths >= 0 &&
					int(rs.quality[t]) < l.opt.QualityGrowths &&
					rs.plans[i].cost > l.coverageBound(t, rs.wins[i]) {
					rs.quality[t]++
					rs.attempt[t]++
					rs.failEpoch[t] = rs.epoch
					l.Stats.WindowRetries++
					l.Stats.QualityRetries++
					continue
				}
				if err := l.commit(rs.plans[i]); err != nil {
					return err
				}
				rs.committed = append(rs.committed, t)
				continue
			}
			l.Stats.WindowRetries++
			l.Stats.InfeasibleRetries++
			if rs.wins[i] == core {
				return &InfeasibleError{Cell: t, Name: l.d.Cells[t].Name, Fence: l.d.Cells[t].Fence}
			}
			rs.attempt[t]++
			rs.failEpoch[t] = rs.epoch
		}
		next := queue[:0]
		for _, t := range queue {
			if rs.selEpoch[t] != rs.epoch || rs.failEpoch[t] == rs.epoch {
				next = append(next, t)
			}
		}
		queue = next
		//mclegal:writeset the debug hook is wired only by tests and receives the committed count by value
		if l.opt.DebugAfterBatch != nil && !l.opt.DebugAfterBatch(rs.committed) {
			return fmt.Errorf("mgl: aborted by debug hook")
		}
	}
	return nil
}

// Legalize builds the segmentation of d and runs MGL with opt.
//
//mclegal:writes design.xy,hotcells,occupancy,routememo MGL commits legal positions through both the design and its hot view, maintains the occupancy index, and warms the route-rule memo
func Legalize(d *model.Design, opt Options) (*Legalizer, error) {
	return LegalizeContext(context.Background(), d, opt)
}

// LegalizeContext builds the segmentation of d and runs MGL with opt
// under ctx.
//
//mclegal:writes design.xy,hotcells,occupancy,routememo MGL commits legal positions through both the design and its hot view, maintains the occupancy index, and warms the route-rule memo
func LegalizeContext(ctx context.Context, d *model.Design, opt Options) (*Legalizer, error) {
	grid, err := seg.Build(d)
	if err != nil {
		return nil, err
	}
	l := New(d, grid, opt)
	if err := l.RunContext(ctx); err != nil {
		return l, err
	}
	return l, nil
}
