package mgl

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// RowsEvaluated counts candidate rows whose insertion points were
	// enumerated: rows the scan reaches before the PruneSlackRows cut
	// that neither the technology nor the Rules forbid. Rows a split
	// window's helpers evaluate past the cut are not counted.
	RowsEvaluated int
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

// Add accumulates o into s: every work counter is summed, and Workers
// keeps the larger of the two (the concurrency of the widest run).
func (s *Stats) Add(o Stats) {
	s.Placed += o.Placed
	s.WindowRetries += o.WindowRetries
	s.QualityRetries += o.QualityRetries
	s.InfeasibleRetries += o.InfeasibleRetries
	s.Batches += o.Batches
	s.RowsEvaluated += o.RowsEvaluated
	s.InsertionsEvaluated += o.InsertionsEvaluated
	s.ChainCells += o.ChainCells
	s.Workers = max(s.Workers, o.Workers)
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
// It is the serial form of the three-part window evaluation that the
// pool (split.go) runs row-parallel: the rowScan, evalRow per row, and
// the ordered rowMerge.
//
//mclegal:hotpath per-cell inner loop of MGL; TestBestInWindowZeroAlloc pins it to 0 allocs/op after warm-up
func (l *Legalizer) bestInWindow(t model.CellID, win geom.Rect, dst *[]move, wc *evalWork) (plan, bool) {
	h := int(l.hot.H[t])
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	m := rowMerge{gy: int(l.hot.GY[t])}
	scan := l.newRowScan(t, win)
	for y, ok := scan.next(&l.d.Tech); ok; y, ok = scan.next(&l.d.Tech) {
		if l.rowPruned(&m, y) {
			break
		}
		if p, w := l.evalRow(sc, t, y, h, win); m.add(p, w) {
			// The row's moves live in sc.rowMoves, which the next
			// row overwrites: swap the buffers instead of copying.
			sc.rowMoves, sc.bestMoves = sc.bestMoves, sc.rowMoves
		}
	}
	best := m.best
	if best.ok {
		*dst = append((*dst)[:0], best.moves...)
		best.moves = *dst
	}
	*wc = m.work
	return best, best.ok
}

// rowScan enumerates the bottom rows a cell may take in a window, in
// scan order: outward from the GP row, distance ascending, lower row
// first on ties, so that row pruning (PruneSlackRows) can stop the scan
// early. Rows whose parity the technology forbids for the cell's height
// are skipped; a pruned row cuts every later one, so skipping them
// changes no cut. Rows are generated on demand, so a scan cut early
// never enumerates the rest of the window.
type rowScan struct {
	gy, h    int
	yLo, yHi int // valid bottom rows
	dist     int // distance of the next candidate from gy
	dMax     int
	above    bool // the next candidate is gy+dist (else gy-dist)
}

// newRowScan starts the scan of t's bottom rows in win.
func (l *Legalizer) newRowScan(t model.CellID, win geom.Rect) rowScan {
	h := int(l.hot.H[t])
	gy := int(l.hot.GY[t])
	yLo := max(win.YLo, 0)
	yHi := min(win.YHi, l.d.Tech.NumRows) - h // highest valid bottom row
	dMax := -1
	if yHi >= yLo {
		dMax = max(geom.Abs(gy-yLo), geom.Abs(yHi-gy))
	}
	return rowScan{gy: gy, h: h, yLo: yLo, yHi: yHi, dMax: dMax}
}

// next returns the next row of the scan, or false when none is left.
func (s *rowScan) next(tech *model.Tech) (int, bool) {
	for s.dist <= s.dMax {
		y := s.gy - s.dist
		if s.above {
			y = s.gy + s.dist
		}
		if s.above || s.dist == 0 {
			s.dist++
			s.above = false
		} else {
			s.above = true
		}
		if y >= s.yLo && y <= s.yHi && tech.RowAllowed(s.h, y) {
			return y, true
		}
	}
	return 0, false
}

// rowMerge is the ordered merge of per-row results: rows are folded in
// scan order with betterPlan, and rowPruned cuts the scan exactly where
// a serial scan stops. Across rows no two plans tie on betterPlan's
// whole key (their y differs), so folding each row's first-wins best in
// order picks the plan a scan over every insertion point would pick.
type rowMerge struct {
	gy   int
	best plan
	work evalWork
}

// add folds the next row's best plan and work into m and reports
// whether the plan became the new best.
func (m *rowMerge) add(p plan, w evalWork) bool {
	m.work.add(w)
	if p.ok && betterPlan(p, m.best, m.gy) {
		m.best = p
		return true
	}
	return false
}

// rowPruned reports whether the best plan merged so far cuts row y:
// once the y-cost alone exceeds the best cost plus PruneSlackRows row
// heights, no row at this or a larger distance can win. The merged best
// only falls and the distance only rises along the scan order, so a row
// cut by the best of any prefix of the rows before it is also cut (or
// lies past the cut) in the serial scan.
func (l *Legalizer) rowPruned(m *rowMerge, y int) bool {
	if l.opt.PruneSlackRows < 0 || !m.best.ok {
		return false
	}
	rowH := int64(l.d.Tech.RowH)
	return int64(geom.Abs(y-m.gy))*rowH > m.best.cost+int64(l.opt.PruneSlackRows)*rowH
}

// evalRow evaluates every insertion point of t on bottom row y and
// returns the row's best plan (the first on betterPlan ties) with the
// row's work counters. The plan's moves live in sc.rowMoves until the
// next evalRow with sc. A row the Rules forbid yields no plan and no
// work.
func (l *Legalizer) evalRow(sc *scratch, t model.CellID, y, h int, win geom.Rect) (plan, evalWork) {
	hc := l.hot
	sc.work = evalWork{}
	if l.opt.Rules != nil && l.opt.Rules.RowForbidden(hc.Type[t], y) {
		return plan{}, sc.work
	}
	sc.work.rows = 1
	gy := int(hc.GY[t])
	var best plan
	for _, x0 := range l.insertionReps(sc, hc.Fence[t], y, h, win) {
		p, ok := l.evaluateInsertion(sc, t, y, h, x0, win)
		if ok && betterPlan(p, best, gy) {
			// p.moves aliases sc.moves, which the next
			// evaluation overwrites: keep a stable copy.
			sc.rowMoves = append(sc.rowMoves[:0], p.moves...)
			best = p
			best.moves = sc.rowMoves
		}
	}
	return best, sc.work
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
	moves     [][]move // stable backing storage for plans[i].moves without a pool
	work      []evalWork
	committed []model.CellID
	// split holds the pool's evaluation state of each slot, and
	// nextSlot the first slot no pool share has started (split.go).
	// Both are allocated and used only with a pool.
	split    []windowSplit
	nextSlot atomic.Int32

	// Window-overlap sweep: indices into wins sorted by XLo, with a
	// parallel prefix-maximum of XHi (see overlapsChosen).
	byXLo []int32
	maxHi []int
}

func (rs *runState) ensure(nCells, batchCap int, pooled bool) {
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
	if pooled && len(rs.split) < batchCap {
		rs.split = make([]windowSplit, batchCap)
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

// evalOne evaluates batch slot i against the current snapshot on the
// calling goroutine (the path without a pool). A panic inside the
// evaluation is recovered into a typed *WorkerPanicError carrying the
// cell and stack — the first panic wins deterministically (lowest batch
// index) — so a degenerate window can never crash the process.
func (l *Legalizer) evalOne(i int) {
	rs := &l.rs
	defer l.catchPanic(i)
	l.injectPanic()
	rs.plans[i], rs.oks[i] = l.bestInWindow(rs.batch[i], rs.wins[i], &rs.moves[i], &rs.work[i])
}

// injectPanic is the faults.MGLWorkerPanic injection point, taken once
// per evaluated batch slot.
func (l *Legalizer) injectPanic() {
	if l.opt.Faults.ShouldFire(faults.MGLWorkerPanic) {
		panic("injected worker panic")
	}
}

// catchPanic, deferred by the goroutine that evaluates slot i alone,
// records a recovered panic as slot i's *WorkerPanicError.
func (l *Legalizer) catchPanic(i int) {
	if r := recover(); r != nil {
		l.rs.panics[i] = &WorkerPanicError{Cell: l.rs.batch[i], Value: r, Stack: debug.Stack()}
	}
}

// evalPool is the persistent evaluation worker pool of one RunContext:
// one goroutine per share, started once, woken for every batch over a
// channel, and torn down by stop() on every return path. This replaces
// the former per-batch goroutine+semaphore spawn, whose setup cost was
// paid thousands of times per run.
type evalPool struct {
	// shares is min(Workers, GOMAXPROCS): shares beyond the processors
	// that can run them only add wake-ups and lock traffic.
	shares  int
	work    chan struct{}
	workers sync.WaitGroup // worker goroutine lifetimes
	pending sync.WaitGroup // outstanding shares of the current batch
}

// startPool launches the workers. Workers observing a cancelled ctx
// drain their shares without evaluating (oks stays false); RunContext
// checks ctx before interpreting any result.
func (l *Legalizer) startPool(ctx context.Context) *evalPool {
	p := &evalPool{shares: min(l.opt.Workers, runtime.GOMAXPROCS(0))}
	// The buffer holds one batch's shares, so dispatch never blocks.
	p.work = make(chan struct{}, p.shares)
	p.workers.Add(p.shares)
	for w := 0; w < p.shares; w++ {
		go func() {
			defer p.workers.Done()
			for range p.work {
				if ctx.Err() == nil {
					l.splitTask(ctx)
				}
				p.pending.Done()
			}
		}()
	}
	return p
}

// run hands out the shares of the current batch and blocks until all
// are done. The WaitGroup handoff orders the workers' writes to the
// runState slots before RunContext reads them.
func (p *evalPool) run() {
	p.pending.Add(p.shares)
	for j := 0; j < p.shares; j++ {
		p.work <- struct{}{}
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

// evalBatch evaluates the current batch against the snapshot: inline
// with bestInWindow without a pool, and on the pool otherwise, where
// the shares take whole windows while any is unstarted and then split
// the rows of the windows still open (split.go), so that no worker
// idles while a small batch's windows are scanned. Cancelled
// evaluations leave oks[i] false, but those entries are never
// interpreted — RunContext checks ctx before any commit.
func (l *Legalizer) evalBatch(ctx context.Context, pool *evalPool) {
	rs := &l.rs
	n := len(rs.batch)
	for i := 0; i < n; i++ {
		rs.oks[i] = false
		rs.panics[i] = nil
	}
	if pool == nil {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			l.evalOne(i)
		}
		return
	}
	for i := 0; i < n; i++ {
		rs.split[i].reset(l, rs.batch[i], rs.wins[i])
	}
	rs.nextSlot.Store(0)
	pool.run()
	for i := 0; i < n; i++ {
		rs.collectSplit(i)
	}
}

// Run legalizes every movable cell (see RunContext).
//
//mclegal:writes design.xy,hotcells,occupancy,routememo MGL commits legal positions through both the design and its hot view, maintains the occupancy index, and warms the route-rule memo
func (l *Legalizer) Run() error { return l.RunContext(context.Background()) }

// RunContext legalizes every movable cell using the deterministic
// window scheduler of paper Section 3.5: each iteration selects up to
// BatchCap cells (in queue order) whose windows are pairwise disjoint,
// evaluates them against the iteration's snapshot (on the persistent
// worker pool for Workers > 1, whose idle workers split the rows of the
// windows still open), then commits the results in queue order. Batch
// composition, each window's plan and work counters, and commit order
// never depend on Workers, so the final placement and Stats are
// byte-identical for every worker count.
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
	rs.ensure(len(l.d.Cells), l.opt.BatchCap, l.opt.Workers > 1)
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

		l.evalBatch(ctx, pool)
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, pe := range rs.panics[:len(rs.batch)] {
			if pe != nil {
				return pe
			}
		}

		// Sequential deterministic commit; failures grow their window
		// and return to the queue. Every slot's work counts, whatever
		// becomes of its plan.
		rs.committed = rs.committed[:0]
		for i, t := range rs.batch {
			l.Stats.RowsEvaluated += rs.work[i].rows
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
