package mgl

import (
	"context"
	"runtime/debug"
	"sync"

	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// Pool evaluation of a batch. The §3.5 scheduler runs only disjoint
// windows concurrently, and on dense designs the windows that keep
// growing leave most batches with a single cell. So the pool's shares
// take whole windows only while some window is unstarted, and then
// split the rows of the windows still open: every share claims rows in
// scan order, evaluates them with evalRow, and folds finished rows into
// the window's ordered merge. The merge is the serial scan's
// (rowMerge), so each window's plan and work counters are identical to
// bestInWindow's for every worker count.

// windowSplit is the row-parallel evaluation state of one batch slot.
// Every field is guarded by mu; the coordinator fills it before the
// pool runs (reset) and reads it after the pool is done (result).
type windowSplit struct {
	mu sync.Mutex
	// scan hands out the window's rows in scan order until the window
	// is closed: scan exhausted, cut by the merged best, or failed.
	scan   rowScan
	closed bool
	// res holds one result per claimed row, in claim (= scan) order.
	// Rows [0, merged) are folded into m; the merge waits at the first
	// unfinished row and stops for good at the first row m prunes (the
	// serial scan's cut).
	res     []rowResult
	claimed int
	merged  int
	m       rowMerge
	// best is the stable storage for m.best.moves, read by the
	// scheduler until the next batch.
	best []move
	// panic is the first panic recovered from one of the rows.
	panic *WorkerPanicError
}

// rowResult is one claimed row of a split window.
type rowResult struct {
	y     int
	p     plan
	moves []move // stable storage for p.moves while the row waits for the merge
	work  evalWork
	done  bool
}

// reset prepares ws for evaluating t in win.
func (ws *windowSplit) reset(l *Legalizer, t model.CellID, win geom.Rect) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.scan = l.newRowScan(t, win)
	ws.closed = false
	ws.claimed, ws.merged = 0, 0
	ws.m = rowMerge{gy: int(l.hot.GY[t])}
	ws.panic = nil
}

// claim hands out the next row of ws, or reports that none is left. A
// row closes the window — it and every later row are skipped — only
// when the best of the rows merged so far, all of which come before
// it, already prunes it: the serial scan then stops at or before that
// row too.
func (ws *windowSplit) claim(l *Legalizer) (k, y int, ok bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.closed {
		return 0, 0, false
	}
	y, ok = ws.scan.next(&l.d.Tech)
	if !ok || l.rowPruned(&ws.m, y) {
		ws.closed = true
		return 0, 0, false
	}
	k = ws.claimed
	ws.claimed++
	if k == len(ws.res) {
		ws.res = append(ws.res, rowResult{})
	}
	ws.res[k].y, ws.res[k].done = y, false
	return k, y, true
}

// finish records row k's result and advances the ordered merge over
// every finished row the cut has not reached. p.moves may live in the
// caller's scratch: a row merged at once is copied only when it becomes
// the best, and a row finished ahead of the merge keeps a copy of its
// moves until it is merged. Rows finished past the cut stay out of both
// the plan and the work counters.
func (ws *windowSplit) finish(l *Legalizer, k int, p plan, w evalWork) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	r := &ws.res[k]
	r.p, r.work, r.done = p, w, true
	if k != ws.merged {
		// The merge waits at an unfinished row or at the cut.
		r.moves = append(r.moves[:0], p.moves...)
		r.p.moves = r.moves
		return
	}
	for ws.merged < ws.claimed && ws.res[ws.merged].done &&
		!l.rowPruned(&ws.m, ws.res[ws.merged].y) {
		r := &ws.res[ws.merged]
		if ws.m.add(r.p, r.work) {
			ws.best = append(ws.best[:0], r.p.moves...)
			ws.m.best.moves = ws.best
		}
		ws.merged++
	}
}

// fail records a panic recovered from one of ws's rows and stops
// handing out its rows.
func (ws *windowSplit) fail(pe *WorkerPanicError) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.panic == nil {
		ws.panic = pe
	}
	ws.closed = true
}

// result returns the merged plan and work of ws and the first panic
// recovered from its rows.
func (ws *windowSplit) result() (rowMerge, *WorkerPanicError) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.m, ws.panic
}

// collectSplit stores the merged result of split slot i the way evalOne
// stores bestInWindow's. The plan's moves stay in the split state's
// best buffer, which only the next batch's reset reuses.
func (rs *runState) collectSplit(i int) {
	m, pe := rs.split[i].result()
	rs.plans[i], rs.oks[i], rs.work[i] = m.best, m.best.ok, m.work
	if rs.panics[i] == nil {
		rs.panics[i] = pe
	}
}

// splitTask is one pool share of the current batch. It starts the
// unstarted windows one at a time — taking each slot's fault-injection
// point first, so faults.MGLWorkerPanic fires once per slot as on the
// inline path — and drains each one's rows. When no window is left to
// start, it helps with the rows of the windows still open, the most
// recently started first, until none has a row left or ctx is
// cancelled.
func (l *Legalizer) splitTask(ctx context.Context) {
	rs := &l.rs
	n := len(rs.batch)
	for {
		i := int(rs.nextSlot.Add(1)) - 1
		if i >= n {
			break
		}
		l.injectSlot(i)
		for ctx.Err() == nil && l.splitRowGuarded(i) {
		}
	}
	for i := n - 1; i >= 0; i-- {
		for ctx.Err() == nil && l.splitRowGuarded(i) {
		}
	}
}

// injectSlot takes slot i's fault-injection point, recording an
// injected panic as slot i's *WorkerPanicError.
func (l *Legalizer) injectSlot(i int) {
	defer l.catchPanic(i)
	l.injectPanic()
}

// splitRowGuarded runs splitRow(i), recovering a panic into a
// *WorkerPanicError for slot i's cell.
func (l *Legalizer) splitRowGuarded(i int) (more bool) {
	defer func() {
		if r := recover(); r != nil {
			l.rs.split[i].fail(&WorkerPanicError{Cell: l.rs.batch[i], Value: r, Stack: debug.Stack()})
		}
	}()
	return l.splitRow(i)
}

// splitRow claims, evaluates and merges one row of slot i's window. It
// reports false when the window has no row left to claim.
//
//mclegal:hotpath row task of a split MGL window; TestSplitWindowZeroAlloc pins it to 0 allocs/op after warm-up
func (l *Legalizer) splitRow(i int) bool {
	ws := &l.rs.split[i]
	k, y, ok := ws.claim(l)
	if !ok {
		return false
	}
	t := l.rs.batch[i]
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	p, w := l.evalRow(sc, t, y, int(l.hot.H[t]), l.rs.wins[i])
	ws.finish(l, k, p, w)
	return true
}
