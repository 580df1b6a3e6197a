package mgl

// Frozen reference of the MGL insertion-point evaluation as it stood
// before the occupancy index carried neighbour links: every chain step
// re-derives a cell's row neighbours by segment lookup (grid.AtID) and
// binary search over the segment's cell list, and the summed curve is
// minimized by a full sort of its breakpoints. The production path in
// insertion.go must agree with it plan for plan on every legal
// snapshot (FuzzEvaluateInsertion). Do not optimize this file.

import (
	"sort"

	"mclegal/internal/curve"
	"mclegal/internal/geom"
	"mclegal/internal/model"
)

// refMinOn is the full-sort MinOn: the candidates are lo, every
// breakpoint in (lo, hi], prefer when it lies in (lo, hi], and hi;
// the winner minimizes (value, |x-prefer|, x).
func refMinOn(c *curve.Curve, lo, hi, prefer int64) (bestX, bestV int64) {
	bestX, bestV = lo, c.Eval(lo)
	try := func(x int64) {
		v := c.Eval(x)
		if v != bestV {
			if v < bestV {
				bestX, bestV = x, v
			}
			return
		}
		dNew, dOld := abs64(x-prefer), abs64(bestX-prefer)
		if dNew < dOld || (dNew == dOld && x < bestX) {
			bestX = x
		}
	}
	for _, x := range c.Breakpoints() {
		if x > lo && x <= hi {
			try(x)
		}
	}
	if prefer > lo && prefer <= hi {
		try(prefer)
	}
	try(hi)
	return bestX, bestV
}

// refBuildLeftChain collects the movable cells pushed left when the target
// (rows [y,y+h)) is inserted with its left edge at variable x. It
// returns the chain cells (off and minPos filled in) and the x lower
// bound implied by compression; lo == chainInfeasible marks an
// infeasible insertion point. The returned slice is owned by sc.
func (l *Legalizer) refBuildLeftChain(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
	hc := l.hot
	grid := l.grid
	tct := hc.Type[t]
	tf := hc.Fence[t]
	sc.reset(len(hc.X))
	chain := sc.chain[:0]
	queue := sc.queue[:0]
	capN := l.chainCap(win)
	var xlo int64

	// Seed with per-target-row frontiers.
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return nil, chainInfeasible
		}
		idx := l.occ.splitAt(sid, x0) - 1
		if idx < 0 {
			if b := l.winPadLo(win, grid.Lo(sid)); b > xlo {
				xlo = b
			}
			continue
		}
		nb := l.occ.cellsIn(sid)[idx]
		if !l.isLocal(nb, win) {
			b := int64(hc.X[nb]+hc.W[nb]) + l.spacing(hc.Type[nb], tct)
			if b > xlo {
				xlo = b
			}
			continue
		}
		if sc.inChain[nb] != sc.stamp {
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
		sc.bumpOff(nb, int64(hc.W[nb])+l.spacing(hc.Type[nb], tct))
	}

	// BFS: explore left neighbors of chain members across all their rows.
	for qi := 0; qi < len(queue); qi++ {
		c := model.CellID(queue[qi])
		cx := hc.X[c]
		cy := int(hc.Y[c])
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				return nil, chainInfeasible
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k int) bool { return hc.X[lst[k]] >= cx })
			if i-1 < 0 {
				continue
			}
			nb := lst[i-1]
			if sc.inChain[nb] == sc.stamp {
				continue
			}
			if !l.isLocal(nb, win) || len(chain) >= capN {
				continue // becomes a barrier below, via minPos
			}
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
	}

	// Topological pass 1 (descending X): longest-path offsets.
	order := sc.order[:0]
	for i := range chain {
		order = append(order, i)
	}
	// Insertion sort by descending X: chains are short and this is hot.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hc.X[chain[order[j]].id] > hc.X[chain[order[j-1]].id]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ci := range order {
		c := chain[ci].id
		cx := hc.X[c]
		cy := int(hc.Y[c])
		off := sc.seedOff(c)
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				continue
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k int) bool { return hc.X[lst[k]] > cx })
			if i >= len(lst) {
				continue
			}
			rn := lst[i]
			ri, ok2 := sc.chainAt(rn)
			if !ok2 {
				continue
			}
			req := chain[ri].off + int64(hc.W[c]) + l.spacing(hc.Type[c], hc.Type[rn])
			if req > off {
				off = req
			}
		}
		if off == 0 {
			off = -1 // defensive: never move a requirement-free cell
		}
		chain[ci].off = off
	}

	// Topological pass 2 (ascending X): compression bounds (minPos).
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := chain[ci].id
		cx := hc.X[c]
		cy := int(hc.Y[c])
		var minPos int64 = -1 << 60
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				return nil, chainInfeasible
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k2 int) bool { return hc.X[lst[k2]] >= cx })
			if i-1 < 0 {
				if b := l.winPadLo(win, grid.Lo(sid)); b > minPos {
					minPos = b
				}
				continue
			}
			nb := lst[i-1]
			if ni, ok2 := sc.chainAt(nb); ok2 {
				b := chain[ni].bound + int64(hc.W[nb]) + l.spacing(hc.Type[nb], hc.Type[c])
				if b > minPos {
					minPos = b
				}
			} else {
				// Non-local barrier, still clamped to the (padded)
				// window edge: chain cells must never leave the
				// window, or parallel batches could collide.
				b := int64(hc.X[nb]+hc.W[nb]) + l.spacing(hc.Type[nb], hc.Type[c])
				if w := l.winPadLo(win, grid.Lo(sid)); w > b {
					b = w
				}
				if b > minPos {
					minPos = b
				}
			}
		}
		chain[ci].bound = minPos
		if chain[ci].off > 0 {
			if v := minPos + chain[ci].off; v > xlo {
				xlo = v
			}
		}
	}
	sc.chain, sc.queue, sc.order = chain, queue, order
	return chain, xlo
}

// refBuildRightChain mirrors refBuildLeftChain for cells pushed right. It
// returns the chain and the upper bound on the target x; hi ==
// -chainInfeasible marks an infeasible insertion point. The returned
// slice is owned by sc.
func (l *Legalizer) refBuildRightChain(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) ([]chainCell, int64) {
	hc := l.hot
	grid := l.grid
	tct := hc.Type[t]
	tf := hc.Fence[t]
	tw := int64(hc.W[t])
	sc.reset(len(hc.X))
	chain := sc.chainR[:0]
	queue := sc.queue[:0]
	capN := l.chainCap(win)
	xhi := int64(1) << 60

	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return nil, -chainInfeasible
		}
		lst := l.occ.cellsIn(sid)
		i := l.occ.splitAt(sid, x0)
		if i >= len(lst) {
			if v := l.winPadHi(win, grid.Hi(sid)) - tw; v < xhi {
				xhi = v
			}
			continue
		}
		nb := lst[i]
		if !l.isLocal(nb, win) {
			b := int64(hc.X[nb]) - l.spacing(tct, hc.Type[nb]) - tw
			if b < xhi {
				xhi = b
			}
			continue
		}
		if sc.inChain[nb] != sc.stamp {
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
		sc.bumpOff(nb, tw+l.spacing(tct, hc.Type[nb]))
	}

	for qi := 0; qi < len(queue); qi++ {
		c := model.CellID(queue[qi])
		cx := hc.X[c]
		cy := int(hc.Y[c])
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				return nil, -chainInfeasible
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k int) bool { return hc.X[lst[k]] > cx })
			if i >= len(lst) {
				continue
			}
			nb := lst[i]
			if sc.inChain[nb] == sc.stamp {
				continue
			}
			if !l.isLocal(nb, win) || len(chain) >= capN {
				continue
			}
			sc.inChain[nb] = sc.stamp
			sc.chainIdx[nb] = int32(len(chain))
			chain = append(chain, chainCell{id: nb})
			queue = append(queue, int32(nb))
		}
	}

	// Pass 1 (ascending X): offsets from the target.
	order := sc.order[:0]
	for i := range chain {
		order = append(order, i)
	}
	// Insertion sort by ascending X (see the left-chain mirror).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && hc.X[chain[order[j]].id] < hc.X[chain[order[j-1]].id]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, ci := range order {
		c := chain[ci].id
		cx := hc.X[c]
		cy := int(hc.Y[c])
		off := sc.seedOff(c)
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				continue
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k int) bool { return hc.X[lst[k]] >= cx })
			if i-1 < 0 {
				continue
			}
			ln := lst[i-1]
			li, ok2 := sc.chainAt(ln)
			if !ok2 {
				continue
			}
			req := chain[li].off + int64(hc.W[ln]) + l.spacing(hc.Type[ln], hc.Type[c])
			if req > off {
				off = req
			}
		}
		if off == 0 {
			off = -1
		}
		chain[ci].off = off
	}

	// Pass 2 (descending X): expansion bounds (maxPos).
	for k := len(order) - 1; k >= 0; k-- {
		ci := order[k]
		c := chain[ci].id
		cx := hc.X[c]
		cy := int(hc.Y[c])
		cw := int64(hc.W[c])
		var maxPos int64 = 1 << 60
		for r := cy; r < cy+int(hc.H[c]); r++ {
			sid := grid.AtID(r, int(cx))
			if sid < 0 {
				return nil, -chainInfeasible
			}
			lst := l.occ.cellsIn(sid)
			i := sort.Search(len(lst), func(k2 int) bool { return hc.X[lst[k2]] > cx })
			if i >= len(lst) {
				if v := l.winPadHi(win, grid.Hi(sid)) - cw; v < maxPos {
					maxPos = v
				}
				continue
			}
			nb := lst[i]
			if ni, ok2 := sc.chainAt(nb); ok2 {
				b := chain[ni].bound - l.spacing(hc.Type[c], hc.Type[nb]) - cw
				if b < maxPos {
					maxPos = b
				}
			} else {
				// Non-local barrier, clamped to the padded window edge
				// (see the left-chain mirror for why).
				b := int64(hc.X[nb]) - l.spacing(hc.Type[c], hc.Type[nb]) - cw
				if w := l.winPadHi(win, grid.Hi(sid)) - cw; w < b {
					b = w
				}
				if b < maxPos {
					maxPos = b
				}
			}
		}
		chain[ci].bound = maxPos
		if chain[ci].off > 0 {
			if v := maxPos - chain[ci].off; v < xhi {
				xhi = v
			}
		}
	}
	sc.chainR, sc.queue, sc.order = chain, queue, order
	return chain, xhi
}

// refEvaluateInsertion builds the displacement curve for the insertion
// point defined by (y, x0) and returns the best position and cost. The
// second return is false if the point is infeasible. The returned
// plan's moves alias sc.moves and are only valid until the next
// evaluation with the same scratch.
func (l *Legalizer) refEvaluateInsertion(sc *scratch, t model.CellID, y, h, x0 int, win geom.Rect) (plan, bool) {
	hc := l.hot
	grid := l.grid
	tf := hc.Fence[t]
	tw := int(hc.W[t])
	tgx := int64(hc.GX[t])
	siteW := int64(l.d.Tech.SiteW)
	rowH := int64(l.d.Tech.RowH)

	// Quick rejection: every span row must hold at least the target's
	// width of free sites inside the window. This necessary condition
	// skips the expensive chain construction for insertion points deep
	// inside packed regions.
	for r := y; r < y+h; r++ {
		sid := grid.AtID(r, x0)
		if sid < 0 || grid.FenceOf(sid) != tf {
			return plan{}, false
		}
		wl, wh := grid.Lo(sid), grid.Hi(sid)
		if win.XLo > wl {
			wl = win.XLo
		}
		if win.XHi < wh {
			wh = win.XHi
		}
		if wh-wl < tw ||
			(wh-wl)-l.occ.occupiedWidth(sid, wl, wh) < tw {
			return plan{}, false
		}
	}

	left, xlo := l.refBuildLeftChain(sc, t, y, h, x0, win)
	if xlo >= chainInfeasible {
		return plan{}, false
	}
	right, xhi := l.refBuildRightChain(sc, t, y, h, x0, win)
	if xhi <= -chainInfeasible {
		return plan{}, false
	}
	if int64(win.XLo) > xlo {
		xlo = int64(win.XLo)
	}
	if v := int64(win.XHi) - int64(tw); v < xhi {
		xhi = v
	}
	if xlo > xhi {
		return plan{}, false
	}

	// The summed curve lives in the scratch and is accumulated in
	// place: the former per-cell curve constructors allocated a curve
	// plus breakpoint storage for every local cell of every insertion
	// point.
	total := &sc.total
	total.ResetAbs(tgx, siteW, int64(geom.Abs(y-int(hc.GY[t])))*rowH)
	// Each local cell contributes its *incremental* displacement: the
	// curve minus its current (sunk) displacement. Without the
	// subtraction, insertion points whose windows happen to contain
	// already-displaced cells would look spuriously expensive, biasing
	// the row choice. (For MLL semantics the baseline is zero anyway.)
	for i := range left {
		if left[i].off <= 0 {
			continue
		}
		id := left[i].id
		cx := int64(hc.X[id])
		g := int64(hc.GX[id])
		if l.opt.CostFromCurrent {
			g = cx // MLL semantics: cost from current position
		}
		total.AddPushLeft(cx, g, left[i].off, siteW)
		total.AddConst(-siteW * abs64(cx-g))
	}
	for i := range right {
		if right[i].off <= 0 {
			continue
		}
		id := right[i].id
		cx := int64(hc.X[id])
		g := int64(hc.GX[id])
		if l.opt.CostFromCurrent {
			g = cx
		}
		total.AddPushRight(cx, g, right[i].off, siteW)
		total.AddConst(-siteW * abs64(cx-g))
	}

	bestX, bestV := refMinOn(total, xlo, xhi, tgx)

	// Vertical-rail avoidance: slide to the nearest clean x by curve
	// cost (paper Section 3.4).
	if l.opt.Rules != nil && l.opt.Rules.XForbidden(hc.Type[t], int(bestX), y) {
		const scanCap = 256
		found := false
		var candX, candV int64
		for step := int64(1); step <= scanCap; step++ {
			if x := bestX - step; x >= xlo && !l.opt.Rules.XForbidden(hc.Type[t], int(x), y) {
				candX, candV = x, total.Eval(x)
				found = true
				break
			}
		}
		for step := int64(1); step <= scanCap; step++ {
			x := bestX + step
			if x > xhi {
				break
			}
			if !l.opt.Rules.XForbidden(hc.Type[t], int(x), y) {
				if v := total.Eval(x); !found || v < candV {
					candX, candV = x, v
				}
				break
			}
		}
		if !found {
			return plan{}, false
		}
		bestX, bestV = candX, candV
	}
	if l.opt.Rules != nil {
		bestV += l.opt.Rules.IOPenalty(hc.Type[t], int(bestX), y)
	}

	p := plan{target: t, x: int(bestX), y: y, cost: bestV, ok: true}
	moves := sc.moves[:0]
	for i := range left {
		if left[i].off <= 0 {
			continue
		}
		id := left[i].id
		cx := int64(hc.X[id])
		nx := bestX - left[i].off
		if cx < nx {
			nx = cx
		}
		if nx != cx {
			moves = append(moves, move{id: id, newX: int(nx)})
		}
	}
	for i := range right {
		if right[i].off <= 0 {
			continue
		}
		id := right[i].id
		cx := int64(hc.X[id])
		nx := bestX + right[i].off
		if cx > nx {
			nx = cx
		}
		if nx != cx {
			moves = append(moves, move{id: id, newX: int(nx)})
		}
	}
	sc.moves = moves
	p.moves = moves
	return p, true
}
