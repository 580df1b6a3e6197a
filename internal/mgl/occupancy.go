// Package mgl implements the paper's core contribution: multi-row
// global legalization (Section 3.1). Cells are inserted sequentially
// into a window around their GP position; for every candidate insertion
// point the summed displacement curve of the target and the local cells
// is scanned at its breakpoints; the cheapest position wins and local
// cells are spread to make room.
//
// Unlike MLL (reference [12], reimplemented in internal/baseline), all
// displacement here is measured from global-placement positions, so
// costs do not accumulate over successive insertions (paper Figure 3).
package mgl

import (
	"sort"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// occupancy tracks, for every segment, the IDs of placed cells ordered
// by their current x. A multi-row cell appears in one segment per row
// it spans.
//
// All position and width reads go through the HotCells view (shared
// with the owning Legalizer): the occupancy queries run inside the
// bestInWindow hot path, where chasing Design.Cells→Design.Types per
// cell costs a dependent load the flat arrays avoid.
//
//mclegal:ephemeral the index is rebuilt from the design's positions for every legalizer; it never outlives the run that built it
type occupancy struct {
	d    *model.Design
	hot  *model.HotCells
	grid *seg.Grid
	segs [][]model.CellID
	// prefW[sid][i] is the summed width of segs[sid][:i]; it provides
	// O(log) occupied-width queries for the quick-rejection test.
	prefW [][]int32

	// Neighbour links of placed cells, one slot per (cell, row) the
	// cell spans: slot base[id]+k describes cell id in row Y[id]+k.
	// nbL/nbR hold its left/right neighbour in that row's segment list
	// (-1 at either end) and segOf the segment. The push-chain walks ask
	// "who is next to this cell in row r" for every chain cell of every
	// insertion point; the links answer with an array read instead of a
	// segment lookup plus binary search. insert keeps them current, and
	// commit shifts preserve x-order and segment membership, so they
	// never go stale.
	base     []int32 // base[id] = sum of H[:id]; covers len(base)-1 cells
	nbL, nbR []model.CellID
	segOf    []int32
}

func newOccupancy(d *model.Design, hot *model.HotCells, grid *seg.Grid) *occupancy {
	o := &occupancy{
		d:     d,
		hot:   hot,
		grid:  grid,
		segs:  make([][]model.CellID, len(grid.Segs)),
		prefW: make([][]int32, len(grid.Segs)),
	}
	o.growLinks()
	return o
}

// growLinks extends the link slots to cover every cell of the hot
// view. Production sizes them once, at construction; tests that add
// cells to the design after building the index extend them on insert.
func (o *occupancy) growLinks() {
	n := len(o.hot.H)
	if len(o.base) > n {
		return
	}
	if len(o.base) == 0 {
		o.base = append(o.base, 0)
	}
	for id := len(o.base) - 1; id < n; id++ {
		o.base = append(o.base, o.base[id]+o.hot.H[id])
	}
	more := int(o.base[n]) - len(o.segOf)
	o.nbL = append(o.nbL, make([]model.CellID, more)...)
	o.nbR = append(o.nbR, make([]model.CellID, more)...)
	o.segOf = append(o.segOf, make([]int32, more)...)
}

// slots returns the link slot range [s0, s1) of cell id: slot s0+k
// describes the cell in row Y[id]+k.
func (o *occupancy) slots(id model.CellID) (s0, s1 int) {
	return int(o.base[id]), int(o.base[id+1])
}

// reserve returns s with room for one more element, growing by at
// least eight slots at a time: append's doubling reallocates four
// times to reach the first eight elements, so small segment lists were
// re-copying on nearly every insert.
func reserve[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	ns := make([]T, len(s)+1, 2*cap(s)+8)
	copy(ns, s)
	return ns
}

// insert registers a placed cell in the segments of all rows it spans.
// The cell's X/Y must already be final (in both the design and the hot
// view). A cell outside any segment — an inconsistency between the
// committed plan and the grid — yields a typed *InsertError; the
// partially-registered rows are left in place (the stage runner rolls
// the whole stage back on error).
func (o *occupancy) insert(id model.CellID) error {
	o.growLinks()
	h := o.hot
	x, y := int(h.X[id]), int(h.Y[id])
	for r := y; r < y+int(h.H[id]); r++ {
		sid := o.grid.AtID(r, x)
		if sid < 0 {
			c := &o.d.Cells[id]
			return &InsertError{Cell: id, Name: c.Name, X: x, Y: y, Row: r}
		}
		lst := reserve(o.segs[sid])
		i := sort.Search(len(lst)-1, func(k int) bool { return h.X[lst[k]] > int32(x) })
		copy(lst[i+1:], lst[i:])
		lst[i] = id
		o.segs[sid] = lst

		// Link the new cell between its row neighbours.
		s := int(o.base[id]) + r - y
		o.segOf[s] = sid
		o.nbL[s], o.nbR[s] = -1, -1
		if i > 0 {
			p := lst[i-1]
			o.nbL[s] = p
			o.nbR[int(o.base[p])+r-int(h.Y[p])] = id
		}
		if i+1 < len(lst) {
			q := lst[i+1]
			o.nbR[s] = q
			o.nbL[int(o.base[q])+r-int(h.Y[q])] = id
		}

		// One shift-and-add pass keeps prefW a prefix sum of widths:
		// entries after the insertion point slide right one slot
		// (pw[i+1] becomes a copy of pw[i], the prefix up to the new
		// cell), then the new cell's width is added to the whole tail.
		pw := o.prefW[sid]
		if len(pw) == 0 {
			pw = append(pw, 0)
		}
		pw = reserve(pw)
		copy(pw[i+2:], pw[i+1:])
		pw[i+1] = pw[i]
		w := h.W[id]
		for k := i + 1; k < len(pw); k++ {
			pw[k] += w
		}
		o.prefW[sid] = pw
	}
	return nil
}

// occupiedWidth returns the summed width (in sites) of the parts of
// placed cells of segment sid that lie inside [lo, hi).
func (o *occupancy) occupiedWidth(sid int32, lo, hi int) int {
	lst := o.segs[sid]
	if len(lst) == 0 || hi <= lo {
		return 0
	}
	h := o.hot
	// First cell with right edge > lo.
	a := sort.Search(len(lst), func(k int) bool {
		id := lst[k]
		return int(h.X[id]+h.W[id]) > lo
	})
	// First cell with left edge >= hi.
	b := sort.Search(len(lst), func(k int) bool { return int(h.X[lst[k]]) >= hi })
	if a >= b {
		return 0
	}
	pw := o.prefW[sid]
	total := int(pw[b] - pw[a])
	// Trim boundary overhangs.
	ca := lst[a]
	if int(h.X[ca]) < lo {
		total -= lo - int(h.X[ca])
	}
	cb := lst[b-1]
	if r := int(h.X[cb] + h.W[cb]); r > hi {
		total -= r - hi
	}
	return total
}

// cellsIn returns the placed cells of segment sid (ordered by x).
func (o *occupancy) cellsIn(sid int32) []model.CellID { return o.segs[sid] }

// splitAt returns the index of the first cell in segment sid whose left
// edge is strictly greater than x: cells [0,idx) are "left of x".
func (o *occupancy) splitAt(sid int32, x int) int {
	lst := o.segs[sid]
	return sort.Search(len(lst), func(k int) bool { return int(o.hot.X[lst[k]]) > x })
}
