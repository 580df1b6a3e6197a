package mgl

import (
	"math/rand"
	"slices"
	"testing"

	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// FuzzEvaluateInsertion compares the production insertion-point
// evaluation (neighbour links, interior-only breakpoint sort) with the
// frozen reference in insertion_ref_test.go, plan for plan, on legal
// snapshots: a random design (multi-row cells, optionally a fence and
// edge spacing) is legalized for a few batches, which leaves the
// committed cells legal and shifted by real commits, and every
// insertion point of every unplaced cell is then evaluated in windows
// of three growth steps, under a Rules stub with forbidden rows,
// forbidden x and IO penalties, with CostFromCurrent off and on.
//
// The seed corpus runs under plain go test; go test -fuzz explores
// further.
func FuzzEvaluateInsertion(f *testing.F) {
	for _, s := range []struct {
		seed    int64
		batches uint8
		flags   uint8
	}{
		{1, 3, 0}, {2, 12, 1}, {3, 24, 2}, {4, 40, 3},
		{5, 6, 4}, {6, 20, 5}, {7, 30, 6}, {8, 50, 7},
	} {
		f.Add(s.seed, s.batches, s.flags)
	}
	f.Fuzz(func(t *testing.T, seed int64, batches, flags uint8) {
		l, targets := partialSnapshot(t, seed, batches, flags)
		if l == nil {
			return // legalized completely: no unplaced target remains
		}
		d := l.d
		got, ref := new(scratch), new(scratch)
		for _, fromCurrent := range []bool{false, true} {
			l.opt.CostFromCurrent = fromCurrent
			for _, tc := range targets {
				h := int(l.hot.H[tc])
				for attempt := 0; attempt < 3; attempt++ {
					win := l.windowFor(tc, attempt)
					for y := max(win.YLo, 0); y+h <= min(win.YHi, d.Tech.NumRows); y++ {
						if !d.Tech.RowAllowed(h, y) ||
							(l.opt.Rules != nil && l.opt.Rules.RowForbidden(l.hot.Type[tc], y)) {
							continue
						}
						for _, x0 := range l.insertionReps(got, l.hot.Fence[tc], y, h, win) {
							p, ok := l.evaluateInsertion(got, tc, y, h, x0, win)
							q, okRef := l.refEvaluateInsertion(ref, tc, y, h, x0, win)
							if ok != okRef {
								t.Fatalf("cell %d y=%d x0=%d win=%v fromCurrent=%v: feasible %v, reference %v",
									tc, y, x0, win, fromCurrent, ok, okRef)
							}
							if !ok {
								continue
							}
							if p.x != q.x || p.y != q.y || p.cost != q.cost || !slices.Equal(p.moves, q.moves) {
								t.Fatalf("cell %d y=%d x0=%d win=%v fromCurrent=%v:\n got (%d,%d) cost %d moves %v\nwant (%d,%d) cost %d moves %v",
									tc, y, x0, win, fromCurrent, p.x, p.y, p.cost, p.moves, q.x, q.y, q.cost, q.moves)
							}
						}
					}
				}
			}
		}
	})
}

// partialSnapshot is the fixture of FuzzEvaluateInsertion and the
// split-window differential test: a random design (multi-row cells, a
// fence when flags&1, edge spacing when flags&2, a Rules stub with
// forbidden rows, forbidden x and IO penalties when flags&4) legalized
// for batches%64+1 batches with Workers: 1, and up to four of the cells
// still unplaced, in random order. It skips the test when the design
// cannot be built, and returns a nil Legalizer when the design
// legalizes completely.
func partialSnapshot(t *testing.T, seed int64, batches, flags uint8) (*Legalizer, []model.CellID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	withFence := flags&1 != 0
	withSpacing := flags&2 != 0
	withRules := flags&4 != 0
	nSites, nRows := 60+rng.Intn(60), 8+rng.Intn(6)
	d := randomDesign(rng, nSites, nRows, nSites*nRows/(8+rng.Intn(6)), withFence)
	if withSpacing {
		d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 2}}
		for i := range d.Types {
			d.Types[i].EdgeL = uint8(rng.Intn(2))
			d.Types[i].EdgeR = uint8(rng.Intn(2))
		}
	}
	grid, err := seg.Build(d)
	if err != nil {
		t.Skip(err)
	}
	opt := Options{Workers: 1}
	if withRules {
		phase := rng.Intn(7)
		opt.Rules = fakeRules{
			rowBad: func(ct model.CellTypeID, y int) bool { return ct == 0 && y%5 == phase%5 },
			xBad:   func(ct model.CellTypeID, x, y int) bool { return (x+3*y+int(ct)+phase)%7 == 0 },
			pen: func(ct model.CellTypeID, x, y int) int64 {
				if (x+y)%11 == phase {
					return 40
				}
				return 0
			},
		}
	}
	placed := make([]bool, len(d.Cells))
	left := int(batches%64) + 1
	opt.DebugAfterBatch = func(ids []model.CellID) bool {
		for _, id := range ids {
			placed[id] = true
		}
		left--
		return left > 0
	}
	l := New(d, grid, opt)
	if err := l.Run(); err == nil {
		return nil, nil
	}
	l.opt.DebugAfterBatch = nil

	var targets []model.CellID
	for i := range d.Cells {
		if !d.Cells[i].Fixed && !placed[i] {
			targets = append(targets, model.CellID(i))
		}
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if len(targets) > 4 {
		targets = targets[:4]
	}
	return l, targets
}
