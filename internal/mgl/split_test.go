package mgl

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
	"mclegal/internal/testutil"
)

// splitEval evaluates cells in wins as one batch on pool, the way
// RunContext does, and returns the slots' plans and work counters.
func splitEval(l *Legalizer, pool *evalPool, cells []model.CellID, wins []geom.Rect) ([]plan, []evalWork) {
	rs := &l.rs
	rs.batch = append(rs.batch[:0], cells...)
	rs.wins = append(rs.wins[:0], wins...)
	l.evalBatch(context.Background(), pool)
	return rs.plans[:len(cells)], rs.work[:len(cells)]
}

// scanLen counts the rows of t's full scan of win.
func scanLen(l *Legalizer, t model.CellID, win geom.Rect) int {
	n := 0
	for scan := l.newRowScan(t, win); ; n++ {
		if _, ok := scan.next(&l.d.Tech); !ok {
			return n
		}
	}
}

// The pool's row-split evaluation of a batch must give every window the
// plan and the work counters of the serial bestInWindow: same
// feasibility, cost, position and moves, same rows, insertion points
// and chain cells. It runs on FuzzEvaluateInsertion's partial-MGL
// snapshots (fences, edge spacing, forbidden rows and x, IO penalties),
// with CostFromCurrent off and on, at the default row-prune slack and
// at a slack of one row (which cuts most scans early), for one-cell and
// three-cell batches at Workers 2 and 4. GOMAXPROCS is raised to 4 for
// the test so that Workers 4 runs four shares.
func TestSplitWindowMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	windows, cutShort := 0, 0
	for seed := int64(1); seed <= 24; seed++ {
		l, targets := partialSnapshot(t, seed, uint8(3+5*seed), uint8(seed%8))
		if l == nil || len(targets) == 0 {
			continue
		}
		var dst []move
		var wc evalWork
		for _, workers := range []int{2, 4} {
			l.opt.Workers = workers
			l.rs.ensure(len(l.d.Cells), l.opt.BatchCap, true)
			pool := l.startPool(context.Background())
			for _, fromCurrent := range []bool{false, true} {
				for _, slack := range []int{8, 1} {
					l.opt.CostFromCurrent, l.opt.PruneSlackRows = fromCurrent, slack
					for attempt := 0; attempt < 3; attempt++ {
						var wins []geom.Rect
						for _, tc := range targets {
							wins = append(wins, l.windowFor(tc, attempt))
						}
						check := func(cells []model.CellID, wins []geom.Rect) {
							t.Helper()
							plans, work := splitEval(l, pool, cells, wins)
							for i, tc := range cells {
								want, ok := l.bestInWindow(tc, wins[i], &dst, &wc)
								got := plans[i]
								if got.ok != ok || got.cost != want.cost || got.x != want.x ||
									got.y != want.y || !slices.Equal(got.moves, want.moves) || work[i] != wc {
									t.Fatalf("seed %d workers=%d fromCurrent=%v slack=%d cell %d win %v (batch of %d):\n"+
										"split  ok=%v (%d,%d) cost %d moves %v work %+v\nserial ok=%v (%d,%d) cost %d moves %v work %+v",
										seed, workers, fromCurrent, slack, tc, wins[i], len(cells),
										got.ok, got.x, got.y, got.cost, got.moves, work[i],
										ok, want.x, want.y, want.cost, want.moves, wc)
								}
								windows++
								if wc.rows < scanLen(l, tc, wins[i]) {
									cutShort++
								}
							}
						}
						for i := range targets {
							check(targets[i:i+1], wins[i:i+1])
						}
						if len(targets) >= 3 {
							check(targets[:3], wins[:3])
						}
					}
				}
			}
			pool.stop()
		}
	}
	// The comparison means little unless the prune cut ended scans
	// early, which is where split rows are dropped.
	if windows == 0 || cutShort == 0 {
		t.Fatalf("compared %d windows, %d of them cut short by row pruning; want both > 0", windows, cutShort)
	}
}

// The split path stays allocation-free in steady state, like
// bestInWindow: the row results, their move buffers and the scratch
// buffers are reused across windows, and dispatch to the pool sends
// values over a buffered channel.
func TestSplitWindowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	l, tgt, win := zeroAllocFixture(t, Options{Workers: 2})
	l.rs.ensure(len(l.d.Cells), l.opt.BatchCap, true)
	pool := l.startPool(context.Background())
	defer pool.stop()
	cells, wins := []model.CellID{tgt}, []geom.Rect{win}
	eval := func() {
		if plans, _ := splitEval(l, pool, cells, wins); !plans[0].ok {
			t.Fatal("no feasible plan in window")
		}
	}
	for i := 0; i < 8; i++ {
		eval()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, eval); allocs != 0 {
		t.Fatalf("split window evaluation allocates %.2f objects/call after warm-up, want 0", allocs)
	}
}

// A panic raised while a pool worker evaluates one row of a split
// window — here from a Rules stub, on a row off the GP row of the one
// cell whose type it panics for — is recovered into a *WorkerPanicError
// naming that cell, with the panic value and a stack, and the pool
// shuts down cleanly. The serial path reports the same cell. GOMAXPROCS
// is raised to 4 so that Workers 4 runs four shares.
func TestSplitRowPanicIsolated(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	before := testutil.Count()
	for _, workers := range []int{1, 2, 4} {
		d := newDesign(60, 10)
		d.Types = append(d.Types, model.CellType{Name: "P1", Width: 2, Height: 1})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 30; i++ {
			addCell(d, 0, rng.Intn(58), rng.Intn(10), 0)
		}
		victim := addCell(d, 4, 30, 5, 0)
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		l := New(d, grid, Options{
			Workers:  workers,
			BatchCap: 1, // one-cell batches: with a pool, every window's rows split
			Rules: fakeRules{rowBad: func(ct model.CellTypeID, y int) bool {
				if ct == 4 && y == 6 {
					panic("rule stub panic")
				}
				return false
			}},
		})
		err = l.Run()
		var wp *WorkerPanicError
		if !errors.As(err, &wp) {
			t.Fatalf("workers=%d: err = %T %v, want *WorkerPanicError", workers, err, err)
		}
		if wp.Cell != victim || wp.Value != "rule stub panic" || len(wp.Stack) == 0 {
			t.Errorf("workers=%d: panic error for cell %d value %v (stack %d bytes), want cell %d",
				workers, wp.Cell, wp.Value, len(wp.Stack), victim)
		}
	}
	testutil.CheckNoLeaks(t, before)
}
