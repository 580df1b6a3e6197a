package mgl

import (
	"math/rand"
	"testing"

	"mclegal/internal/eval"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

// Regression for a parallel-scheduler bug: a chain cell whose
// compression barrier came from a non-local neighbor could be pushed
// past its window's edge, colliding with a concurrent batch member's
// placement in the adjacent window. Dense instances with many multi-row
// cells, small windows and forbidden rows maximize batch pressure at
// window seams.
func TestParallelSeamRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(1711))
	for trial := 0; trial < 6; trial++ {
		d := newDesign(200, 20)
		// ~72% utilization with a tall-cell-heavy mix.
		area := 0
		for area < 200*20*72/100 {
			ti := model.CellTypeID(rng.Intn(len(d.Types)))
			ct := d.Types[ti]
			gx := rng.Intn(200 - ct.Width)
			gy := rng.Intn(20 - ct.Height)
			addCell(d, ti, gx, gy, 0)
			area += ct.Width * ct.Height
		}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		l := New(d, grid, Options{
			Workers:  4,
			BatchCap: 16,
			// Tiny windows force many adjacent windows per batch.
			WindowW: 6, WindowH: 2,
			Rules: fakeRules{
				rowBad: func(ct model.CellTypeID, y int) bool {
					// Forbid one row phase for one type to force
					// retries and window growth.
					return ct == 0 && y%5 == 0
				},
			},
		})
		if err := l.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if v := eval.Audit(d, grid); len(v) > 0 {
			t.Fatalf("trial %d: %v (of %d)", trial, v[0], len(v))
		}
	}
}

// The work counters are deterministic: pinned exact values on a small
// fenced design with edge spacing and forbidden rows, identical for
// one, two and four workers. Two workers is where the pool first
// splits windows' rows across workers, so rows evaluated past the
// serial prune cut must stay out of every counter.
// A change to the evaluation that moves them changes how much work MGL
// does (or what it places), and must say so.
func TestWorkCountersPinned(t *testing.T) {
	run := func(workers int) Stats {
		rng := rand.New(rand.NewSource(4242))
		d := randomDesign(rng, 120, 12, 150, true)
		d.Tech.EdgeSpacing = [][]int{{0, 1}, {1, 1}}
		for i := range d.Types {
			d.Types[i].EdgeL = uint8(i % 2)
			d.Types[i].EdgeR = uint8((i + 1) % 2)
		}
		l := runMGL(t, d, Options{
			Workers: workers,
			Rules: fakeRules{
				rowBad: func(ct model.CellTypeID, y int) bool { return ct == 0 && y%5 == 0 },
			},
		})
		return l.Stats
	}
	want := Stats{
		Placed:              150,
		WindowRetries:       58,
		QualityRetries:      34,
		InfeasibleRetries:   24,
		Batches:             96,
		RowsEvaluated:       1339,
		InsertionsEvaluated: 8091,
		ChainCells:          202676,
	}
	for _, workers := range []int{1, 2, 4} {
		got := run(workers)
		if got.Workers != workers {
			t.Errorf("workers=%d: Stats.Workers = %d", workers, got.Workers)
		}
		got.Workers = 0
		if got != want {
			t.Errorf("workers=%d: stats %+v, want %+v", workers, got, want)
		}
	}
}
