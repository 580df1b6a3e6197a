package mgl

import (
	"math/rand"
	"testing"

	"mclegal/internal/geom"
	"mclegal/internal/model"
	"mclegal/internal/seg"
)

func occFixture(t *testing.T) (*model.Design, *seg.Grid, *occupancy) {
	t.Helper()
	d := newDesign(100, 4)
	grid, err := seg.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, grid, newOccupancy(d, model.NewHotCells(d), grid)
}

func TestOccupancyInsertOrder(t *testing.T) {
	d, grid, occ := occFixture(t)
	mk := func(ti model.CellTypeID, x, y int) model.CellID {
		id := addCell(d, ti, x, y, 0)
		d.Cells[id].X, d.Cells[id].Y = x, y
		occ.hot = model.NewHotCells(d)
		occ.insert(id)
		return id
	}
	c := mk(0, 50, 1)
	a := mk(0, 10, 1)
	b := mk(0, 30, 1)
	s, _ := grid.At(1, 0)
	lst := occ.cellsIn(int32(s.ID))
	if len(lst) != 3 || lst[0] != a || lst[1] != b || lst[2] != c {
		t.Fatalf("occupancy not x-sorted: %v", lst)
	}
	if occ.splitAt(int32(s.ID), 30) != 2 { // cells with X <= 30: a and b
		t.Errorf("splitAt(30) = %d", occ.splitAt(int32(s.ID), 30))
	}
	if occ.splitAt(int32(s.ID), 9) != 0 || occ.splitAt(int32(s.ID), 99) != 3 {
		t.Errorf("splitAt boundaries wrong")
	}
}

func TestOccupancyMultiRow(t *testing.T) {
	d, grid, occ := occFixture(t)
	id := addCell(d, 1, 20, 2, 0) // 3-wide, 2-high at rows 2,3
	occ.hot = model.NewHotCells(d)
	occ.insert(id)
	for r := 2; r <= 3; r++ {
		s, _ := grid.At(r, 20)
		if lst := occ.cellsIn(int32(s.ID)); len(lst) != 1 || lst[0] != id {
			t.Fatalf("row %d missing multi-row cell", r)
		}
	}
	s, _ := grid.At(1, 20)
	if len(occ.cellsIn(int32(s.ID))) != 0 {
		t.Errorf("row 1 should be empty")
	}
}

func TestOccupiedWidth(t *testing.T) {
	d, grid, occ := occFixture(t)
	mk := func(ti model.CellTypeID, x int) {
		id := addCell(d, ti, x, 0, 0)
		occ.hot = model.NewHotCells(d)
		occ.insert(id)
	}
	// Width-2 cells at [10,12), [20,22); width-5 at [30,35).
	mk(0, 10)
	mk(0, 20)
	mk(3, 30)
	s, _ := grid.At(0, 0)
	cases := []struct {
		lo, hi, want int
	}{
		{0, 100, 9},
		{10, 12, 2},
		{11, 12, 1}, // clipped left
		{10, 11, 1}, // clipped right
		{12, 20, 0}, // gap
		{0, 10, 0},  // before everything
		{31, 34, 3}, // inside the wide cell
		{21, 33, 4}, // 1 from cell2 + 3 from cell3
		{50, 40, 0}, // inverted interval
	}
	for _, c := range cases {
		if got := occ.occupiedWidth(int32(s.ID), c.lo, c.hi); got != c.want {
			t.Errorf("occupiedWidth(%d,%d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

func TestOccupiedWidthRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		d, grid, occ := occFixture(t)
		// Random non-overlapping width-2 cells in row 0.
		x := 0
		var placed []int
		for {
			x += rng.Intn(4)
			if x+2 > 100 {
				break
			}
			id := addCell(d, 0, x, 0, 0)
			occ.hot = model.NewHotCells(d)
			occ.insert(id)
			placed = append(placed, x)
			x += 2
		}
		s, _ := grid.At(0, 0)
		for q := 0; q < 30; q++ {
			lo := rng.Intn(100)
			hi := lo + rng.Intn(100-lo+1)
			want := 0
			for _, px := range placed {
				o := min(hi, px+2) - max(lo, px)
				if o > 0 {
					want += o
				}
			}
			if got := occ.occupiedWidth(int32(s.ID), lo, hi); got != want {
				t.Fatalf("trial %d: occupiedWidth(%d,%d) = %d, want %d", trial, lo, hi, got, want)
			}
		}
	}
}

// The neighbour links must equal what a segment lookup plus binary
// search derives from the occupancy lists, after shuffled inserts into
// rows cut into several segments (a blockage and a fence) and after
// commit-style shifts that move cells inside their free gaps, which
// preserve x-order and segment membership.
func TestNeighbourLinksMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(314159))
	const nSites, nRows = 80, 8
	for trial := 0; trial < 20; trial++ {
		d := newDesign(nSites, nRows)
		d.Blockages = []geom.Rect{geom.RectWH(30+rng.Intn(10), 0, 3, 2+rng.Intn(4))}
		d.Fences = []model.Fence{{Name: "F", Rects: []geom.Rect{geom.RectWH(55, 2+rng.Intn(2), 12, 4)}}}
		grid, err := seg.Build(d)
		if err != nil {
			t.Fatal(err)
		}
		// Reserve a legal placement: every cell inside one segment per
		// row, no two cells sharing a site.
		used := make([][]bool, nRows)
		for r := range used {
			used[r] = make([]bool, nSites)
		}
		free := func(r, x int, sid int32) bool {
			return x >= 0 && x < nSites && !used[r][x] && grid.AtID(r, x) == sid
		}
		var ids []model.CellID
		for try := 0; try < 400; try++ {
			ti := model.CellTypeID(rng.Intn(len(d.Types)))
			ct := d.Types[ti]
			x, y := rng.Intn(nSites-ct.Width+1), rng.Intn(nRows-ct.Height+1)
			sid := grid.AtID(y, x)
			if sid < 0 || !grid.SpanOK(grid.FenceOf(sid), x, y, ct.Width, ct.Height) {
				continue
			}
			ok := true
			for r := y; r < y+ct.Height && ok; r++ {
				for k := x; k < x+ct.Width; k++ {
					ok = ok && !used[r][k]
				}
			}
			if !ok {
				continue
			}
			for r := y; r < y+ct.Height; r++ {
				for k := x; k < x+ct.Width; k++ {
					used[r][k] = true
				}
			}
			ids = append(ids, addCell(d, ti, x, y, grid.FenceOf(sid)))
		}
		occ := newOccupancy(d, model.NewHotCells(d), grid)
		hc := occ.hot
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })

		// shift moves a placed cell by a random amount inside the free
		// gap around it in every row it spans, as a commit does.
		shift := func(id model.CellID) {
			x, y, w, h := int(hc.X[id]), int(hc.Y[id]), int(hc.W[id]), int(hc.H[id])
			maxL, maxR := nSites, nSites
			for r := y; r < y+h; r++ {
				sid := grid.AtID(r, x)
				n := 0
				for free(r, x-1-n, sid) {
					n++
				}
				maxL = min(maxL, n)
				n = 0
				for free(r, x+w+n, sid) {
					n++
				}
				maxR = min(maxR, n)
			}
			dx := rng.Intn(maxL+maxR+1) - maxL
			for r := y; r < y+h; r++ {
				for k := x; k < x+w; k++ {
					used[r][k] = false
				}
				for k := x + dx; k < x+dx+w; k++ {
					used[r][k] = true
				}
			}
			hc.SetX(d, id, x+dx)
		}

		check := func(step int, placed []model.CellID) {
			t.Helper()
			for _, id := range placed {
				s0, s1 := occ.slots(id)
				if s1-s0 != int(hc.H[id]) {
					t.Fatalf("trial %d step %d: cell %d has %d slots, height %d", trial, step, id, s1-s0, hc.H[id])
				}
				x, y := int(hc.X[id]), int(hc.Y[id])
				for k := 0; k < s1-s0; k++ {
					sid := grid.AtID(y+k, x)
					lst := occ.cellsIn(sid)
					i := occ.splitAt(sid, x) - 1
					if i < 0 || lst[i] != id {
						t.Fatalf("trial %d step %d: cell %d not found in its row-%d segment", trial, step, id, y+k)
					}
					wantL, wantR := model.CellID(-1), model.CellID(-1)
					if i > 0 {
						wantL = lst[i-1]
					}
					if i+1 < len(lst) {
						wantR = lst[i+1]
					}
					s := s0 + k
					if occ.nbL[s] != wantL || occ.nbR[s] != wantR || occ.segOf[s] != sid {
						t.Fatalf("trial %d step %d: cell %d row %d links (L %d, R %d, seg %d), want (%d, %d, %d)",
							trial, step, id, y+k, occ.nbL[s], occ.nbR[s], occ.segOf[s], wantL, wantR, sid)
					}
				}
			}
		}

		for n, id := range ids {
			if err := occ.insert(id); err != nil {
				t.Fatalf("trial %d: insert %d: %v", trial, id, err)
			}
			for k := rng.Intn(4); k > 0; k-- {
				shift(ids[rng.Intn(n+1)])
			}
			check(n, ids[:n+1])
		}
	}
}
