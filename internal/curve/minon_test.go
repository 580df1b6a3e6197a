package curve

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refMinOn is MinOn as it stood before the interior-only sort: the
// whole breakpoint list is sorted, f(lo) comes from Eval, and the sweep
// walks every breakpoint. It runs on a clone, so the curve under test
// keeps whatever order MinOn left it in. Do not optimize it.
func refMinOn(c *Curve, lo, hi, prefer int64) (bestX, bestV int64) {
	c = c.Clone()
	c.ensureSorted()
	bestX, bestV = lo, c.Eval(lo)
	better := func(x, v int64) {
		if v < bestV {
			bestX, bestV = x, v
			return
		}
		if v > bestV {
			return
		}
		dNew, dOld := abs64(x-prefer), abs64(bestX-prefer)
		if dNew < dOld || (dNew == dOld && x < bestX) {
			bestX = x
		}
	}
	v := bestV
	s := c.slope0
	prev := lo
	preferDone := prefer <= lo || prefer > hi
	for _, b := range c.breaks {
		if b.x <= lo {
			s += b.ds
			continue
		}
		if b.x > hi {
			break
		}
		if !preferDone && prefer < b.x {
			better(prefer, v+s*(prefer-prev))
			preferDone = true
		}
		v += s * (b.x - prev)
		prev = b.x
		s += b.ds
		better(b.x, v)
	}
	if !preferDone {
		better(prefer, v+s*(prefer-prev))
	}
	better(hi, v+s*(hi-prev))
	return bestX, bestV
}

// genSummedCurve accumulates a random summed curve in place, the way
// the legalizer builds one per insertion point, over a narrow x range
// so breakpoints collide and values tie. It returns the curve (left
// unsorted unless no push term was added) and its breakpoint xs.
func genSummedCurve(rng *rand.Rand) (*Curve, []int64) {
	var c Curve
	w := int64(1 + rng.Intn(3))
	c.ResetAbs(int64(rng.Intn(21)-10), w, int64(rng.Intn(50)))
	for k := rng.Intn(12); k > 0; k-- {
		cur := int64(rng.Intn(21) - 10)
		g := cur
		if rng.Intn(3) > 0 { // cost from GP; else from the current x (MLL)
			g = int64(rng.Intn(21) - 10)
		}
		off := int64(1 + rng.Intn(6))
		if rng.Intn(2) == 0 {
			c.AddPushLeft(cur, g, off, w)
		} else {
			c.AddPushRight(cur, g, off, w)
		}
		c.AddConst(int64(rng.Intn(7) - 3))
	}
	xs := make([]int64, len(c.breaks))
	for i, b := range c.breaks {
		xs[i] = b.x
	}
	return &c, xs
}

// MinOn on an unsorted curve must return exactly what the full-sort
// scan returns: same x, same value, over intervals whose ends sit on
// breakpoints, straddle them or miss them all, with prefer inside,
// on either end of, or outside [lo, hi]. Eval afterwards must be
// unchanged by the partial reordering MinOn leaves behind.
func TestQuickMinOnMatchesFullSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, xs := genSummedCurve(rng)
		pick := func() int64 {
			if rng.Intn(2) == 0 {
				return xs[rng.Intn(len(xs))] // exactly on a breakpoint
			}
			return int64(rng.Intn(41) - 20)
		}
		lo, hi := pick(), pick()
		if lo > hi {
			lo, hi = hi, lo
		}
		var prefer int64
		switch rng.Intn(4) {
		case 0:
			prefer = lo
		case 1:
			prefer = hi
		case 2:
			prefer = lo - 1 - int64(rng.Intn(10)) // left of [lo, hi]
		default:
			prefer = pick() // inside or right of [lo, hi]
		}
		before := c.Clone()
		wantX, wantV := refMinOn(c, lo, hi, prefer)
		gotX, gotV := c.MinOn(lo, hi, prefer)
		if gotX != wantX || gotV != wantV {
			t.Logf("seed %d: MinOn(%d, %d, %d) = (%d, %d), full sort gives (%d, %d)",
				seed, lo, hi, prefer, gotX, gotV, wantX, wantV)
			return false
		}
		// A second MinOn on the partly reordered curve must agree too.
		lo2, hi2 := min(lo, pick()), max(hi, pick())
		x2, v2 := c.MinOn(lo2, hi2, prefer)
		if rx2, rv2 := refMinOn(before, lo2, hi2, prefer); x2 != rx2 || v2 != rv2 {
			t.Logf("seed %d: second MinOn(%d, %d, %d) = (%d, %d), full sort gives (%d, %d)",
				seed, lo2, hi2, prefer, x2, v2, rx2, rv2)
			return false
		}
		for x := int64(-25); x <= 25; x++ {
			if c.Eval(x) != before.Eval(x) {
				t.Logf("seed %d: Eval(%d) changed after MinOn", seed, x)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// A curve that is already sorted (a lone target curve, or one Eval has
// sorted) takes the subslice path and must keep its order.
func TestMinOnSortedCurveKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		c, _ := genSummedCurve(rng)
		c.Eval(0) // sorts
		lo := int64(rng.Intn(21) - 10)
		hi := lo + int64(rng.Intn(15))
		prefer := int64(rng.Intn(31) - 15)
		wantX, wantV := refMinOn(c, lo, hi, prefer)
		gotX, gotV := c.MinOn(lo, hi, prefer)
		if gotX != wantX || gotV != wantV {
			t.Fatalf("trial %d: MinOn(%d, %d, %d) = (%d, %d), want (%d, %d)",
				trial, lo, hi, prefer, gotX, gotV, wantX, wantV)
		}
		if !c.sorted {
			t.Fatalf("trial %d: MinOn cleared the sorted flag", trial)
		}
		for i := 1; i < len(c.breaks); i++ {
			if c.breaks[i].x < c.breaks[i-1].x {
				t.Fatalf("trial %d: MinOn unsorted a sorted curve", trial)
			}
		}
	}
}
