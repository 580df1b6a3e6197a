package mcf

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: simplex and SSP agree on feasibility and optimal cost, and
// both solutions verify, for arbitrary random instances.
func TestQuickSimplexEqualsSSP(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		m := int(mRaw%20) + 1
		g := randomGraph(rng, n, m, seed%2 == 0)
		rs, errS := solve(g, FirstEligible)
		rp, errP := g.SolveSSP()
		if (errS == nil) != (errP == nil) {
			return false
		}
		if errS != nil {
			return true
		}
		if rs.Cost != rp.Cost {
			return false
		}
		return g.VerifyOptimal(rs) == nil && g.VerifyOptimal(rp) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: scaling all costs by a positive constant scales the optimal
// cost by the same constant (flows may differ among ties).
func TestQuickCostScaling(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int64(kRaw%7) + 1
		g := randomGraph(rng, 6, 14, true)
		r1, err1 := solve(g, FirstEligible)
		g2 := NewGraph(g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			g2.SetSupply(v, g.supply[v])
		}
		for a := 0; a < g.NumArcs(); a++ {
			arc := g.Arc(a)
			g2.AddArc(arc.From, arc.To, arc.Cap, arc.Cost*k)
		}
		r2, err2 := solve(g2, FirstEligible)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return r2.Cost == r1.Cost*k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: reversing every arc and negating supplies mirrors the
// problem; the optimal cost is unchanged.
func TestQuickMirrorSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 6, 12, true)
		r1, err1 := solve(g, FirstEligible)
		g2 := NewGraph(g.NumNodes())
		for v := 0; v < g.NumNodes(); v++ {
			g2.SetSupply(v, -g.supply[v])
		}
		for a := 0; a < g.NumArcs(); a++ {
			arc := g.Arc(a)
			g2.AddArc(arc.To, arc.From, arc.Cap, arc.Cost)
		}
		r2, err2 := solve(g2, FirstEligible)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return r1.Cost == r2.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the cost-scaling solver agrees with the network simplex on
// feasibility, optimal cost, and produces a verifiable solution.
func TestQuickCostScalingEqualsSimplex(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		m := int(mRaw%22) + 1
		g := randomGraph(rng, n, m, seed%2 == 1)
		rs, errS := solve(g, FirstEligible)
		rc, errC := g.SolveCostScaling()
		if (errS == nil) != (errC == nil) {
			return false
		}
		if errS != nil {
			return true
		}
		if rs.Cost != rc.Cost {
			return false
		}
		return g.VerifyOptimal(rc) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property (a): both pivot rules and all three solvers agree on
// feasibility and optimal cost for arbitrary random instances, and
// every simplex solution verifies.
func TestQuickAllRulesAllSolversAgree(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%8) + 2
		m := int(mRaw%24) + 1
		g := randomGraph(rng, n, m, seed%2 == 0)
		rs, errS := solve(g, FirstEligible)
		for _, rule := range allRules[1:] { // every rule but FirstEligible
			r, err := solve(g, rule)
			if (errS == nil) != (err == nil) {
				return false
			}
			if errS != nil {
				continue
			}
			if r.Cost != rs.Cost || g.VerifyOptimal(r) != nil {
				return false
			}
		}
		rp, errP := g.SolveSSP()
		rc, errC := g.SolveCostScaling()
		if (errS == nil) != (errP == nil) || (errS == nil) != (errC == nil) {
			return false
		}
		if errS != nil {
			return true
		}
		return rp.Cost == rs.Cost && rc.Cost == rs.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a Solver reused across a randomized instance sequence
// matches fresh-solver results byte-for-byte at every step.
func TestQuickSolverReuseByteIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reused := NewSolver()
		for it := 0; it < 6; it++ {
			n := 2 + rng.Intn(12)
			m := 1 + rng.Intn(30)
			g := randomGraph(rng, n, m, it%2 == 0)
			rule := allRules[it%len(allRules)]
			fr, ferr := solve(g, rule)
			rr, rerr := reused.Solve(context.Background(), g, rule)
			if (ferr == nil) != (rerr == nil) {
				return false
			}
			if ferr != nil {
				continue
			}
			if fr.Cost != rr.Cost || fr.Pivots != rr.Pivots ||
				!slices.Equal(fr.Flow, rr.Flow) || !slices.Equal(fr.Pi, rr.Pi) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
