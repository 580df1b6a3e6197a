package mcf

import (
	"context"
	"math/rand"
	"slices"
	"testing"
)

var allRules = []PivotRule{FirstEligible, CandidateList}

// solve runs g on a fresh Solver under rule without cancellation.
func solve(g *Graph, rule PivotRule) (*Result, error) {
	var sv Solver
	return sv.Solve(context.Background(), g, rule)
}

// sameResult asserts byte-for-byte equality of two results.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Cost != b.Cost || a.Pivots != b.Pivots ||
		!slices.Equal(a.Flow, b.Flow) || !slices.Equal(a.Pi, b.Pi) {
		t.Fatalf("%s: results differ: cost %d vs %d, pivots %d vs %d", label, a.Cost, b.Cost, a.Pivots, b.Pivots)
	}
}

// A reused Solver must match a fresh Solver byte-for-byte on every
// instance of a randomized sequence, for every pivot rule (satellite
// property (c)).
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, rule := range allRules {
		reused := NewSolver()
		for it := 0; it < 40; it++ {
			n := 2 + rng.Intn(30)
			m := 1 + rng.Intn(80)
			g := randomGraph(rng, n, m, true)
			fr, ferr := solve(g, rule)
			rr, rerr := reused.Solve(context.Background(), g, rule)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("rule %v it %d: fresh err %v, reused err %v", rule, it, ferr, rerr)
			}
			if ferr != nil {
				continue
			}
			sameResult(t, rule.String(), fr, rr)
			if err := g.VerifyOptimal(rr); err != nil {
				t.Fatalf("rule %v it %d: %v", rule, it, err)
			}
		}
	}
}

// Both pivot rules and all three solvers (simplex, cost scaling, SSP)
// agree on the optimal cost of the benchmark graph families
// (satellite property (a) at family shapes; the quick-check variant in
// quick_test.go covers arbitrary random graphs).
func TestAllRulesAndSolversAgreeOnFamilies(t *testing.T) {
	graphs := map[string]*Graph{
		"refinement":  RefinementGraph(120, 3),
		"assignment":  AssignmentGraph(24, 4),
		"circulation": CirculationGraph(60, 240, 5),
	}
	for name, g := range graphs {
		var want int64
		for i, rule := range allRules {
			res, err := solve(g, rule)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, rule, err)
			}
			if err := g.VerifyOptimal(res); err != nil {
				t.Fatalf("%s/%v: %v", name, rule, err)
			}
			if i == 0 {
				want = res.Cost
			} else if res.Cost != want {
				t.Fatalf("%s/%v: cost %d, want %d", name, rule, res.Cost, want)
			}
		}
		if res, err := g.SolveSSP(); err != nil || res.Cost != want {
			t.Fatalf("%s/ssp: cost %v err %v, want %d", name, res, err, want)
		}
		if res, err := g.SolveCostScaling(); err != nil || res.Cost != want {
			t.Fatalf("%s/costscaling: cost %v err %v, want %d", name, res, err, want)
		}
	}
}

// Auto resolves by instance size; the rule actually used is reported
// through Stats.
func TestAutoRuleResolution(t *testing.T) {
	small := RefinementGraph(100, 1) // well under autoArcThreshold
	sv := NewSolver()
	if _, err := sv.Solve(context.Background(), small, Auto); err != nil {
		t.Fatal(err)
	}
	if r := sv.Stats().LastRule; r != FirstEligible {
		t.Errorf("small instance rule = %v, want FirstEligible", r)
	}
	big := RefinementGraph(2000, 1) // ~9000 arcs: over the threshold
	if _, err := sv.Solve(context.Background(), big, Auto); err != nil {
		t.Fatal(err)
	}
	if r := sv.Stats().LastRule; r != CandidateList {
		t.Errorf("large instance rule = %v, want CandidateList", r)
	}
}

// Solve rejects a rule outside the enumeration, including the retired
// value between FirstEligible and CandidateList.
func TestSolveRejectsUnknownRule(t *testing.T) {
	g := RefinementGraph(10, 1)
	for _, rule := range []PivotRule{PivotRule(2), PivotRule(99)} {
		if _, err := solve(g, rule); err == nil {
			t.Errorf("rule %d accepted", int(rule))
		}
	}
}

func TestPivotRuleString(t *testing.T) {
	want := map[PivotRule]string{
		Auto: "auto", FirstEligible: "first-eligible",
		CandidateList: "candidate-list", PivotRule(42): "PivotRule(42)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), s)
		}
	}
}

// A reused Solver's solves stop allocating once its arrays fit the
// instance shape (the reused-vs-fresh allocs/op ratio of
// BENCH_mcf.json is rooted in this behaviour). This is the dynamic
// witness the static noalloc proof (root: (*Solver).Solve) is pinned
// to by analysis.TestHotPathRootsMatchDynamicProof.
func TestReusedColdSolveZeroAlloc(t *testing.T) {
	g := RefinementGraph(300, 13)
	ctx := context.Background()
	var sv Solver
	for i := 0; i < 4; i++ {
		if _, err := sv.Solve(ctx, g, FirstEligible); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sv.Solve(ctx, g, FirstEligible); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("reused cold solve allocates %.1f times per op, want 0", allocs)
	}
}
