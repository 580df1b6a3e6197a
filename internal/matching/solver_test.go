package matching

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, n int) [][]int64 {
	m := make([][]int64, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = int64(rng.Intn(1000))
		}
	}
	return m
}

// minCostPerfect solves one instance on a fresh Solver without
// cancellation.
func minCostPerfect(n int, cost func(i, j int) int64) (assign []int, total int64, ok bool) {
	var sv Solver
	assign, total, ok, _ = sv.Solve(context.Background(), n, cost)
	return assign, total, ok
}

// minCostPerfectMatrix is minCostPerfect over an explicit cost matrix.
func minCostPerfectMatrix(cost [][]int64) (assign []int, total int64, ok bool) {
	return minCostPerfect(len(cost), func(i, j int) int64 { return cost[i][j] })
}

// A reused Solver must match fresh solves byte-for-byte across a
// randomized sequence of instance sizes.
func TestSolverColdMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sv Solver
	for it := 0; it < 50; it++ {
		n := 1 + rng.Intn(24)
		m := randomMatrix(rng, n)
		if it%5 == 0 {
			// Sprinkle Forbidden pairs; some instances become infeasible.
			for k := 0; k < n; k++ {
				m[rng.Intn(n)][rng.Intn(n)] = Forbidden
			}
		}
		cost := func(i, j int) int64 { return m[i][j] }
		wantA, wantT, wantOK := minCostPerfect(n, cost)
		gotA, gotT, gotOK, err := sv.Solve(context.Background(), n, cost)
		if err != nil || wantOK != gotOK || wantT != gotT || !slices.Equal(wantA, gotA) {
			t.Fatalf("it %d (n=%d): solver (%v,%d,%v,%v) != fresh (%v,%d,%v)",
				it, n, gotA, gotT, gotOK, err, wantA, wantT, wantOK)
		}
	}
}

// Property: Solver reuse is byte-identical to fresh solves for
// arbitrary matrices.
func TestQuickSolverReuseByteIdentical(t *testing.T) {
	var sv Solver
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%16) + 1
		m := randomMatrix(rng, n)
		cost := func(i, j int) int64 { return m[i][j] }
		wantA, wantT, wantOK := minCostPerfect(n, cost)
		gotA, gotT, gotOK, err := sv.Solve(context.Background(), n, cost)
		return err == nil && wantOK == gotOK && wantT == gotT && slices.Equal(wantA, gotA)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A reused Solver performs zero heap allocations per solve once its
// arrays fit the instance size — the per-row minv/used allocations of
// the pre-Solver code are gone. This is the dynamic witness the static
// noalloc proof (root: (*Solver).augmentRow) is pinned to by
// analysis.TestHotPathRootsMatchDynamicProof.
func TestSolverReuseZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 64
	m := randomMatrix(rng, n)
	cost := func(i, j int) int64 { return m[i][j] }
	ctx := context.Background()
	var sv Solver
	if _, _, ok, _ := sv.Solve(ctx, n, cost); !ok {
		t.Fatal("warm-up solve failed")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, ok, _ := sv.Solve(ctx, n, cost); !ok {
			t.Fatal("solve failed")
		}
	})
	if allocs != 0 {
		t.Errorf("reused solve allocates %.1f times per op, want 0", allocs)
	}
}
