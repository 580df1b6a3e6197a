// Solver-owned state. A Solver owns every scratch array of the network
// simplex and is reused across solves: repeated solves of same-shape
// instances (the per-row refinement LPs of one design) pay no per-call
// allocation after the first solve.
package mcf

import (
	"context"
	"fmt"
)

// Solver is a reusable network-simplex instance. The zero value is
// ready to use. A Solver is not safe for concurrent use.
//
// Results returned by a Solver alias its internal arrays: Flow and Pi
// are valid until the next call on the same Solver. Callers that need
// the values past that must copy them.
type Solver struct {
	sx    simplex
	res   Result
	stats SolverStats
}

// SolverStats describes a Solver's most recent solve.
type SolverStats struct {
	// LastRule is the concrete rule of the most recent solve (Auto
	// already resolved).
	LastRule PivotRule
}

// NewSolver returns an empty Solver. Equivalent to new(Solver).
func NewSolver() *Solver { return &Solver{} }

// Stats returns the solve counters.
func (sv *Solver) Stats() SolverStats { return sv.stats }

// Solve runs the network simplex on g from the all-artificial basis
// under rule and returns optimal flows, potentials and cost. The pivot
// loop polls ctx every ctxCheckInterval pivots and returns ctx.Err()
// once it is cancelled or past its deadline.
//
//mclegal:hotpath reused cold-solve path; TestReusedColdSolveZeroAlloc pins reused Solvers to 0 allocs/op
func (sv *Solver) Solve(ctx context.Context, g *Graph, rule PivotRule) (*Result, error) {
	if g.err != nil {
		return nil, g.err
	}
	var sum int64
	for _, b := range g.supply {
		sum += b
	}
	if sum != 0 {
		//mclegal:alloc error path: an unbalanced instance is rejected before any solver state is touched
		return nil, fmt.Errorf("mcf: supplies sum to %d, want 0: %w", sum, ErrInfeasible)
	}
	rule, err := resolveRule(rule, len(g.arcs)+len(g.supply))
	if err != nil {
		return nil, err
	}
	sv.sx.init(g)
	if err := sv.sx.runPivots(ctx, rule); err != nil {
		return nil, err
	}
	return sv.finish(rule)
}

// finish records stats, checks feasibility and assembles the reused
// Result without allocating.
func (sv *Solver) finish(rule PivotRule) (*Result, error) {
	s := &sv.sx
	sv.stats.LastRule = rule
	for a := s.m; a < s.m+s.n; a++ {
		if s.flow[a] != 0 {
			return nil, ErrInfeasible
		}
	}
	var cost int64
	for a := 0; a < s.m; a++ {
		cost += s.flow[a] * s.cost[a]
	}
	sv.res = Result{
		Flow:   s.flow[:s.m:s.m],
		Pi:     s.pi[:s.n:s.n],
		Cost:   cost,
		Pivots: s.pivots,
	}
	return &sv.res, nil
}
