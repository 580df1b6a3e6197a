// Benchmark graph families. These are the instance shapes BENCH_mcf.json
// measures and the cross-solver validation covers: the refinement
// network of Section 3.3, dense assignment networks (the min-cost-flow
// form of the Section 3.2 matchings), and random circulations. They
// live in the package (not a _test file) so cmd/benchjson and the
// property tests build the same instances the committed numbers
// describe.
package mcf

import "math/rand"

// RefinementGraph builds a graph with the shape of the fixed-order
// refinement network (Section 3.3): n cell nodes all connected to a
// hub, plus chain arcs for neighbor constraints.
func RefinementGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n + 1)
	hub := n
	for i := 0; i < n; i++ {
		gx := int64(rng.Intn(1 << 16))
		g.AddArc(i, hub, 4, gx)
		g.AddArc(hub, i, 4, -gx)
		g.AddArc(hub, i, 1<<20, -int64(rng.Intn(64)))
		g.AddArc(i, hub, 1<<20, int64(rng.Intn(1<<16)))
		if i > 0 && rng.Intn(4) != 0 {
			g.AddArc(i-1, i, 1<<20, -int64(2+rng.Intn(6)))
		}
	}
	return g
}

// AssignmentGraph builds a dense n×n transportation instance: n unit
// sources, n unit sinks, every pair connected — the min-cost-flow form
// of the Section 3.2 assignment problems.
func AssignmentGraph(n int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(2 * n)
	for s := 0; s < n; s++ {
		g.SetSupply(s, 1)
		g.SetSupply(n+s, -1)
	}
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			g.AddArc(s, n+t, 1, int64(rng.Intn(10000)))
		}
	}
	return g
}

// CirculationGraph builds a zero-supply instance with m random arcs of
// mixed-sign cost over n nodes: negative-cost cycles force real pivot
// work without any supply to route.
func CirculationGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for a := 0; a < m; a++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if to == from {
			to = (to + 1) % n
		}
		g.AddArc(from, to, int64(1+rng.Intn(16)), int64(rng.Intn(201)-100))
	}
	return g
}
