// mcf mode: the solver-layer sweep behind BENCH_mcf.json. It measures
// the network-simplex pivot rules and the reusable Solver over the
// three benchmark graph families (mcf/families.go) and cross-validates
// every configuration against the independent solvers before recording
// a single number: on each family's validation instance, simplex under
// both pivot rules, cost-scaling, SSP and (assignment only) the
// Hungarian matching solver must all report the same optimal cost, or
// the sweep aborts.
//
// SSP is benchmarked at the (smaller) validation size — its
// Bellman-Ford inner loop does not finish in sensible time at the
// simplex bench sizes — so every run records its own nodes/arcs; rows
// are only comparable at equal sizes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"testing"

	"mclegal/internal/matching"
	"mclegal/internal/mcf"
)

// mcfRun is one measured configuration on one family.
type mcfRun struct {
	Solver string `json:"solver"`         // simplex | costscaling | ssp
	Rule   string `json:"rule,omitempty"` // pivot rule (simplex only)
	// Mode: cold-fresh allocates a solver per solve, cold-reused
	// solves the same shape on one Solver.
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	Arcs        int     `json:"arcs"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Pivots      float64 `json:"pivots,omitempty"` // mean pivots per solve (simplex only)
	GOMAXPROCS  int     `json:"gomaxprocs"`
}

// mcfValidation records the cross-solver agreement that gates the
// family's benchmark rows.
type mcfValidation struct {
	Nodes int `json:"nodes"`
	Arcs  int `json:"arcs"`
	// Cost is the optimal objective every listed solver agreed on.
	Cost    int64    `json:"cost"`
	Solvers []string `json:"solvers"`
}

type mcfFamilySummary struct {
	Family string `json:"family"`
	Nodes  int    `json:"nodes"`
	Arcs   int    `json:"arcs"`
	// ColdPivots is the first-eligible pivot count of one solve.
	ColdPivots float64 `json:"cold_pivots"`
	// Allocation economy of Solver reuse vs a fresh solve.
	ColdAllocs   int64         `json:"cold_allocs_per_op"`
	ReusedAllocs int64         `json:"reused_allocs_per_op"`
	AllocRatio   float64       `json:"alloc_ratio"`
	Validation   mcfValidation `json:"validation"`
	Runs         []mcfRun      `json:"runs"`
}

type mcfReport struct {
	Bench     string             `json:"bench"`
	Smoke     bool               `json:"smoke,omitempty"`
	NumCPU    int                `json:"numcpu"`
	GoVersion string             `json:"goversion"`
	Families  []mcfFamilySummary `json:"families"`
}

// mcfFamily pairs a benchmark instance with the smaller validation
// instance the cross-solver agreement runs on.
type mcfFamily struct {
	name  string
	bench *mcf.Graph
	valid *mcf.Graph
	// assignN is the matrix size when the family is an assignment
	// instance (enables the Hungarian cross-check), 0 otherwise.
	assignN int
}

func mcfFamilies(smoke bool) []mcfFamily {
	if smoke {
		return []mcfFamily{
			{name: "refinement", bench: mcf.RefinementGraph(60, 7), valid: mcf.RefinementGraph(48, 3)},
			{name: "assignment", bench: mcf.AssignmentGraph(12, 9), valid: mcf.AssignmentGraph(10, 4), assignN: 10},
			{name: "circulation", bench: mcf.CirculationGraph(40, 160, 11), valid: mcf.CirculationGraph(32, 128, 5)},
		}
	}
	return []mcfFamily{
		{name: "refinement", bench: mcf.RefinementGraph(5000, 7), valid: mcf.RefinementGraph(300, 3)},
		{name: "assignment", bench: mcf.AssignmentGraph(150, 9), valid: mcf.AssignmentGraph(60, 4), assignN: 60},
		{name: "circulation", bench: mcf.CirculationGraph(2000, 10000, 11), valid: mcf.CirculationGraph(200, 800, 5)},
	}
}

var mcfRules = []mcf.PivotRule{mcf.FirstEligible, mcf.CandidateList}

// smokeIters is the fixed iteration count of every smoke-mode
// measurement. AllocsPerOp is the process-wide malloc delta divided by
// the iteration count, so with a single iteration a runtime allocation
// landing in the window (a new OS thread's bookkeeping, say) reads as
// 1 alloc/op on a path that allocates nothing. Over 100 iterations such
// stragglers round down to 0, while a real per-op allocation still
// reads at least 1.
const smokeIters = 100

// sweepMCF measures the solver layer and returns the report committed
// as BENCH_mcf.json. Smoke mode shrinks every instance and runs each
// measurement for a fixed smokeIters iterations so CI can exercise the
// full code path in seconds.
func sweepMCF(smoke bool) mcfReport {
	if smoke {
		// When running inside a test binary the testing flags already
		// exist; outside one they must be registered first.
		if flag.Lookup("test.benchtime") == nil {
			testing.Init()
		}
		flag.Set("test.benchtime", fmt.Sprintf("%dx", smokeIters))
	}
	rep := mcfReport{
		Bench:     "MCFSolvers",
		Smoke:     smoke,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	for _, fam := range mcfFamilies(smoke) {
		rep.Families = append(rep.Families, sweepMCFFamily(fam))
	}
	return rep
}

func sweepMCFFamily(fam mcfFamily) mcfFamilySummary {
	sum := mcfFamilySummary{
		Family:     fam.name,
		Nodes:      fam.bench.NumNodes(),
		Arcs:       fam.bench.NumArcs(),
		Validation: validateMCFFamily(fam),
	}
	log.Printf("%s: %d nodes, %d arcs (validated cost %d at %d nodes)",
		fam.name, sum.Nodes, sum.Arcs, sum.Validation.Cost, sum.Validation.Nodes)

	g := fam.bench
	for _, rule := range mcfRules {
		sum.Runs = append(sum.Runs, benchColdFresh(g, rule))
		sum.Runs = append(sum.Runs, benchColdReused(g, rule))
	}
	sum.Runs = append(sum.Runs, benchAltSolver(g, "costscaling", func() error {
		_, err := g.SolveCostScaling()
		return err
	}))
	// SSP at validation size only; its nodes/arcs fields say so.
	vg := fam.valid
	sum.Runs = append(sum.Runs, benchAltSolver(vg, "ssp", func() error {
		_, err := vg.SolveSSP()
		return err
	}))

	for _, r := range sum.Runs {
		if r.Solver != "simplex" || r.Rule != mcf.FirstEligible.String() {
			continue
		}
		switch r.Mode {
		case "cold-fresh":
			sum.ColdPivots = r.Pivots
			sum.ColdAllocs = r.AllocsPerOp
		case "cold-reused":
			sum.ReusedAllocs = r.AllocsPerOp
		}
	}
	reused := sum.ReusedAllocs
	if reused < 1 {
		reused = 1
	}
	sum.AllocRatio = float64(sum.ColdAllocs) / float64(reused)
	log.Printf("%s: %.0f pivots, alloc ratio %.0fx (%d -> %d)",
		fam.name, sum.ColdPivots, sum.AllocRatio, sum.ColdAllocs, sum.ReusedAllocs)
	return sum
}

// validateMCFFamily proves every solver configuration agrees on the
// validation instance's optimal cost, aborting the sweep otherwise.
func validateMCFFamily(fam mcfFamily) mcfValidation {
	g := fam.valid
	val := mcfValidation{Nodes: g.NumNodes(), Arcs: g.NumArcs()}
	check := func(name string, cost int64, err error) {
		if err != nil {
			log.Fatalf("%s validation: %s: %v", fam.name, name, err)
		}
		if len(val.Solvers) == 0 {
			val.Cost = cost
		} else if cost != val.Cost {
			log.Fatalf("%s validation: %s found cost %d, others found %d",
				fam.name, name, cost, val.Cost)
		}
		val.Solvers = append(val.Solvers, name)
	}
	for _, rule := range mcfRules {
		res, err := solveFresh(g, rule)
		if err == nil {
			if verr := g.VerifyOptimal(res); verr != nil {
				log.Fatalf("%s validation: simplex/%v certificate: %v", fam.name, rule, verr)
			}
		}
		var cost int64
		if res != nil {
			cost = res.Cost
		}
		check("simplex/"+rule.String(), cost, err)
	}
	res, err := g.SolveCostScaling()
	check("costscaling", costOf(res), err)
	res, err = g.SolveSSP()
	check("ssp", costOf(res), err)

	if fam.assignN > 0 {
		n := fam.assignN
		var msv matching.Solver
		_, total, ok, err := msv.Solve(context.Background(), n, func(i, j int) int64 {
			return g.Arc(i*n + j).Cost
		})
		if err != nil || !ok {
			log.Fatalf("%s validation: matching found no perfect assignment", fam.name)
		}
		check("matching/hungarian", total, nil)
	}
	return val
}

func costOf(res *mcf.Result) int64 {
	if res == nil {
		return 0
	}
	return res.Cost
}

// solveFresh solves g on a new Solver, as a one-off caller would.
func solveFresh(g *mcf.Graph, rule mcf.PivotRule) (*mcf.Result, error) {
	return mcf.NewSolver().Solve(context.Background(), g, rule)
}

func benchColdFresh(g *mcf.Graph, rule mcf.PivotRule) mcfRun {
	res, err := solveFresh(g, rule)
	if err != nil {
		log.Fatalf("cold-fresh %v: %v", rule, err)
	}
	pivots := res.Pivots
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solveFresh(g, rule); err != nil {
				b.Fatal(err)
			}
		}
	})
	return mcfRunFrom(g, "simplex", rule.String(), "cold-fresh", r, float64(pivots))
}

func benchColdReused(g *mcf.Graph, rule mcf.PivotRule) mcfRun {
	ctx := context.Background()
	sv := mcf.NewSolver()
	res, err := sv.Solve(ctx, g, rule)
	if err != nil {
		log.Fatalf("cold-reused %v: %v", rule, err)
	}
	pivots := res.Pivots
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sv.Solve(ctx, g, rule); err != nil {
				b.Fatal(err)
			}
		}
	})
	return mcfRunFrom(g, "simplex", rule.String(), "cold-reused", r, float64(pivots))
}

func benchAltSolver(g *mcf.Graph, name string, solve func() error) mcfRun {
	if err := solve(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return mcfRunFrom(g, name, "", "cold-fresh", r, 0)
}

func mcfRunFrom(g *mcf.Graph, solver, rule, mode string, r testing.BenchmarkResult, pivots float64) mcfRun {
	run := mcfRun{
		Solver:      solver,
		Rule:        rule,
		Mode:        mode,
		Nodes:       g.NumNodes(),
		Arcs:        g.NumArcs(),
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Pivots:      pivots,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
	label := run.Solver
	if rule != "" {
		label = fmt.Sprintf("%s/%s", solver, rule)
	}
	log.Printf("  %-28s %-12s %12d ns/op  %8d allocs/op  pivots %.1f",
		label, mode, run.NsPerOp, run.AllocsPerOp, run.Pivots)
	return run
}
