package refine

import (
	"testing"

	"mclegal/internal/mcf"
)

// The report must describe the solver's behaviour: the concrete pivot
// rule and a solve-time figure.
func TestReportSolverCounters(t *testing.T) {
	d := newDesign(60, 2)
	place(d, 0, 5, 0, 10, 0)
	place(d, 0, 20, 0, 25, 0)
	place(d, 0, 40, 1, 44, 1)
	rep := optimize(t, d, Options{Weights: WeightUniform})
	if rep.Rule != mcf.FirstEligible {
		t.Errorf("rule = %v, want FirstEligible (small instance under Auto)", rep.Rule)
	}
	if rep.SolveNs < 0 {
		t.Errorf("SolveNs = %d, want >= 0", rep.SolveNs)
	}
}
