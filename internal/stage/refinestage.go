package stage

import (
	"context"

	"mclegal/internal/refine"
)

// NewRefine returns the fixed-row-and-order min-cost-flow refinement
// stage (paper Section 3.3). With useRanges set, the pipeline's
// routability rules (when present) narrow each cell's feasible x-range
// to its rail-safe intersection (Section 3.4).
func NewRefine(opt refine.Options, useRanges bool) *RefineStage {
	return &RefineStage{Opt: opt, UseRanges: useRanges}
}

// RefineStage is the concrete refinement stage; Opt and UseRanges are
// exposed so composers and tests can inspect the configuration the
// stage will run with.
type RefineStage struct {
	Opt       refine.Options
	UseRanges bool
}

func (s *RefineStage) Name() string { return NameRefine }

// Run re-spaces cells within their rows by min-cost flow and deposits
// the flow report as the stage artifact.
//
//mclegal:writes design.xy,stagectx refinement moves cells only along their rows and deposits its flow report
func (s *RefineStage) Run(ctx context.Context, pc *PipelineContext) error {
	opt := s.Opt
	if s.UseRanges && pc.Rules != nil {
		opt.Ranges = pc.Rules.RangeProvider(pc.Grid)
	}
	if opt.Faults == nil {
		opt.Faults = pc.Faults
	}
	rep, err := refine.OptimizeContext(ctx, pc.Design, pc.Grid, opt)
	pc.RefineReport = rep
	return err
}

func (s *RefineStage) Counters(pc *PipelineContext) map[string]int64 {
	return map[string]int64{
		"flow_nodes":     int64(pc.RefineReport.Nodes),
		"flow_arcs":      int64(pc.RefineReport.Arcs),
		"simplex_pivots": int64(pc.RefineReport.Pivots),
		"neighbor_edges": int64(pc.RefineReport.Edges),
		"cells_moved":    int64(pc.RefineReport.Moved),
		"solver_rule":    int64(pc.RefineReport.Rule),
		"solve_ns":       pc.RefineReport.SolveNs,
	}
}
