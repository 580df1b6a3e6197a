package stage

import (
	"context"

	"mclegal/internal/maxdisp"
)

// NewMaxDisp returns the matching-based maximum-displacement
// optimization stage (paper Section 3.2).
func NewMaxDisp(opt maxdisp.Options) *MaxDispStage { return &MaxDispStage{Opt: opt} }

// MaxDispStage is the concrete matching stage; Opt is exposed so
// composers and tests can inspect the options the stage will run with.
type MaxDispStage struct{ Opt maxdisp.Options }

func (s *MaxDispStage) Name() string { return NameMaxDisp }

// Run swaps cell positions within matching groups and deposits the
// matching stats as the stage artifact.
//
//mclegal:writes design.xy,stagectx matching permutes positions among already-legal sites and deposits its stats
func (s *MaxDispStage) Run(ctx context.Context, pc *PipelineContext) error {
	opt := s.Opt
	if opt.Faults == nil {
		opt.Faults = pc.Faults
	}
	st, err := maxdisp.OptimizeContext(ctx, pc.Design, opt)
	pc.MaxDispStats = st
	return err
}

func (s *MaxDispStage) Counters(pc *PipelineContext) map[string]int64 {
	return map[string]int64{
		"matchings_solved": int64(pc.MaxDispStats.Groups),
		"cells_swapped":    int64(pc.MaxDispStats.Swapped),
		"phi_cost_before":  pc.MaxDispStats.CostBefore,
		"phi_cost_after":   pc.MaxDispStats.CostAfter,
	}
}
