package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"mclegal"
)

// quality is the deterministic placement quality of one output,
// scored by eval and route.
type quality struct {
	AvgDispRows    float64 `json:"avg_disp_rows"`
	MaxDispRows    float64 `json:"max_disp_rows"`
	TailDispRows   float64 `json:"tail_disp_rows"`
	TotalDispSites float64 `json:"total_disp_sites"`
	HPWLDeltaPct   float64 `json:"hpwl_delta_pct"`
	ContestScore   float64 `json:"contest_score"`
	Violations     int     `json:"violations"`
}

func measureQuality(d *mclegal.Design, hpwlBefore int64) quality {
	r := mclegal.Evaluate(d, hpwlBefore)
	return quality{
		AvgDispRows:    r.Metrics.AvgDisp,
		MaxDispRows:    r.Metrics.MaxDisp,
		TailDispRows:   tailDisp(d),
		TotalDispSites: r.Metrics.TotalDispSites,
		HPWLDeltaPct:   100 * ratio(float64(r.HPWLAfter-r.HPWLBefore), float64(r.HPWLBefore)),
		ContestScore:   r.Score,
		Violations:     r.Violations.Pin() + r.Violations.EdgeSpacing,
	}
}

// tailDisp is the mean displacement, in rows, of the most-displaced
// 0.1% of the movable cells (at least one). It follows the maximum but
// does not hinge on a single cell.
func tailDisp(d *mclegal.Design) float64 {
	var ds []float64
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ds = append(ds, d.DispRows(mclegal.CellID(i)))
		}
	}
	if len(ds) == 0 {
		return 0
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ds)))
	return mean(ds[:max(1, len(ds)/1000)])
}

// counters are the pipeline's deterministic work counters for one
// design; they do not depend on the machine or the worker count.
type counters struct {
	MGLPlaced      int   `json:"mgl_placed"`
	MGLRetries     int   `json:"mgl_window_retries"`
	MGLBatches     int   `json:"mgl_batches"`
	MaxDispGroups  int   `json:"maxdisp_groups"`
	MaxDispSwapped int   `json:"maxdisp_swapped"`
	PhiBefore      int64 `json:"maxdisp_phi_before"`
	PhiAfter       int64 `json:"maxdisp_phi_after"`
	RefineNodes    int   `json:"refine_nodes"`
	RefineArcs     int   `json:"refine_arcs"`
	RefinePivots   int   `json:"refine_pivots"`
	RefineMoved    int   `json:"refine_moved"`
}

func resultCounters(r mclegal.Result) counters {
	return counters{
		MGLPlaced:      r.MGLStats.Placed,
		MGLRetries:     r.MGLStats.WindowRetries,
		MGLBatches:     r.MGLStats.Batches,
		MaxDispGroups:  r.MaxDispStats.Groups,
		MaxDispSwapped: r.MaxDispStats.Swapped,
		PhiBefore:      r.MaxDispStats.CostBefore,
		PhiAfter:       r.MaxDispStats.CostAfter,
		RefineNodes:    r.RefineReport.Nodes,
		RefineArcs:     r.RefineReport.Arcs,
		RefinePivots:   r.RefineReport.Pivots,
		RefineMoved:    r.RefineReport.Moved,
	}
}

// fingerprint pins one design's result: what was placed where, how
// much work it took, and how good it is. Two runs of the same program
// on the same input produce equal fingerprints.
type fingerprint struct {
	Design    string   `json:"design"`
	Placement string   `json:"placement"`
	Counters  counters `json:"counters"`
	Quality   quality  `json:"quality"`
}

// placementHash is an FNV-64a digest of every cell's current position.
func placementHash(d *mclegal.Design) string {
	h := fnv.New64a()
	var b [16]byte
	for i := range d.Cells {
		binary.LittleEndian.PutUint64(b[:8], uint64(d.Cells[i].X))
		binary.LittleEndian.PutUint64(b[8:], uint64(d.Cells[i].Y))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkOutput verifies one legalized design and its written bytes: the
// run ended legal, the placement is audit-clean, and the bytes parse
// back to the same positions. It returns the re-parsed design.
func checkOutput(d *mclegal.Design, status mclegal.RunStatus, out []byte) (*mclegal.Design, error) {
	if status != mclegal.StatusLegal {
		return nil, fmt.Errorf("%s: run status %s, want legal", d.Name, status)
	}
	if err := auditClean(d); err != nil {
		return nil, err
	}
	return reparseSame(d, out)
}

// reparseSame parses out and fails unless every cell comes back at d's
// positions.
func reparseSame(d *mclegal.Design, out []byte) (*mclegal.Design, error) {
	back, err := mclegal.ReadDesign(bytes.NewReader(out))
	if err != nil {
		return nil, fmt.Errorf("%s: re-parse output: %w", d.Name, err)
	}
	if len(back.Cells) != len(d.Cells) {
		return nil, fmt.Errorf("%s: re-parsed %d cells, wrote %d", d.Name, len(back.Cells), len(d.Cells))
	}
	for i := range d.Cells {
		a, b := &d.Cells[i], &back.Cells[i]
		if a.X != b.X || a.Y != b.Y || a.GX != b.GX || a.GY != b.GY {
			return nil, fmt.Errorf("%s: cell %d re-parsed at (%d,%d) GP (%d,%d), wrote (%d,%d) GP (%d,%d)",
				d.Name, i, b.X, b.Y, b.GX, b.GY, a.X, a.Y, a.GX, a.GY)
		}
	}
	return back, nil
}

// auditClean fails when the placement has any hard-legality violation.
func auditClean(d *mclegal.Design) error {
	vs, err := mclegal.Audit(d)
	if err != nil {
		return fmt.Errorf("%s: audit: %w", d.Name, err)
	}
	if len(vs) > 0 {
		return fmt.Errorf("%s: audit found %d violations, first: %s", d.Name, len(vs), vs[0])
	}
	return nil
}

// tally counts attempted and failed operations and keeps the first
// few failure messages.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err)
		}
	}
}
