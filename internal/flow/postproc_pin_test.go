package flow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"mclegal/internal/bmark"
	"mclegal/internal/model"
	"mclegal/internal/shard"
)

// postProcPin is the post-processing output of one run: the matching
// stage's counters, the refinement network's shape and work, and a
// digest of the final placement.
type postProcPin struct {
	Groups, Swapped       int
	CostBefore, CostAfter int64
	Nodes, Arcs, Pivots   int
	Moved                 int
	Placement             uint64
}

// placementDigest is an FNV-64a hash over every cell's (X, Y).
func placementDigest(d *model.Design) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i := range d.Cells {
		binary.LittleEndian.PutUint64(b[:8], uint64(d.Cells[i].X))
		binary.LittleEndian.PutUint64(b[8:], uint64(d.Cells[i].Y))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestPostProcessingPinned pins the matching and min-cost-flow stages'
// exact output on one small fenced, routability-on design: a change to
// the solver layer that is meant to be behaviour-preserving must leave
// every figure, and the placement itself, unchanged. Monolithic and
// sharded runs are pinned separately (sharding changes the networks),
// each with the contest and the total-displacement objective.
func TestPostProcessingPinned(t *testing.T) {
	base := bmark.Generate(bmark.Params{
		Name: "postproc-pin", Seed: 5151, Counts: [4]int{320, 36, 10, 4},
		Density: 0.6, NumFences: 2, FenceFrac: 0.5, NetFrac: 0.4, IOPins: 8,
		Routability: true,
	})
	want := map[string]postProcPin{
		"shards=0/total=false": {Groups: 14, Swapped: 136, CostBefore: 56926, CostAfter: 53850,
			Nodes: 373, Arcs: 2606, Pivots: 1192, Moved: 52, Placement: 0xf32f67193c0c95d4},
		"shards=0/total=true": {Groups: 14, Swapped: 136, CostBefore: 56350, CostAfter: 53850,
			Nodes: 371, Arcs: 1864, Pivots: 1220, Moved: 32, Placement: 0x92f1065d67adf738},
		"shards=2/total=false": {Groups: 32, Swapped: 121, CostBefore: 68668, CostAfter: 65140,
			Nodes: 385, Arcs: 2571, Pivots: 1097, Moved: 43, Placement: 0x064043f59ef0b310},
		"shards=2/total=true": {Groups: 32, Swapped: 121, CostBefore: 68380, CostAfter: 65140,
			Nodes: 375, Arcs: 1821, Pivots: 1074, Moved: 41, Placement: 0x7373fda69020c320},
	}
	for _, shards := range []int{0, 2} {
		for _, total := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/total=%v", shards, total)
			d := base.Clone()
			res, err := Run(d, Options{
				Routability: true, TotalDisplacement: total, Workers: 1, Shards: shards,
				ShardPlan: shard.Options{SlabTargetCells: 120, MaxSlabUtil: 0.95},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if shards > 0 && len(res.Shards) < 2 {
				t.Fatalf("%s: plan has %d regions, want at least 2", name, len(res.Shards))
			}
			got := postProcPin{
				Groups: res.MaxDispStats.Groups, Swapped: res.MaxDispStats.Swapped,
				CostBefore: res.MaxDispStats.CostBefore, CostAfter: res.MaxDispStats.CostAfter,
				Nodes: res.RefineReport.Nodes, Arcs: res.RefineReport.Arcs,
				Pivots: res.RefineReport.Pivots, Moved: res.RefineReport.Moved,
				Placement: placementDigest(d),
			}
			if got != want[name] {
				t.Errorf("%s: got %#v, want %#v", name, got, want[name])
			}
		}
	}
}
