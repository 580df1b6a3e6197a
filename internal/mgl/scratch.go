package mgl

import (
	"sync"

	"mclegal/internal/curve"
)

// scratch holds reusable per-evaluation buffers indexed by cell ID,
// replacing per-insertion-point map allocations on the hot path. Each
// chain build bumps the stamp, implicitly clearing the arrays. After a
// few windows of warm-up every buffer has reached its steady-state
// capacity and a window evaluation performs zero heap allocations (see
// TestBestInWindowZeroAlloc).
type scratch struct {
	stamp    int32
	inChain  []int32 // stamp marker: cell is in the current chain
	chainIdx []int32 // index into the chain slice (valid when marked)
	offStamp []int32
	offReq   []int64 // seeded frontier off requirement

	chain  []chainCell
	chainR []chainCell
	queue  []int32
	order  []int

	reps      []int       // insertion-point representatives (insertionReps)
	total     curve.Curve // summed displacement curve (evaluateInsertion)
	moves     []move      // candidate plan moves (evaluateInsertion)
	rowMoves  []move      // current row's best plan's moves (evalRow)
	bestMoves []move      // current best plan's moves (bestInWindow)

	work evalWork // counters of the current row evaluation
}

// evalWork counts the work of one row or window evaluation (see the
// matching Stats fields).
type evalWork struct {
	rows       int // rows whose insertion points were enumerated
	evaluated  int // insertion points past the quick rejection
	chainCells int // cells of the push chains built for them
}

func (w *evalWork) add(o evalWork) {
	w.rows += o.rows
	w.evaluated += o.evaluated
	w.chainCells += o.chainCells
}

func (s *scratch) reset(n int) {
	if len(s.inChain) < n {
		s.inChain = make([]int32, n)
		s.chainIdx = make([]int32, n)
		s.offStamp = make([]int32, n)
		s.offReq = make([]int64, n)
	}
	s.stamp++
}

// scratchPool hands out scratch buffers to concurrent window
// evaluations.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}
