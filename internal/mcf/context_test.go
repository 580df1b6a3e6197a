package mcf

import (
	"context"
	"errors"
	"testing"
)

func transportGraph() *Graph {
	g := NewGraph(4)
	g.SetSupply(0, 10)
	g.SetSupply(1, 5)
	g.SetSupply(2, -8)
	g.SetSupply(3, -7)
	g.AddArc(0, 2, 10, 3)
	g.AddArc(0, 3, 10, 1)
	g.AddArc(1, 2, 10, 2)
	g.AddArc(1, 3, 10, 4)
	return g
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sv Solver
	_, err := sv.Solve(ctx, transportGraph(), Auto)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve on cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestSolveContextClean(t *testing.T) {
	for _, rule := range allRules {
		res, err := solve(transportGraph(), rule)
		if err != nil {
			t.Fatalf("%v: Solve: %v", rule, err)
		}
		if res.Cost != 26 {
			t.Errorf("%v: cost = %d, want 26", rule, res.Cost)
		}
	}
}
