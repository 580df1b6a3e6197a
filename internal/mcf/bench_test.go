package mcf

import (
	"math/rand"
	"testing"
)

func BenchmarkSimplexRefinementShape(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := RefinementGraph(5000, 7)
		res, err := solve(g, FirstEligible)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Pivots), "pivots")
		}
	}
}

func BenchmarkSimplexTransport(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const src, dst = 60, 60
	g := NewGraph(src + dst)
	for s := 0; s < src; s++ {
		g.SetSupply(s, 50)
		for t := 0; t < dst; t++ {
			g.AddArc(s, src+t, 60, int64(rng.Intn(1000)))
		}
	}
	for t := 0; t < dst; t++ {
		g.SetSupply(src+t, -50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(g, FirstEligible); err != nil {
			b.Fatal(err)
		}
	}
}
