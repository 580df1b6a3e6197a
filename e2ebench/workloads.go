package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"mclegal"
)

const (
	suiteContest = "contest" // ICCAD'17, paper Table 1
	suiteISPD    = "ispd"    // ISPD'15, paper Table 2
)

// designSpec names one generated input: a published suite instance at
// a scale (1 = published size), legalized under its suite's objective.
type designSpec struct {
	Suite string
	Bench string
	Scale float64
}

func (s designSpec) String() string { return fmt.Sprintf("%s@%g", s.Bench, s.Scale) }

// options is the pipeline configuration of the spec's suite: Table 1
// runs routability-driven under the contest S_am objective, Table 2
// under total displacement. MGL Workers stay at the library default.
func (s designSpec) options() mclegal.Options {
	if s.Suite == suiteContest {
		return mclegal.Options{Routability: true}
	}
	return mclegal.Options{TotalDisplacement: true}
}

// query is the legalize query string selecting options() on the server.
func (s designSpec) query() string {
	if s.Suite == suiteContest {
		return "routability=true"
	}
	return "total=true"
}

// workload is one named set of inputs. Batch workloads legalize
// Designs round-robin through the library; a workload with Serve set
// drives an in-process mclegald instead.
type workload struct {
	Name    string
	Designs []designSpec
	// Scaling is the instance mgl.scaling_exp is fitted on, from its
	// MGL time at Scaling.Scale and at twice that scale.
	Scaling designSpec
	Serve   *serveMix
}

var workloads = []workload{
	{
		// Dense Table 1 instances with fences, rails and IO pins, a few
		// hundred cells each so a run repeats every design several
		// times: MGL window growth is nearly all of the time.
		Name: "contest_dense",
		Designs: []designSpec{
			{suiteContest, "pci_bridge32_a_md2", 0.025},
			{suiteContest, "des_perf_b_md2", 0.008},
			{suiteContest, "fft_2_md2", 0.02},
			{suiteContest, "edit_dist_a_md2", 0.007},
		},
		Scaling: designSpec{suiteContest, "pci_bridge32_a_md2", 0.025},
	},
	{
		// Sparse Table 2 instances at full published size: MGL, MCF
		// refinement, matching and parse/write all carry weight.
		Name: "ispd_sparse",
		Designs: []designSpec{
			{suiteISPD, "fft_a", 1},
			{suiteISPD, "pci_bridge32_b", 1},
		},
		Scaling: designSpec{suiteISPD, "pci_bridge32_b", 0.5},
	},
	{
		// Small designs through the gated server path: admission,
		// clone-in, wire parse and serialization, shards.
		Name: "serve_mixed",
		Designs: []designSpec{
			{suiteISPD, "fft_a", 0.01},
			{suiteISPD, "pci_bridge32_b", 0.01},
			{suiteContest, "pci_bridge32_b_md2", 0.01},
		},
		Scaling: designSpec{suiteISPD, "pci_bridge32_b", 0.02},
		Serve:   &defaultMix,
	},
}

// scalingSizes is the scaling instance at its scale and at twice that.
func (w workload) scalingSizes() [2]designSpec {
	large := w.Scaling
	large.Scale *= 2
	return [2]designSpec{w.Scaling, large}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input is one generated design as the program receives it.
type input struct {
	Spec       designSpec
	Cells      int
	Density    float64
	HPWLBefore int64
	Bytes      []byte
}

// generate builds w's instance of spec with the in-repo generator and
// serializes it. The generator's own seed fixes the instance (fences,
// GP clusters, library). On a batch workload seed then moves every
// movable cell's GP position by up to ±3 sites and ±1 row: a fresh
// generator seed would redraw the clusters, which changes local
// utilization — and with it MGL time by up to 15x and displacement by
// 2x — between seeds; the jitter varies the concrete problem while
// holding local utilization fixed. The serve workload keeps the fixed
// instances and its seed draws the request order instead: on designs
// of a few hundred cells the jitter alone moves legalization time and
// quality by up to 30%.
func (w workload) generate(spec designSpec, seed int64) (input, error) {
	var d *mclegal.Design
	switch spec.Suite {
	case suiteContest:
		b, ok := findBench(mclegal.ContestBenches(), spec.Bench)
		if !ok {
			return input{}, fmt.Errorf("no contest bench %q", spec.Bench)
		}
		d = mclegal.ContestDesign(b, spec.Scale)
	case suiteISPD:
		b, ok := findBench(mclegal.ISPDBenches(), spec.Bench)
		if !ok {
			return input{}, fmt.Errorf("no ISPD bench %q", spec.Bench)
		}
		d = mclegal.ISPDDesign(b, spec.Scale)
	default:
		return input{}, fmt.Errorf("unknown suite %q", spec.Suite)
	}
	if w.Serve == nil {
		h := fnv.New64a()
		fmt.Fprint(h, spec)
		jitterGP(d, rand.New(rand.NewSource(seed^int64(h.Sum64()))))
	}

	var buf bytes.Buffer
	if err := mclegal.WriteDesign(&buf, d); err != nil {
		return input{}, fmt.Errorf("%v: write: %w", spec, err)
	}
	return input{
		Spec:       spec,
		Cells:      d.MovableCount(),
		Density:    density(d),
		HPWLBefore: mclegal.HPWL(d),
		Bytes:      buf.Bytes(),
	}, nil
}

func findBench(list []mclegal.Bench, name string) (mclegal.Bench, bool) {
	for _, b := range list {
		if b.Name == name {
			return b, true
		}
	}
	return mclegal.Bench{}, false
}

// jitterGP moves every movable cell's GP (and initial) position by a
// uniform offset in [-3,3] sites and [-1,1] rows, clamped to the core.
func jitterGP(d *mclegal.Design, rng *rand.Rand) {
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed {
			continue
		}
		ct := &d.Types[c.Type]
		c.GX = min(max(c.GX+rng.Intn(7)-3, 0), d.Tech.NumSites-ct.Width)
		c.GY = min(max(c.GY+rng.Intn(3)-1, 0), d.Tech.NumRows-ct.Height)
		c.X, c.Y = c.GX, c.GY
	}
}

// density is movable cell area over core area.
func density(d *mclegal.Design) float64 {
	var area int64
	for i := range d.Cells {
		if !d.Cells[i].Fixed {
			ct := &d.Types[d.Cells[i].Type]
			area += int64(ct.Width) * int64(ct.Height)
		}
	}
	return float64(area) / float64(int64(d.Tech.NumSites)*int64(d.Tech.NumRows))
}

// inputs builds w's designs in order.
func (w workload) inputs(seed int64) ([]input, error) {
	ins := make([]input, len(w.Designs))
	for i, s := range w.Designs {
		in, err := w.generate(s, seed)
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

// timedSetup runs setup at least five times, and on until about three
// seconds have gone into it or it has run 100 times, each time from a
// collected heap, and returns the last result with the median duration
// in seconds. Every repetition but the last is torn down with release.
func timedSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last, zero T
	var durs []float64
	for len(durs) < 5 || len(durs) < 100 && sum(durs) < 3 {
		if len(durs) > 0 {
			release(last)
		}
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		durs = append(durs, time.Since(t0).Seconds())
		last = v
	}
	return last, median(durs), nil
}
