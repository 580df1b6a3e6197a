package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"mclegal"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// against: the metric names and units each mode must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// tiny shrinks w's designs to a few hundred cells each.
func tiny(w workload) workload {
	switch w.Name {
	case "contest_dense":
		w.Designs = []designSpec{{suiteContest, "pci_bridge32_a_md2", 0.01}}
		w.Scaling = w.Designs[0]
	case "ispd_sparse":
		w.Designs = []designSpec{{suiteISPD, "fft_a", 0.01}, {suiteISPD, "pci_bridge32_b", 0.01}}
		w.Scaling = designSpec{suiteISPD, "pci_bridge32_b", 0.02}
	}
	return w
}

// lastResult prints rep and decodes the result line.
func lastResult(t *testing.T, cfg config, rep *report) result {
	t.Helper()
	var out bytes.Buffer
	printReport(&out, cfg, rep)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if _, ok := workloadByName(w.Name); !ok || workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloads[i].Name)
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each run passes its checks and prints every metric
// BENCHMARK.json names for its mode, finite and with that unit.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			cfg := config{
				Workload: tiny(w), Seed: 3, Seconds: 200 * time.Millisecond, Trace: traced,
				legalize: mclegal.LegalizeContext,
			}
			if traced {
				cfg.SpansPath = t.TempDir() + "/spans.json"
			}
			rep, err := execute(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			r := lastResult(t, cfg, rep)
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, r.Correct, r.Attempted, r.Failed, rep.Tally.errs)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestOverlapCountsAsFailure legalizes normally, then stacks one cell
// on another before the output is written: every operation must count
// as failed and the run as incorrect.
func TestOverlapCountsAsFailure(t *testing.T) {
	w, _ := workloadByName("ispd_sparse")
	cfg := config{
		Workload: tiny(w), Seed: 5, Seconds: time.Millisecond,
		legalize: func(ctx context.Context, d *mclegal.Design, opt mclegal.Options) (mclegal.Result, error) {
			res, err := mclegal.LegalizeContext(ctx, d, opt)
			var movable []int
			for i := range d.Cells {
				if !d.Cells[i].Fixed && len(movable) < 2 {
					movable = append(movable, i)
				}
			}
			a, b := &d.Cells[movable[0]], &d.Cells[movable[1]]
			b.X, b.Y = a.X, a.Y
			return res, err
		},
	}
	rep, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := lastResult(t, cfg, rep)
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Fatalf("overlapped outputs: correct=%v attempted=%d failed=%d, want every operation failed",
			r.Correct, r.Attempted, r.Failed)
	}
	if !strings.Contains(rep.Tally.errs[0].Error(), "audit found") {
		t.Errorf("failure %q is not the audit's", rep.Tally.errs[0])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nonesuch"},
		{"--workload", "ispd_sparse", "--trace", "2"},
		{"--workload", "ispd_sparse", "--seconds", "0"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed a result: %q", out.String())
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
	if got := percentile(xs, 40); got != 2 {
		t.Errorf("p40 = %v, want 2", got)
	}
}
