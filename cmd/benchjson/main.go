// benchjson runs the performance sweeps programmatically (via
// testing.Benchmark) and writes machine-readable trajectory files so
// perf changes can be compared across commits without parsing `go test
// -bench` text output.
//
// Usage:
//
//	benchjson [-out BENCH_mgl.json] [-scale 0.01] [-workers 1,2,4,8]
//	benchjson -mode shard [-out BENCH_shard.json] [-shards 1,2,4]
//	benchjson -mode serve [-out BENCH_serve.json]
//	benchjson -mode mcf [-out BENCH_mcf.json] [-smoke]
//	benchjson -mode vet [-out BENCH_vet.json]
//
// The default mode sweeps MGL worker counts on a fixed instance; the
// shard mode sweeps the shard concurrency of the fence/slab-sharded
// pipeline on a multi-fence instance and records the per-shard
// wall-clock breakdown of the plan; the serve mode profiles the
// legalization server end to end over an in-process HTTP server and
// records per-endpoint request-latency percentiles (p50/p90/p99/max);
// the mcf mode sweeps the min-cost-flow solver layer (pivot rules,
// solver reuse) over the benchmark graph families
// with cross-solver validation (see mcf.go); the vet mode times the
// full fourteen-analyzer mclegal-vet suite over the scoped program and
// records each analyzer's incremental wall time and diagnostic count
// (see vet.go).
//
// The recorded environment (numcpu, per-run gomaxprocs, goversion)
// travels with the numbers: speedup figures are only meaningful
// relative to the machine that produced them, and GOMAXPROCS is read
// at measurement time of every run, not once at startup, so a sweep
// that adjusts it mid-flight cannot misattribute its results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mclegal"
)

type mglRun struct {
	Workers int   `json:"workers"`
	NsPerOp int64 `json:"ns_per_op"`
	// GOMAXPROCS is sampled when this run is measured.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	CellsPerSec float64 `json:"cells_per_sec"`
	SpeedupVsW1 float64 `json:"speedup_vs_w1"`
}

type report struct {
	Bench     string   `json:"bench"`
	Design    string   `json:"design"`
	Scale     float64  `json:"scale"`
	Cells     int      `json:"cells"`
	NumCPU    int      `json:"numcpu"`
	GoVersion string   `json:"goversion"`
	Runs      []mglRun `json:"runs"`
}

// shardDetail is one plan region's share of a sharded run.
type shardDetail struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	// StageNs sums the region's stage durations (its wall-clock work,
	// excluding merge and coordination).
	StageNs int64 `json:"stage_ns"`
}

type shardRun struct {
	Shards      int     `json:"shards"`
	NsPerOp     int64   `json:"ns_per_op"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CellsPerSec float64 `json:"cells_per_sec"`
	SpeedupVsS1 float64 `json:"speedup_vs_s1"`
	// Regions is the plan size (identical across shard counts: the
	// decomposition is a function of the design, not the concurrency).
	Regions int `json:"regions"`
	// SumShardNs and MaxShardNs bound the scaling: the sum is the
	// serial work, the max is the critical path a perfectly parallel
	// run cannot beat.
	SumShardNs int64         `json:"sum_shard_ns"`
	MaxShardNs int64         `json:"max_shard_ns"`
	Detail     []shardDetail `json:"detail"`
}

type shardReport struct {
	Bench     string     `json:"bench"`
	Design    string     `json:"design"`
	Scale     float64    `json:"scale"`
	Cells     int        `json:"cells"`
	NumCPU    int        `json:"numcpu"`
	GoVersion string     `json:"goversion"`
	Runs      []shardRun `json:"runs"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		mode    = fs.String("mode", "mgl", "sweep to run: mgl (worker counts) or shard (shard concurrency)")
		out     = fs.String("out", "", "output file (- for stdout; default BENCH_<mode>.json)")
		scale   = fs.Float64("scale", 0.01, "cell-count scale vs published sizes")
		workers = fs.String("workers", "1,2,4,8", "comma-separated worker counts to sweep (mgl mode)")
		shards  = fs.String("shards", "1,2,4", "comma-separated shard concurrencies to sweep (shard mode)")
		smoke   = fs.Bool("smoke", false, "shrink instances and run a fixed 100 iterations per config (mcf mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log.SetFlags(0)

	var buf []byte
	var summary string
	switch *mode {
	case "mgl":
		if *out == "" {
			*out = "BENCH_mgl.json"
		}
		counts, err := parseCounts(*workers)
		if err != nil {
			log.Printf("-workers: %v", err)
			return 2
		}
		rep := sweepMGL(counts, *scale)
		buf = marshal(rep)
		summary = fmt.Sprintf("%s, %d cells, %d CPUs", rep.Design, rep.Cells, rep.NumCPU)
	case "shard":
		if *out == "" {
			*out = "BENCH_shard.json"
		}
		counts, err := parseCounts(*shards)
		if err != nil {
			log.Printf("-shards: %v", err)
			return 2
		}
		rep := sweepShards(counts, *scale)
		buf = marshal(rep)
		summary = fmt.Sprintf("%s, %d cells, %d CPUs", rep.Design, rep.Cells, rep.NumCPU)
	case "serve":
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		rep := sweepServe(*scale)
		buf = marshal(rep)
		summary = fmt.Sprintf("%s, %d cells, %d CPUs", rep.Design, rep.Cells, rep.NumCPU)
	case "mcf":
		if *out == "" {
			*out = "BENCH_mcf.json"
		}
		rep := sweepMCF(*smoke)
		buf = marshal(rep)
		summary = fmt.Sprintf("%d families, %d CPUs", len(rep.Families), rep.NumCPU)
	case "vet":
		if *out == "" {
			*out = "BENCH_vet.json"
		}
		rep := sweepVet()
		buf = marshal(rep)
		summary = fmt.Sprintf("%d analyzers over %d packages, %d CPUs", len(rep.Runs), rep.Packages, rep.NumCPU)
	default:
		log.Printf("-mode must be mgl, shard, serve, mcf or vet, got %q", *mode)
		return 2
	}

	if *out == "-" {
		stdout.Write(buf)
		return 0
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%s)\n", *out, summary)
	return 0
}

func parseCounts(list string) ([]int, error) {
	var ns []int
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q", f)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func marshal(v any) []byte {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	return append(buf, '\n')
}

// sweepMGL measures the MGL stage across worker counts — the same
// instance as BenchmarkMGLThroughput: fft_a at bench scale, MGL only
// (post-processing excluded from the measurement).
func sweepMGL(ws []int, scale float64) report {
	bench := mclegal.ISPDBenches()[6] // fft_a
	base := mclegal.ISPDDesign(bench, scale)

	rep := report{
		Bench:     "MGLThroughput",
		Design:    bench.Name,
		Scale:     scale,
		Cells:     base.MovableCount(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}

	var nsW1 int64
	for _, w := range ws {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				if _, err := mclegal.Legalize(d, mclegal.Options{
					TotalDisplacement: true, Workers: w,
					SkipMaxDisp: true, SkipRefine: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := r.NsPerOp()
		if nsW1 == 0 {
			// Baseline for the speedup column: the first (serial) run.
			nsW1 = ns
		}
		rr := mglRun{
			Workers:     w,
			NsPerOp:     ns,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			CellsPerSec: float64(rep.Cells) * 1e9 / float64(ns),
			SpeedupVsW1: float64(nsW1) / float64(ns),
		}
		rep.Runs = append(rep.Runs, rr)
		log.Printf("workers=%d (gomaxprocs %d)  %12d ns/op  %8d allocs/op  %10.0f cells/sec  %.2fx",
			w, rr.GOMAXPROCS, rr.NsPerOp, rr.AllocsPerOp, rr.CellsPerSec, rr.SpeedupVsW1)
	}
	return rep
}

// sweepShards measures the sharded pipeline across shard concurrencies
// on the multi-fence shard suite, recording the per-region wall-clock
// breakdown (from an instrumented extra run outside the measurement).
func sweepShards(ss []int, scale float64) shardReport {
	bench := mclegal.ShardBenches()[0] // shard_s
	base := mclegal.ShardDesign(bench, scale)
	// Force a real multi-slab plan even at smoke scales: aim for about
	// four default-region slabs on top of the fence regions.
	plan := mclegal.ShardPlanOptions{
		SlabTargetCells: base.MovableCount()/4 + 1,
		MaxSlabUtil:     0.95,
	}
	opts := func(k int) mclegal.Options {
		return mclegal.Options{Workers: 1, Shards: k, ShardPlan: plan}
	}

	rep := shardReport{
		Bench:     "ShardScaling",
		Design:    bench.Name,
		Scale:     scale,
		Cells:     base.MovableCount(),
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}

	var nsS1 int64
	for _, k := range ss {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := base.Clone()
				if _, err := mclegal.Legalize(d, opts(k)); err != nil {
					b.Fatal(err)
				}
			}
		})
		ns := r.NsPerOp()
		if nsS1 == 0 {
			nsS1 = ns
		}
		rr := shardRun{
			Shards:      k,
			NsPerOp:     ns,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			CellsPerSec: float64(rep.Cells) * 1e9 / float64(ns),
			SpeedupVsS1: float64(nsS1) / float64(ns),
		}
		// Instrumented run for the per-shard breakdown.
		d := base.Clone()
		res, err := mclegal.Legalize(d, opts(k))
		if err != nil {
			log.Fatal(err)
		}
		rr.Regions = len(res.Shards)
		for _, sh := range res.Shards {
			var sum int64
			for _, tm := range sh.Timings {
				sum += tm.Duration.Nanoseconds()
			}
			rr.Detail = append(rr.Detail, shardDetail{Name: sh.Name, Cells: sh.Cells, StageNs: sum})
			rr.SumShardNs += sum
			if sum > rr.MaxShardNs {
				rr.MaxShardNs = sum
			}
		}
		rep.Runs = append(rep.Runs, rr)
		log.Printf("shards=%d (gomaxprocs %d)  %12d ns/op  %10.0f cells/sec  %.2fx  (%d regions, critical path %dms of %dms)",
			k, rr.GOMAXPROCS, rr.NsPerOp, rr.CellsPerSec, rr.SpeedupVsS1,
			rr.Regions, rr.MaxShardNs/1e6, rr.SumShardNs/1e6)
	}
	return rep
}
