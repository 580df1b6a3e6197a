// Command e2ebench is mclegal's end-to-end legalization benchmark. It
// generates a workload's designs from a seed, legalizes them through
// the library facade or an in-process mclegald, checks every output,
// and prints the end-to-end metrics; with -trace 1 it instead calls
// each layer itself, records spans around those calls and prints the
// per-layer metrics. See README.md.
//
// Usage:
//
//	e2ebench --workload contest_dense|ispd_sparse|serve_mixed \
//	    --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every operation passed its checks.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mclegal"
)

// config is one invocation's settings.
type config struct {
	Workload workload
	Seed     int64
	Seconds  time.Duration
	Trace    bool
	// SpansPath receives the traced run's spans; empty skips writing.
	SpansPath string
	// legalize is the library entry point batch operations call.
	legalize func(context.Context, *mclegal.Design, mclegal.Options) (mclegal.Result, error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produces.
type report struct {
	Metrics      map[string]metric
	Tally        tally
	Inputs       []input
	Fingerprints []fingerprint
	// Lines are human-readable findings printed before the result.
	Lines []string
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// correct is true when operations ran and every one passed its checks.
func (r *report) correct() bool { return r.Tally.failed == 0 && r.Tally.attempted > 0 }

func (r *report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	spans := fs.String("spans", "", "traced run's span file (default .bench_build/spans/<workload>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{
		Workload:  w,
		Seed:      *seed,
		Seconds:   time.Duration(*secs * float64(time.Second)),
		Trace:     *trace == 1,
		SpansPath: *spans,
		legalize:  mclegal.LegalizeContext,
	}
	if cfg.Trace && cfg.SpansPath == "" {
		cfg.SpansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", w.Name, cfg.Seed))
	}

	rep, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	printReport(stdout, cfg, rep)
	for _, e := range rep.Tally.errs {
		fmt.Fprintln(stderr, "e2ebench: check failed:", e)
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

// execute runs the configured workload, traced or not.
func execute(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	var err error
	switch {
	case cfg.Trace:
		err = runTraced(ctx, cfg, rep)
	case cfg.Workload.Serve != nil:
		err = runServe(ctx, cfg, rep)
	default:
		err = runBatch(ctx, cfg, rep)
	}
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	return rep, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// printReport writes provenance, fingerprints, findings and a metric
// table, then the JSON result as the last line.
func printReport(out io.Writer, cfg config, rep *report) {
	bw := bufio.NewWriter(out)
	defer bw.Flush()
	emit := func(tag string, v any) {
		b, _ := json.Marshal(v) // plain structs and maps of numbers and strings
		if tag != "" {
			fmt.Fprintf(bw, "%s ", tag)
		}
		fmt.Fprintf(bw, "%s\n", b)
	}
	emit("provenance", map[string]any{
		"workload":   cfg.Workload.Name,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds.Seconds(),
		"trace":      cfg.Trace,
		"numcpu":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	})
	for _, in := range rep.Inputs {
		emit("design", map[string]any{
			"name": in.Spec.String(), "suite": in.Spec.Suite,
			"cells": in.Cells, "density": in.Density, "bytes": len(in.Bytes),
		})
	}
	for _, fp := range rep.Fingerprints {
		emit("fingerprint", fp)
	}
	for _, l := range rep.Lines {
		fmt.Fprintln(bw, l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(bw, "metric %-26s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Fprintf(bw, "fail_rate %d/%d\n", rep.Tally.failed, rep.Tally.attempted)
	emit("", result{
		Correct:   rep.correct(),
		Attempted: rep.Tally.attempted,
		Failed:    rep.Tally.failed,
		Metrics:   rep.Metrics,
	})
}

// peakRSSMB is the process's high-water resident set size (VmHWM),
// falling back to the Go runtime's total obtained memory where /proc
// is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
