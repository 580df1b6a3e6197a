package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"mclegal"
	"mclegal/internal/bmark"
	"mclegal/internal/eval"
	"mclegal/internal/flow"
	"mclegal/internal/seg"
	"mclegal/internal/shard"
	"mclegal/internal/stage"
)

// spanHeader carries the client span id to the handler wrapper.
const spanHeader = "X-E2ebench-Span"

// span is one timed call into a layer. Spans stay in memory until the
// run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	On     string  `json:"on,omitempty"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
	Alloc  uint64  `json:"alloc_bytes"`
	closed bool
}

// recorder collects spans. Each boundary reads the clock and the
// runtime's allocation counters; the clock is read inside the memory
// statistics so their stop-the-world pause stays outside the span.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) start(name, on string, parent int) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Name: name, On: on,
		Start: float64(now.Nanoseconds()) / 1e3, Alloc: ms.TotalAlloc,
	})
	return len(r.spans) - 1
}

// end closes span id and returns its duration and the bytes allocated
// process-wide while it was open.
func (r *recorder) end(id int) (time.Duration, uint64) {
	now := time.Since(r.origin)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.Dur = float64(now.Nanoseconds())/1e3 - s.Start
	s.Alloc = ms.TotalAlloc - s.Alloc
	s.closed = true
	return time.Duration(s.Dur * 1e3), s.Alloc
}

// wrap times the server's public handler: each request becomes a
// serve.handler span under the client span named by spanHeader.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id := r.start("serve.handler", req.URL.Path, parent)
		h.ServeHTTP(w, req)
		r.end(id)
	})
}

// handlerSecs maps client span ids to the duration of the handler
// span under them.
func (r *recorder) handlerSecs() map[int]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int]float64)
	for _, s := range r.spans {
		if s.Name == "serve.handler" && s.Parent >= 0 && s.closed {
			out[s.Parent] = s.Dur / 1e6
		}
	}
	return out
}

// heapSampler tracks the largest live-plus-unswept heap (HeapAlloc)
// seen by a goroutine reading runtime/metrics, which does not stop the
// world, every few milliseconds.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func sampleHeap(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	done := h.done
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampling, waits for the sampler and returns the peak
// in bytes. Later calls return the same peak.
func (h *heapSampler) stop() uint64 {
	if h.done != nil {
		close(h.done)
		h.done = nil
		h.wg.Wait()
	}
	return h.peak
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedOp is one layer-by-layer legalization of an input.
type tracedOp struct {
	total  float64            // seconds, bytes in to bytes out
	layer  map[string]float64 // seconds per layer
	alloc  map[string]float64 // bytes allocated per layer
	audit  float64            // seconds in eval.Audit, outside the op
	solveS float64            // refine's simplex seconds
	fp     fingerprint
}

// traceOp runs the pipeline the way flow.RunContext does for an
// ungated monolithic run, calling each layer itself under a span:
// bmark.Read, stage.NewContext, Stage.Run for each of flow.Stages, the
// eval/route scoring, bmark.Write. The audit and re-parse checks
// follow outside the op span.
func traceOp(ctx context.Context, rec *recorder, in input) (tracedOp, error) {
	name := in.Spec.String()
	op := tracedOp{layer: map[string]float64{}, alloc: map[string]float64{}}
	root := rec.start("op", name, -1)
	step := func(layer string, f func() error) error {
		id := rec.start(layer, name, root)
		err := f()
		d, a := rec.end(id)
		op.layer[layer] += d.Seconds()
		op.alloc[layer] += float64(a)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", name, layer, err)
		}
		return nil
	}

	var d *mclegal.Design
	opt := in.Spec.options()
	var pc *stage.PipelineContext
	var hpwlBefore int64
	var score float64
	var buf bytes.Buffer
	err := step("bmark.read", func() (err error) {
		d, err = bmark.Read(bytes.NewReader(in.Bytes))
		return err
	})
	if err == nil {
		err = opt.Validate()
	}
	if err == nil {
		err = step("stage.new_context", func() (err error) {
			if err := d.Validate(); err != nil {
				return err
			}
			pc, err = stage.NewContext(d, opt.Routability)
			return err
		})
	}
	if err == nil {
		err = step("eval.score", func() error {
			hpwlBefore = eval.HPWL(d)
			return nil
		})
	}
	if err == nil {
		for _, st := range flow.Stages(d, opt) {
			if err = step(st.Name(), func() error { return st.Run(ctx, pc) }); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = step("eval.score", func() error {
			v := pc.Checker.Count()
			score = eval.Score(eval.ScoreInput{
				Metrics:        eval.Measure(d),
				HPWLBefore:     hpwlBefore,
				HPWLAfter:      eval.HPWL(d),
				PinViolations:  v.Pin(),
				EdgeViolations: v.EdgeSpacing,
				Cells:          d.MovableCount(),
			})
			return nil
		})
	}
	if err == nil {
		err = step("bmark.write", func() error { return bmark.Write(&buf, d) })
	}
	total, _ := rec.end(root)
	op.total = total.Seconds()
	if err != nil {
		return op, err
	}

	id := rec.start("eval.audit", name, -1)
	var vs []eval.Violation
	grid, err := seg.Build(d)
	if err == nil {
		vs = eval.Audit(d, grid)
	}
	dur, _ := rec.end(id)
	op.audit = dur.Seconds()
	if err != nil {
		return op, fmt.Errorf("%s: audit: %w", name, err)
	}
	if len(vs) > 0 {
		return op, fmt.Errorf("%s: audit found %d violations, first: %s", name, len(vs), vs[0])
	}
	back, err := reparseSame(d, buf.Bytes())
	if err != nil {
		return op, err
	}
	op.solveS = float64(pc.RefineReport.SolveNs) / 1e9
	op.fp = fingerprint{
		Design:    name,
		Placement: placementHash(back),
		Counters: resultCounters(mclegal.Result{
			MGLStats: pc.MGLStats, MaxDispStats: pc.MaxDispStats, RefineReport: pc.RefineReport,
		}),
		Quality: measureQuality(back, in.HPWLBefore),
	}
	if op.fp.Quality.ContestScore != score {
		return op, fmt.Errorf("%s: score %g of the written output differs from the run's %g",
			name, op.fp.Quality.ContestScore, score)
	}
	return op, nil
}

// runTraced is the per-layer run: the serve layer with direct probes
// of the gate, clone and shard layers, then paired rounds until the
// deadline. Each round runs every design, and both sizes of the
// workload's scaling instance, once through the untraced library
// facade and once layer by layer under spans, each from a collected
// heap, alternating which goes first from round to round. Every result
// must reproduce the design's first library fingerprint.
func runTraced(ctx context.Context, cfg config, rep *report) error {
	w := cfg.Workload
	ins, _, err := timedSetup(func() ([]input, error) { return w.inputs(cfg.Seed) }, func([]input) {})
	if err != nil {
		return err
	}
	rep.Inputs = ins
	deadline := time.Now().Add(cfg.Seconds)
	rec := newRecorder()
	heap := sampleHeap(2 * time.Millisecond)
	defer heap.stop()

	if err := traceServe(ctx, cfg, rep, rec, ins); err != nil {
		return err
	}

	items := append([]input(nil), ins...)
	var scaling [2]int // items' indices of the scaling instance's two sizes
	for k, spec := range w.scalingSizes() {
		scaling[k] = -1
		for i, in := range items {
			if in.Spec == spec {
				scaling[k] = i
			}
		}
		if scaling[k] < 0 {
			in, err := w.generate(spec, cfg.Seed)
			if err != nil {
				return err
			}
			items = append(items, in)
			scaling[k] = len(items) - 1
		}
	}

	plain := make([][]float64, len(items))
	ops := make([][]tracedOp, len(items))
	ref := make([]*fingerprint, len(items))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, in := range items {
			for k := 0; k < 2; k++ {
				runtime.GC()
				if k == round%2 {
					secs, fp, err := libraryOp(ctx, cfg, in)
					if err == nil {
						err = pin(&ref[i], fp)
					}
					rep.Tally.add(err)
					if err == nil {
						plain[i] = append(plain[i], secs)
					}
					continue
				}
				op, err := traceOp(ctx, rec, in)
				if err == nil {
					err = pin(&ref[i], op.fp)
				}
				rep.Tally.add(err)
				if err == nil {
					ops[i] = append(ops[i], op)
				}
			}
		}
	}
	for i := range ins {
		if ref[i] != nil {
			rep.Fingerprints = append(rep.Fingerprints, *ref[i])
		}
	}

	rep.set("mgl.scaling_exp", scalingExp(rep, items, ops, scaling), "1")
	setLayerMetrics(rep, ins, ops[:len(ins)], plain[:len(ins)])

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("go.gc_cpu_frac", ms.GCCPUFraction, "1")
	rep.set("go.heap_peak_mb", float64(heap.stop())/(1<<20), "MB")
	if cfg.SpansPath != "" {
		if err := rec.write(cfg.SpansPath); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		rep.linef("spans %s", cfg.SpansPath)
	}
	return nil
}

// medianOver is the median over one input's traced ops of f.
func medianOver(ops []tracedOp, f func(tracedOp) float64) float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = f(op)
	}
	return median(xs)
}

// setLayerMetrics derives the per-layer metrics: times are per round
// (summed over the workload's designs, each at its median), counters
// are the deterministic per-round totals. plain holds each design's
// untraced library times from the same rounds.
func setLayerMetrics(rep *report, ins []input, ops [][]tracedOp, plain [][]float64) {
	perRound := func(f func(tracedOp) float64) float64 {
		var t float64
		for i := range ins {
			t += medianOver(ops[i], f)
		}
		return t
	}
	layer := func(l string) float64 { return perRound(func(op tracedOp) float64 { return op.layer[l] }) }
	allocMB := func(ls ...string) float64 {
		return perRound(func(op tracedOp) float64 {
			var a float64
			for _, l := range ls {
				a += op.alloc[l]
			}
			return a
		}) / (1 << 20)
	}
	var c counters
	var cells, mbytes, viol float64
	for i, in := range ins {
		if len(ops[i]) == 0 {
			continue
		}
		k := ops[i][0].fp.Counters
		c.MGLPlaced += k.MGLPlaced
		c.MGLRetries += k.MGLRetries
		c.MGLBatches += k.MGLBatches
		c.MaxDispGroups += k.MaxDispGroups
		c.MaxDispSwapped += k.MaxDispSwapped
		c.PhiBefore += k.PhiBefore
		c.PhiAfter += k.PhiAfter
		c.RefineArcs += k.RefineArcs
		c.RefinePivots += k.RefinePivots
		c.RefineMoved += k.RefineMoved
		cells += float64(in.Cells)
		mbytes += float64(len(in.Bytes)) / 1e6
		viol += float64(ops[i][0].fp.Quality.Violations)
	}
	total := perRound(func(op tracedOp) float64 { return op.total })
	var untraced float64
	for i := range ins {
		untraced += median(plain[i])
	}
	mgl, maxd, ref := layer(stage.NameMGL), layer(stage.NameMaxDisp), layer(stage.NameRefine)

	rep.set("bmark.read_s", layer("bmark.read"), "s")
	rep.set("bmark.read_mb_per_s", ratio(mbytes, layer("bmark.read")), "MB/s")
	rep.set("bmark.write_s", layer("bmark.write"), "s")
	rep.set("bmark.alloc_mb", allocMB("bmark.read", "bmark.write"), "MB")
	rep.set("stage.new_context_s", layer("stage.new_context"), "s")
	rep.set("mgl.s", mgl, "s")
	rep.set("mgl.cells_per_s", ratio(cells, mgl), "cells/s")
	rep.set("mgl.window_retries", float64(c.MGLRetries), "count")
	rep.set("mgl.retries_per_cell", ratio(float64(c.MGLRetries), cells), "1")
	rep.set("mgl.batches", float64(c.MGLBatches), "count")
	rep.set("mgl.cells_per_batch", ratio(float64(c.MGLPlaced), float64(c.MGLBatches)), "cells")
	rep.set("mgl.alloc_mb", allocMB(stage.NameMGL), "MB")
	rep.set("mgl.self_share", ratio(mgl, total), "1")
	rep.set("maxdisp.s", maxd, "s")
	rep.set("maxdisp.groups", float64(c.MaxDispGroups), "count")
	rep.set("maxdisp.swapped", float64(c.MaxDispSwapped), "count")
	rep.set("maxdisp.phi_ratio", ratio(float64(c.PhiAfter), float64(c.PhiBefore)), "1")
	rep.set("maxdisp.self_share", ratio(maxd, total), "1")
	rep.set("refine.s", ref, "s")
	rep.set("refine.solve_s", perRound(func(op tracedOp) float64 { return op.solveS }), "s")
	rep.set("refine.pivots", float64(c.RefinePivots), "count")
	rep.set("refine.arcs", float64(c.RefineArcs), "count")
	rep.set("refine.pivots_per_arc", ratio(float64(c.RefinePivots), float64(c.RefineArcs)), "1")
	rep.set("refine.moved", float64(c.RefineMoved), "count")
	rep.set("refine.self_share", ratio(ref, total), "1")
	rep.set("eval.score_s", layer("eval.score"), "s")
	rep.set("eval.audit_s", perRound(func(op tracedOp) float64 { return op.audit }), "s")
	rep.set("route.violations", viol, "count")
	rep.set("trace.overhead_pct", 100*ratio(total-untraced, untraced), "%")

	// Self time: the layer spans are leaves, so a layer's self time is
	// its duration and the op span keeps what the harness spent
	// between calls.
	names := []string{"bmark.read", "stage.new_context", stage.NameMGL, stage.NameMaxDisp,
		stage.NameRefine, "eval.score", "bmark.write"}
	covered := 0.0
	for _, l := range names {
		t := layer(l)
		covered += t
		rep.linef("self %-18s %10.4fs %6.2f%%", l, t, 100*ratio(t, total))
	}
	rep.linef("self %-18s %10.4fs %6.2f%%", "harness", total-covered, 100*ratio(total-covered, total))
	for i, in := range ins {
		rep.linef("traced %s ops=%d median_s=%.4f library_ops=%d library_median_s=%.4f", in.Spec, len(ops[i]),
			medianOver(ops[i], func(op tracedOp) float64 { return op.total }), len(plain[i]), median(plain[i]))
	}
}

// scalingExp fits MGL time ~ cells^k through the median traced MGL
// times of the scaling instance's two sizes, items[idx[0]] and
// items[idx[1]].
func scalingExp(rep *report, items []input, ops [][]tracedOp, idx [2]int) float64 {
	var cells, secs [2]float64
	for k, i := range idx {
		cells[k] = float64(items[i].Cells)
		secs[k] = medianOver(ops[i], func(op tracedOp) float64 { return op.layer[stage.NameMGL] })
	}
	rep.linef("scaling %v ops=%d cells=%.0f mgl_s=%.4f; %v ops=%d cells=%.0f mgl_s=%.4f",
		items[idx[0]].Spec, len(ops[idx[0]]), cells[0], secs[0], items[idx[1]].Spec, len(ops[idx[1]]), cells[1], secs[1])
	if secs[0] <= 0 || secs[1] <= 0 || cells[1] <= cells[0] {
		return 0
	}
	return math.Log(secs[1]/secs[0]) / math.Log(cells[1]/cells[0])
}

// gatedOptions mirrors the server's run options for in's suite.
func gatedOptions(in input, shards int) mclegal.Options {
	opt := in.Spec.options()
	opt.Workers = 1
	opt.Verify = true
	opt.Recovery = mclegal.RecoverFallback
	opt.Shards = shards
	return opt
}

// directRun legalizes in through the library with opt, three times or
// for about a second, whichever ends first, and returns the median
// seconds of the run alone, the last result and the output placement
// hash.
func directRun(ctx context.Context, in input, opt mclegal.Options) (float64, mclegal.Result, string, error) {
	var secs []float64
	var res mclegal.Result
	var hash string
	for len(secs) < 3 && sum(secs) < 1 {
		d, err := mclegal.ReadDesign(bytes.NewReader(in.Bytes))
		if err != nil {
			return 0, res, "", err
		}
		t0 := time.Now()
		res, err = mclegal.LegalizeContext(ctx, d, opt)
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return 0, res, "", fmt.Errorf("%v: %w", in.Spec, err)
		}
		if res.Status != mclegal.StatusLegal {
			return 0, res, "", fmt.Errorf("%v: run status %s, want legal", in.Spec, res.Status)
		}
		if err := auditClean(d); err != nil {
			return 0, res, "", err
		}
		hash = placementHash(d)
	}
	return median(secs), res, hash, nil
}

// traceServe measures the serve, model, gate and shard layers. The
// serve workload runs its closed loop on ins for half the run. A batch
// workload sends one request of each class, one client, about the
// serve workload's designs: the serve-layer metrics belong to that
// workload, and its designs keep the probe well under a second. Direct
// library runs with the server's options give each class's pipeline
// time, so handler time minus it is the non-stage time, and every
// response must match its direct run's placement.
func traceServe(ctx context.Context, cfg config, rep *report, rec *recorder, ins []input) error {
	mix, perClient, loopEnd := serveMix{Clients: 1, Deck: defaultMix.Deck}, len(defaultMix.Deck), time.Time{}
	if w := cfg.Workload; w.Serve != nil {
		mix, perClient = *w.Serve, 0
		loopEnd = time.Now().Add(cfg.Seconds / 2)
	} else {
		sw, _ := workloadByName("serve_mixed")
		var err error
		if ins, err = sw.inputs(cfg.Seed); err != nil {
			return err
		}
	}
	roles := [3]input{ins[0], ins[1], ins[2]}
	env, err := startServe(roles, rec)
	if err != nil {
		return err
	}
	logs := env.loop(ctx, mix, cfg.Seed, loopEnd, perClient)
	env.close()
	fps := env.validate(logs, &rep.Tally)

	// Direct runs of every legalize class's pipeline.
	var direct [numClasses]float64
	var sharded mclegal.Result
	for c := classUpload; c <= classFenced; c++ {
		if fps[c] == nil {
			continue
		}
		in := env.roleInput(c)
		shards := 0
		if c == classSharded {
			shards = 2
		}
		secs, res, hash, err := directRun(ctx, in, gatedOptions(in, shards))
		if err == nil && hash != fps[c].Placement {
			err = fmt.Errorf("%s: server placement %s differs from the library's %s", c, fps[c].Placement, hash)
		}
		rep.Tally.add(err)
		direct[c] = secs
		if c == classSharded {
			sharded = res
		}
		rep.Fingerprints = append(rep.Fingerprints, *fps[c])
	}

	// Handler and wire time per request class.
	handler := rec.handlerSecs()
	var all [3][]float64 // handler, wire, non-stage
	rejected := 0
	for _, l := range logs {
		for _, s := range l.samples {
			var se *statusError
			if errors.As(s.err, &se) && se.code == http.StatusTooManyRequests {
				rejected++
			}
		}
	}
	for c := reqClass(0); c < numClasses; c++ {
		var cls [4][]float64 // client, handler, wire, non-stage
		for _, l := range logs {
			for _, s := range l.samples {
				h, ok := handler[s.span]
				if s.class != c || !ok {
					continue
				}
				for k, v := range []float64{s.secs, h, s.secs - h, h - direct[c]} {
					cls[k] = append(cls[k], 1e3*v)
				}
			}
		}
		if len(cls[0]) == 0 {
			continue
		}
		for k := range all {
			all[k] = append(all[k], cls[k+1]...)
		}
		rep.linef("class %-8s n=%d client_p50_ms=%.3f handler_p50_ms=%.3f wire_p50_ms=%.3f nonstage_p50_ms=%.3f pipeline_ms=%.3f",
			c, len(cls[0]), median(cls[0]), median(cls[1]), median(cls[2]), median(cls[3]), 1e3*direct[c])
	}
	rep.set("serve.handler_ms_p50", median(all[0]), "ms")
	rep.set("serve.wire_ms_p50", median(all[1]), "ms")
	rep.set("serve.nonstage_ms_p50", median(all[2]), "ms")
	rep.set("serve.rejected", float64(rejected), "count")

	// Gate cost on the resident design: gated minus ungated pipeline.
	res := roles[1]
	ungated := gatedOptions(res, 0)
	ungated.Verify, ungated.Recovery = false, mclegal.RecoverStrict
	plain, _, _, err := directRun(ctx, res, ungated)
	rep.Tally.add(err)
	rep.set("stage.gate_s", direct[classResident]-plain, "s")

	// Shard critical path: the slowest shard's stage time over the
	// sharded run's total.
	var slowest time.Duration
	for _, sh := range sharded.Shards {
		var t time.Duration
		for _, tm := range sh.Timings {
			t += tm.Duration
		}
		slowest = max(slowest, t)
	}
	rep.set("shard.critical_path_frac", ratio(slowest.Seconds(), sharded.Total.Seconds()), "1")

	d, err := mclegal.ReadDesign(bytes.NewReader(res.Bytes))
	if err != nil {
		return err
	}
	var clone, plan []float64
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		_ = d.Clone()
		clone = append(clone, time.Since(t0).Seconds())
		t0 = time.Now()
		grid, err := seg.Build(d)
		if err != nil {
			return err
		}
		shard.BuildPlan(d, grid, shard.Options{})
		plan = append(plan, time.Since(t0).Seconds())
	}
	rep.set("model.clone_ms", 1e3*median(clone), "ms")
	rep.set("shard.plan_s", median(plan), "s")
	return nil
}
