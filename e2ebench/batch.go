package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mclegal"
)

// libraryOp legalizes one input through the library facade, from .mcl
// bytes in to .mcl bytes out, and returns the elapsed seconds with the
// checked output's fingerprint.
func libraryOp(ctx context.Context, cfg config, in input) (float64, fingerprint, error) {
	t0 := time.Now()
	d, err := mclegal.ReadDesign(bytes.NewReader(in.Bytes))
	if err != nil {
		return 0, fingerprint{}, fmt.Errorf("%v: read: %w", in.Spec, err)
	}
	res, err := cfg.legalize(ctx, d, in.Spec.options())
	if err != nil {
		return 0, fingerprint{}, fmt.Errorf("%v: legalize: %w", in.Spec, err)
	}
	var buf bytes.Buffer
	if err := mclegal.WriteDesign(&buf, d); err != nil {
		return 0, fingerprint{}, fmt.Errorf("%v: write: %w", in.Spec, err)
	}
	secs := time.Since(t0).Seconds()

	fp, err := outputFingerprint(in, d, res.Status, buf.Bytes(), resultCounters(res))
	if err == nil && fp.Quality.ContestScore != res.Score {
		err = fmt.Errorf("%v: score %g of the written output differs from the run's %g",
			in.Spec, fp.Quality.ContestScore, res.Score)
	}
	return secs, fp, err
}

// outputFingerprint checks a legalized design and its written bytes
// and fingerprints the re-parsed output.
func outputFingerprint(in input, d *mclegal.Design, status mclegal.RunStatus, out []byte, c counters) (fingerprint, error) {
	back, err := checkOutput(d, status, out)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprint{
		Design:    in.Spec.String(),
		Placement: placementHash(back),
		Counters:  c,
		Quality:   measureQuality(back, in.HPWLBefore),
	}, nil
}

// pin stores fp in *slot on first use and afterwards fails unless fp
// equals it: every repetition of a design must reproduce its result.
func pin(slot **fingerprint, fp fingerprint) error {
	if *slot == nil {
		*slot = &fp
		return nil
	}
	if **slot != fp {
		return fmt.Errorf("%s: result differs between repetitions: %+v vs %+v", fp.Design, **slot, fp)
	}
	return nil
}

// rounds calls op for every input in turn, round after round, until
// the deadline passes; the first round always completes. Each op
// starts from a collected heap, as a fresh CLI invocation does, so the
// previous op's garbage is not charged to it.
func rounds(n int, deadline time.Time, op func(i int)) {
	for round := 0; ; round++ {
		for i := 0; i < n; i++ {
			if round > 0 && !time.Now().Before(deadline) {
				return
			}
			runtime.GC()
			op(i)
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// runBatch is the untraced run of a batch workload.
func runBatch(ctx context.Context, cfg config, rep *report) error {
	w := cfg.Workload
	ins, setupS, err := timedSetup(func() ([]input, error) { return w.inputs(cfg.Seed) }, func([]input) {})
	if err != nil {
		return err
	}
	rep.Inputs = ins
	rep.linef("rss_after_setup_mb %.3f", peakRSSMB())

	lat := make([][]float64, len(ins))
	fps := make([]*fingerprint, len(ins))
	rounds(len(ins), time.Now().Add(cfg.Seconds), func(i int) {
		secs, fp, err := libraryOp(ctx, cfg, ins[i])
		if err == nil {
			err = pin(&fps[i], fp)
		}
		rep.Tally.add(err)
		if err == nil {
			lat[i] = append(lat[i], secs)
		}
	})

	var medians []float64
	var cells float64
	for i, l := range lat {
		if len(l) == 0 {
			continue
		}
		medians = append(medians, median(l))
		cells += float64(ins[i].Cells)
		rep.linef("latency %s n=%d median_s=%.4f min_s=%.4f max_s=%.4f",
			ins[i].Spec, len(l), median(l), percentile(l, 0), percentile(l, 100))
	}
	rep.set("setup_s", setupS, "s")
	rep.set("cells_per_s", ratio(cells, sum(medians)), "cells/s")
	rep.set("req_per_s", ratio(float64(len(medians)), sum(medians)), "1/s")
	rep.set("req_p50_ms", 1e3*median(medians), "ms")
	rep.set("req_p95_ms", 1e3*percentile(medians, 95), "ms")
	setQuality(rep, fps)
	return nil
}

// setQuality reports the workload's quality metrics over its
// fingerprinted outputs and records the fingerprints.
func setQuality(rep *report, fps []*fingerprint) {
	var avg, tail, hpwl, score []float64
	var total float64
	viol := 0
	for _, fp := range fps {
		if fp == nil {
			continue
		}
		rep.Fingerprints = append(rep.Fingerprints, *fp)
		q := fp.Quality
		avg = append(avg, q.AvgDispRows)
		tail = append(tail, q.TailDispRows)
		hpwl = append(hpwl, q.HPWLDeltaPct)
		score = append(score, q.ContestScore)
		total += q.TotalDispSites
		viol += q.Violations
	}
	rep.set("avg_disp_rows", mean(avg), "rows")
	rep.set("tail_disp_rows", mean(tail), "rows")
	rep.set("total_disp_sites", total, "sites")
	rep.set("hpwl_delta_pct", mean(hpwl), "%")
	rep.set("contest_score", mean(score), "score")
	rep.linef("violations %d", viol)
}
