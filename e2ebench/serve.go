package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"mclegal"
	"mclegal/internal/serve"
)

// reqClass is one kind of request in the serve mix.
type reqClass int

const (
	classUpload   reqClass = iota // POST /legalize with the upload design as body
	classResident                 // POST /legalize/res
	classSharded                  // POST /legalize/res?shards=2
	classFenced                   // POST /legalize/fenced (routability, fences)
	classEvaluate                 // POST /evaluate/done
	classAudit                    // POST /audit/done
	numClasses
)

var classNames = [numClasses]string{"upload", "resident", "sharded", "fenced", "evaluate", "audit"}

func (c reqClass) String() string { return classNames[c] }

func (c reqClass) legalizes() bool { return c <= classFenced }

// serveMix is a closed-loop request mix: each of Clients works through
// its own seeded shuffles of Deck, sending a request only after the
// previous one has been answered.
type serveMix struct {
	Clients int
	Deck    []reqClass
}

// defaultMix gives every request class the same share: each deck
// holds one request of each class. No record of real mclegald traffic
// exists to draw the shares from, so they follow that rule rather than
// any observed mix.
var defaultMix = serveMix{
	Clients: 2,
	Deck:    []reqClass{classUpload, classResident, classSharded, classFenced, classEvaluate, classAudit},
}

// roleInput is the design each request class works on.
func (e *serveEnv) roleInput(c reqClass) input {
	switch c {
	case classUpload:
		return e.roles[0]
	case classResident, classSharded:
		return e.roles[1]
	default:
		return e.roles[2]
	}
}

// serveEnv is a running in-process mclegald holding the resident
// designs "res" and "fenced", and "done": the fenced design legalized
// during set-up, which evaluate and audit requests score.
type serveEnv struct {
	srv    *httptest.Server
	client *http.Client
	// roles are the upload, resident and fenced inputs.
	roles [3]input
	done  quality
	rec   *recorder
}

// startServe starts the server (with handler spans when rec is set)
// and uploads the resident designs.
func startServe(roles [3]input, rec *recorder) (*serveEnv, error) {
	s := serve.New(serve.Config{Workers: 1, MaxInflight: 4})
	var h http.Handler = s.Handler()
	if rec != nil {
		h = rec.wrap(h)
	}
	e := &serveEnv{srv: httptest.NewServer(h), roles: roles, rec: rec}
	e.client = e.srv.Client()
	if err := e.setup(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *serveEnv) setup() error {
	for _, up := range []struct {
		name string
		in   input
	}{{"res", e.roles[1]}, {"fenced", e.roles[2]}} {
		if _, _, err := e.post(context.Background(), "/designs/"+up.name, up.in.Bytes, -1); err != nil {
			return err
		}
	}
	fenced := e.roles[2]
	body, _, err := e.post(context.Background(), "/legalize/fenced?"+fenced.Spec.query(), nil, -1)
	if err != nil {
		return err
	}
	fp, err := validateBody(fenced, body)
	if err != nil {
		return err
	}
	e.done = fp.Quality
	_, _, err = e.post(context.Background(), "/designs/done", body, -1)
	return err
}

func (e *serveEnv) close() { e.srv.Close() }

// post sends one request and returns the body of a 2xx response. span
// is the client span the handler span hangs under (-1 for none).
func (e *serveEnv) post(ctx context.Context, path string, body []byte, span int) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if span >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("POST %s: read body: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, resp.Header, &statusError{path: path, code: resp.StatusCode, body: string(b)}
	}
	return b, resp.Header, nil
}

type statusError struct {
	path string
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("POST %s: HTTP %d: %.200s", e.path, e.code, e.body)
}

func (e *serveEnv) path(c reqClass) string {
	in := e.roleInput(c)
	switch c {
	case classUpload:
		return "/legalize?" + in.Spec.query()
	case classResident:
		return "/legalize/res?" + in.Spec.query()
	case classSharded:
		return "/legalize/res?shards=2&" + in.Spec.query()
	case classFenced:
		return "/legalize/fenced?" + in.Spec.query()
	case classEvaluate:
		return "/evaluate/done"
	default:
		return "/audit/done"
	}
}

// sample is one answered (or failed) request.
type sample struct {
	class reqClass
	secs  float64
	span  int // client span id; -1 untraced
	hash  uint64
	err   error
}

// clientLog is what one closed-loop client observed; first keeps the
// first 2xx body of every class for validation.
type clientLog struct {
	samples []sample
	first   [numClasses][]byte
}

// loop runs mix's clients until the deadline, or until each has sent
// perClient requests when perClient > 0, and returns their logs.
func (e *serveEnv) loop(ctx context.Context, mix serveMix, seed int64, deadline time.Time, perClient int) []clientLog {
	logs := make([]clientLog, mix.Clients)
	var wg sync.WaitGroup
	for k := range logs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
			var deck []reqClass
			for n := 0; ; n++ {
				if perClient > 0 && n == perClient || perClient == 0 && !time.Now().Before(deadline) {
					return
				}
				if len(deck) == 0 {
					deck = append(deck, mix.Deck...)
					rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
				}
				c := deck[0]
				deck = deck[1:]
				s, body := e.do(ctx, c)
				if s.err == nil && logs[k].first[c] == nil {
					logs[k].first[c] = body
				}
				logs[k].samples = append(logs[k].samples, s)
			}
		}(k)
	}
	wg.Wait()
	return logs
}

// do sends one request of class c, timing it from the client's side.
func (e *serveEnv) do(ctx context.Context, c reqClass) (sample, []byte) {
	s := sample{class: c, span: -1}
	var payload []byte
	if c == classUpload {
		payload = e.roles[0].Bytes
	}
	if e.rec != nil {
		s.span = e.rec.start("serve.request", c.String(), -1)
	}
	t0 := time.Now()
	body, hdr, err := e.post(ctx, e.path(c), payload, s.span)
	s.secs = time.Since(t0).Seconds()
	if e.rec != nil {
		e.rec.end(s.span)
	}
	if err == nil && c.legalizes() {
		if st := hdr.Get("X-Mclegal-Status"); st != mclegal.StatusLegal.String() {
			err = fmt.Errorf("%s: run status %q, want legal", c, st)
		}
	}
	s.err = err
	h := fnv.New64a()
	h.Write(body)
	s.hash = h.Sum64()
	return s, body
}

// validate checks every request of logs: 2xx, a legal run status, a
// body that checks out, and the same body as every other request of
// its class. It returns the legalize classes' output fingerprints.
func (e *serveEnv) validate(logs []clientLog, t *tally) [numClasses]*fingerprint {
	var fps [numClasses]*fingerprint
	var want [numClasses]*uint64
	var bad [numClasses]error
	for _, l := range logs {
		for c, body := range l.first {
			if body == nil || want[c] != nil || bad[c] != nil {
				continue
			}
			fp, err := e.validateClass(reqClass(c), body)
			if err != nil {
				bad[c] = err
				continue
			}
			h := fnv.New64a()
			h.Write(body)
			sum := h.Sum64()
			want[c] = &sum
			if reqClass(c).legalizes() {
				fps[c] = &fp
			}
		}
	}
	for _, l := range logs {
		for _, s := range l.samples {
			err := s.err
			if err == nil && bad[s.class] != nil {
				err = bad[s.class]
			}
			if err == nil && (want[s.class] == nil || *want[s.class] != s.hash) {
				err = fmt.Errorf("%s: response differs from the class's first response", s.class)
			}
			t.add(err)
		}
	}
	return fps
}

func (e *serveEnv) validateClass(c reqClass, body []byte) (fingerprint, error) {
	switch c {
	case classEvaluate:
		var r struct {
			Cells          int     `json:"cells"`
			AvgDispRows    float64 `json:"avg_disp_rows"`
			MaxDispRows    float64 `json:"max_disp_rows"`
			TotalDispSites float64 `json:"total_disp_sites"`
			Score          float64 `json:"score"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fingerprint{}, fmt.Errorf("evaluate: %w", err)
		}
		q := e.done
		if r.Cells != e.roles[2].Cells || r.AvgDispRows != q.AvgDispRows || r.MaxDispRows != q.MaxDispRows ||
			r.TotalDispSites != q.TotalDispSites || r.Score != q.ContestScore {
			return fingerprint{}, fmt.Errorf("evaluate: %s disagrees with the legalized design's %+v", body, q)
		}
		return fingerprint{}, nil
	case classAudit:
		var r struct {
			Legal      bool `json:"legal"`
			Violations int  `json:"violations"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fingerprint{}, fmt.Errorf("audit: %w", err)
		}
		if !r.Legal || r.Violations != 0 {
			return fingerprint{}, fmt.Errorf("audit of the legalized resident design: %s", body)
		}
		return fingerprint{}, nil
	}
	fp, err := validateBody(e.roleInput(c), body)
	fp.Design = c.String() + ":" + fp.Design
	return fp, err
}

// validateBody checks a legalize response: it parses, is audit-clean,
// and serializes back to the same bytes.
func validateBody(in input, body []byte) (fingerprint, error) {
	d, err := mclegal.ReadDesign(bytes.NewReader(body))
	if err != nil {
		return fingerprint{}, fmt.Errorf("%v: parse response: %w", in.Spec, err)
	}
	var buf bytes.Buffer
	if err := mclegal.WriteDesign(&buf, d); err != nil {
		return fingerprint{}, fmt.Errorf("%v: re-write response: %w", in.Spec, err)
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fingerprint{}, fmt.Errorf("%v: response does not round-trip through the parser", in.Spec)
	}
	return outputFingerprint(in, d, mclegal.StatusLegal, body, counters{})
}

// serveSetup generates the workload's designs and starts the server.
func serveSetup(w workload, seed int64, rec *recorder) (*serveEnv, error) {
	ins, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	return startServe([3]input{ins[0], ins[1], ins[2]}, rec)
}

// runServe is the untraced run of the serve workload.
func runServe(ctx context.Context, cfg config, rep *report) error {
	w := cfg.Workload
	env, setupS, err := timedSetup(
		func() (*serveEnv, error) { return serveSetup(w, cfg.Seed, nil) },
		func(e *serveEnv) { e.close() })
	if err != nil {
		return err
	}
	rep.Inputs = env.roles[:]
	rep.linef("rss_after_setup_mb %.3f", peakRSSMB())
	t0 := time.Now()
	logs := env.loop(ctx, *w.Serve, cfg.Seed, t0.Add(cfg.Seconds), 0)
	wall := time.Since(t0).Seconds()
	env.close()

	fps := env.validate(logs, &rep.Tally)
	var lat []float64
	var byClass [numClasses][]float64
	var cells float64
	for _, l := range logs {
		for _, s := range l.samples {
			lat = append(lat, s.secs)
			byClass[s.class] = append(byClass[s.class], s.secs)
			if s.class.legalizes() && s.err == nil {
				cells += float64(env.roleInput(s.class).Cells)
			}
		}
	}
	for c, l := range byClass {
		rep.linef("class %-8s n=%d p50_ms=%.3f", reqClass(c), len(l), 1e3*median(l))
	}
	rep.linef("requests %d over %.3fs", len(lat), wall)
	rep.set("setup_s", setupS, "s")
	rep.set("cells_per_s", cells/wall, "cells/s")
	rep.set("req_per_s", float64(len(lat))/wall, "1/s")
	rep.set("req_p50_ms", 1e3*median(lat), "ms")
	rep.set("req_p95_ms", 1e3*percentile(lat, 95), "ms")
	setQuality(rep, fps[:])
	return nil
}
