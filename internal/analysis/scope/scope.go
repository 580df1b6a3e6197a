// Package scope centralizes which packages each mclegal-vet invariant
// applies to, so the analyzers and the documentation cannot drift
// apart. Paths are matched by suffix (framework.PathMatchesAny), which
// makes the same analyzers scope correctly over both the real module
// ("mclegal/internal/mgl") and analysistest fixtures
// ("maporder/internal/mgl").
package scope

// DeterministicCore lists the packages whose output must be
// byte-identical across runs and worker counts: the three pipeline
// stages, their composition layers, and the matching solver. See
// docs/PERFORMANCE.md (determinism) and docs/STATIC_ANALYSIS.md.
var DeterministicCore = []string{
	"internal/mgl",
	"internal/refine",
	"internal/maxdisp",
	"internal/matching",
	"internal/flow",
	"internal/stage",
	"internal/shard",
	// The serving layer answers identical requests with byte-identical
	// placements, so it is held to the same no-wallclock/no-map-order
	// rules as the pipeline it wraps.
	"internal/serve",
}

// FloatCritical lists the packages where float64 equality comparisons
// are banned outside the approved Approx* epsilon helpers: the
// geometry vocabulary and the metric/curve arithmetic whose values
// feed benchmark comparisons.
var FloatCritical = []string{
	"internal/geom",
	"internal/curve",
	"internal/eval",
}

// GateBoundary lists the packages whose errors cross the pipeline's
// gate boundary and therefore must be the typed kinds of
// docs/ROBUSTNESS.md rather than bare fmt.Errorf values.
var GateBoundary = []string{
	"internal/stage",
	// The server's wire errors are the same taxonomy one layer out:
	// every failure a client sees must be a typed Error, never a bare
	// errors.New/fmt.Errorf value.
	"internal/serve",
}

// CancellationAware lists the packages where a context.Context, once
// received, must be threaded into every callee that can accept one
// (the ctxflow analyzer): the deterministic core plus the min-cost
// flow solver the refinement stage can spend most of its time in.
var CancellationAware = []string{
	"internal/mgl",
	"internal/refine",
	"internal/maxdisp",
	"internal/matching",
	"internal/flow",
	"internal/stage",
	"internal/shard",
	"internal/mcf",
	// Request handlers thread the per-request context (deadline budget,
	// client cancellation, drain) into every run they start.
	"internal/serve",
}

// ConcurrencyScope lists the packages where goroutines, locks, and
// shared state live — the MGL worker pool, the shard runner, the
// serving layer's admission/drain machinery, the fault injector's
// shared counters, and the daemon wiring them together. The three
// concurrency analyzers (goleak, lockguard, sharedwrite) apply here;
// the determinism guarantee is only as strong as this layer's
// leak-freedom and race-freedom.
var ConcurrencyScope = []string{
	"internal/mgl",
	"internal/stage",
	"internal/shard",
	"internal/serve",
	"internal/faults",
	"cmd/mclegald",
}

// WriteEffectClosure lists the packages the write-effect proofs
// (writeset, snapshotsafe, aliasleak) need full bodies for beyond the
// other lists' union. The serving layer hands resident designs to the
// .mcl serializer, so aliasleak can only prove the clone boundary if
// bmark's bodies are in the program; eval's audit/measure functions
// sit inside every gated stage tree the same way.
var WriteEffectClosure = []string{
	"internal/bmark",
	"internal/eval",
	"internal/model",
	"internal/seg",
	"internal/route",
	"internal/faults",
	// The flow package's greedy fallback stage calls straight into the
	// baseline package; its body must be loaded for that stage's write
	// set to stay provable.
	"internal/baseline",
}

// HotPathClosure lists every package the //mclegal:hotpath call trees
// reach (mgl.bestInWindow and splitRow, the reused mcf.Solver.Solve,
// and the matching augment phase): the noalloc proof needs full bodies
// for all of them, so program loads (suite tests, mclegal-vet) must
// include the whole list.
var HotPathClosure = []string{
	"internal/mgl",
	"internal/curve",
	"internal/geom",
	"internal/seg",
	"internal/model",
	"internal/route",
	"internal/mcf",
	"internal/matching",
}
