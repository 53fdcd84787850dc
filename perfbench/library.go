package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"certa"
	"certa/internal/telemetry"
)

// Library workloads have no arrival rate; their load steps are batch
// sizes. Every round hands the same seeded permutation of the pairs to
// ExplainBatch whole (high), in halves (mid) and in quarters (low),
// each call on a fresh ScoringService. One call is one latency sample.
var librarySteps = []struct {
	name string
	size int
}{
	{"high", pairCount},
	{"mid", pairCount / 2},
	{"low", pairCount / 4},
}

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

// libState is a library workload after set-up.
type libState struct {
	fx      libraryFixture
	bench   *certa.Benchmark
	model   *certa.Matcher // warm shared matcher, or the trained one when cold
	blob    []byte         // the trained matcher, serialized
	pairs   []certa.Pair
	idx     *certa.CandidateIndex
	buildMS float64
}

// parallelism is the engine parallelism of every measured call: one
// worker per CPU the process may use.
func parallelism() int { return runtime.GOMAXPROCS(0) }

func setupLibrary(fx libraryFixture) (*libState, error) {
	b, m, err := trainFixture(fx.code)
	if err != nil {
		return nil, err
	}
	pairs, err := fx.pairs(b)
	if err != nil {
		return nil, err
	}
	st := &libState{fx: fx, bench: b, model: m, pairs: pairs}
	st.idx = certa.NewCandidateIndex(b.Left, b.Right)
	if is, ok := st.idx.Stats(); ok {
		st.buildMS = is.BuildMS
	}
	if st.blob, err = m.MarshalBinary(); err != nil || fx.cold {
		return st, err
	}
	// Warm-up: one pass fills the matcher's embedding store and
	// attribute-block memo, so measured calls see warm matcher caches.
	_, _, _, err = st.call(context.Background(), m, pairs)
	return st, err
}

// matcher returns the model a call scores with: the shared warm
// matcher, or for cold workloads a fresh one restored from bytes.
func (st *libState) matcher() (*certa.Matcher, error) {
	if !st.fx.cold {
		return st.model, nil
	}
	return restoreMatcher(st.blob)
}

// coldOK reports whether m is in the cache state the workload
// promises: a cold workload's matcher must not have touched its
// embedding store yet.
func (st *libState) coldOK(m *certa.Matcher) bool {
	return !st.fx.cold || m.EmbeddingStats().Lookups == 0
}

// call runs one measured ExplainBatch on a fresh scoring service and
// returns the results with the call's wall time.
func (st *libState) call(ctx context.Context, m certa.Model, pairs []certa.Pair) ([]*certa.Result, time.Duration, *certa.ScoringService, error) {
	p := parallelism()
	svc := certa.NewScoringService(m, certa.ScoringServiceOptions{Parallelism: p})
	opts := engineOptions()
	opts.Parallelism = p
	opts.Shared = svc
	opts.Retrieval = st.idx
	start := time.Now()
	res, err := certa.ExplainBatchContext(ctx, m, st.bench.Left, st.bench.Right, pairs, opts)
	return res, time.Since(start), svc, err
}

// libTally accumulates a run's operation counts and per-layer values.
type libTally struct {
	attempted, failed int
	samples           map[string][]float64 // step -> call walls in ms
	explained         int
	busy              time.Duration // wall of all measured calls

	layer        map[string]float64
	self         map[string]float64
	tracedWall   time.Duration
	untracedWall time.Duration
}

func runLibrary(fx libraryFixture, cfg runConfig) (*report, error) {
	st, setupS, err := medianSetup(setupRepeats, func() (*libState, error) { return setupLibrary(fx) }, func(*libState) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// References run on a matcher of their own, so they leave the
	// measured matcher's caches untouched.
	refModel, err := restoreMatcher(st.blob)
	if err != nil {
		return nil, err
	}
	ref, err := reference(refModel, st.bench.Left, st.bench.Right, st.pairs, engineOptions())
	if err != nil {
		return nil, err
	}

	t := &libTally{samples: map[string][]float64{}, layer: map[string]float64{}, self: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	cpu0, ms0, wall0 := cpuTime(), memStats(), time.Now()
	deadline := wall0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// The traced run measures the per-layer cost of the workload's own
	// call, the whole pair set in one ExplainBatch.
	steps := librarySteps
	if cfg.traced {
		steps = librarySteps[:1]
	}
	for round := 0; time.Now().Before(deadline); round++ {
		perm := shuffled(rng, st.pairs)
		for k := range steps {
			step := steps[(round+k)%len(steps)]
			for lo := 0; lo < len(perm); lo += step.size {
				chunk := perm[lo : lo+step.size]
				if err := st.measure(t, chunk, step.name, ref, cfg.traced, round%2 == 0); err != nil {
					return nil, err
				}
			}
		}
	}
	window := time.Since(wall0)

	if cfg.traced {
		vals := t.layerValues(st, window, cpu0, ms0)
		failed := t.failed
		if vals["stages.residual_pct"] > residualBoundPct {
			failed++
		}
		return newReport(t.attempted, failed, fillMetrics(perLayer, vals)), nil
	}
	vals := map[string]float64{
		"setup_s":       setupS,
		"expl_per_s":    float64(pairCount) / (quantile(t.samples["high"], 0.5) / 1000),
		"sustained_rps": float64(t.explained) / t.busy.Seconds(),
		"heap_live_mb":  heapLiveMB(),
	}
	for _, step := range librarySteps {
		vals["p50_ms."+step.name] = quantile(t.samples[step.name], 0.50)
		vals["p95_ms."+step.name] = quantile(t.samples[step.name], 0.95)
	}
	// A library run attempts as many calls as fit in its window, so
	// its attempted count follows throughput; fail_ratio divides by a
	// count fixed before the run instead, one round per second.
	vals["fail_ratio"] = failRatio(int(cfg.seconds)*len(librarySteps)*pairCount, t.failed)
	runtime.KeepAlive(st)
	return newReport(t.attempted, t.failed, fillMetrics(endToEnd, vals)), nil
}

// measure runs one call of a step and checks its results. Traced runs
// make each call twice, once bare and once traced, in alternating
// order, so the pair of walls prices the tracing.
func (st *libState) measure(t *libTally, pairs []certa.Pair, step string, ref map[string]*certa.Result, traced, tracedFirst bool) error {
	if !traced {
		res, wall, err := st.untracedCall(t, pairs, ref)
		if err != nil {
			return err
		}
		if res != nil {
			t.samples[step] = append(t.samples[step], ms(wall))
		}
		return nil
	}
	for _, tr := range []bool{tracedFirst, !tracedFirst} {
		if tr {
			if err := st.tracedCall(t, pairs, ref); err != nil {
				return err
			}
			continue
		}
		_, wall, err := st.untracedCall(t, pairs, ref)
		if err != nil {
			return err
		}
		t.untracedWall += wall
	}
	return nil
}

// untracedCall makes one bare call; results are nil when the call
// failed its output check (counted as failures, not errors).
func (st *libState) untracedCall(t *libTally, pairs []certa.Pair, ref map[string]*certa.Result) ([]*certa.Result, time.Duration, error) {
	m, err := st.matcher()
	if err != nil {
		return nil, 0, err
	}
	t.attempted += len(pairs)
	if !st.coldOK(m) {
		t.failed += len(pairs)
		return nil, 0, nil
	}
	res, wall, _, err := st.call(context.Background(), m, pairs)
	t.busy += wall
	if err != nil {
		t.failed += len(pairs)
		return nil, wall, nil
	}
	t.explained += len(pairs)
	if bad := mismatches(pairs, res, ref); bad > 0 {
		t.failed += bad
		return nil, wall, nil
	}
	return res, wall, nil
}

// tracedCall makes one call under a trace with the model timing
// wrapper and folds its spans and counters into the tally.
func (st *libState) tracedCall(t *libTally, pairs []certa.Pair, ref map[string]*certa.Result) error {
	m, err := st.matcher()
	if err != nil {
		return err
	}
	t.attempted += len(pairs)
	if !st.coldOK(m) {
		t.failed += len(pairs)
		return nil
	}
	tm := &timedModel{m: m}
	emb0 := m.EmbeddingStats()
	tr := telemetry.New()
	res, wall, svc, err := st.call(telemetry.WithTrace(context.Background(), tr), tm, pairs)
	tr.Root().End()
	t.tracedWall += wall
	if err != nil {
		t.failed += len(pairs)
		return nil
	}
	t.failed += mismatches(pairs, res, ref)

	tree := tr.Tree()
	for name, v := range selfTimes(tree) {
		t.self[stageClass(name)] += v
	}
	t.layer["stages.wall_ms"] += ms(wall)
	t.layer["core.explain_ms"] += ms(wall)

	ss := svc.Stats()
	add := map[string]int{
		"scorecache.lookups":      ss.Lookups,
		"scorecache.hits":         ss.Hits,
		"scorecache.misses":       ss.Misses,
		"scorecache.batches":      ss.Batches,
		"scorecache.evictions":    ss.Evictions,
		"scorecache.flip_lookups": ss.FlipLookups,
		"scorecache.flip_hits":    ss.FlipHits,
	}
	emb := m.EmbeddingStats()
	add["embedding.lookups"] = emb.Lookups - emb0.Lookups
	add["embedding.hits"] = emb.Hits - emb0.Hits
	for _, r := range res {
		add["lattice.questions"] += r.Diag.LatticeQueries
		add["lattice.pruned_queries"] += r.Diag.PrunedQueries
		add["core.private_model_calls"] += r.Diag.ModelCalls
		add["core.seed_path_calls"] += r.Diag.SeedPathCalls
		if r.Diag.Truncated {
			add["core.truncated"]++
		}
	}
	for k, v := range add {
		t.layer[k] += float64(v)
	}
	t.layer["matchers.busy_ms"] += ms(time.Duration(tm.busyNS.Load()))
	t.layer["matchers.rows"] += float64(tm.rows.Load())
	t.layer["matchers.calls"] += float64(tm.calls.Load())
	return nil
}

// layerValues turns the tally into the per-layer metric values.
func (t *libTally) layerValues(st *libState, window time.Duration, cpu0 time.Duration, ms0 runtime.MemStats) map[string]float64 {
	v := t.layer
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	v["scorecache.hit_ratio"] = ratio(v["scorecache.hits"], v["scorecache.lookups"])
	v["scorecache.flip_hit_ratio"] = ratio(v["scorecache.flip_hits"], v["scorecache.flip_lookups"])
	v["embedding.hit_ratio"] = ratio(v["embedding.hits"], v["embedding.lookups"])
	v["matchers.rows_per_batch"] = ratio(v["matchers.rows"], v["matchers.calls"])

	// The residual is the externally timed call wall that no stage
	// claims: the trace root's own time, while no stage span runs, and
	// any difference between the call and its trace.
	claimed := stageValues(v, t.self)
	v["stages.sum_self_ms"] = claimed
	v["stages.root_self_ms"] = v["stages.wall_ms"] - claimed
	v["stages.residual_pct"] = 100 * ratio(math.Abs(v["stages.root_self_ms"]), v["stages.wall_ms"])
	v["lattice.self_share"] = ratio(v["lattice.self_ms"], v["stages.wall_ms"])
	v["neighborhood.build_ms"] = st.buildMS
	v["telemetry.trace_overhead_pct"] = 100 * ratio(float64(t.tracedWall-t.untracedWall), float64(t.untracedWall))

	ms1 := memStats()
	v["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.cpu_util"] = ratio((cpuTime() - cpu0).Seconds(), window.Seconds()*float64(runtime.GOMAXPROCS(0)))
	return v
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// cpuTime returns the CPU time (user+system) the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
