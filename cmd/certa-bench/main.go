// Command certa-bench regenerates the tables and figures of the CERTA
// paper's evaluation (§5). Each experiment is addressed by its paper
// artifact id:
//
//	certa-bench -exp table2            # Faithfulness grid
//	certa-bench -exp figure11          # triangle-count sweep
//	certa-bench -exp all               # everything, in paper order
//	certa-bench -list                  # show available experiments
//
// The synthetic benchmarks are scaled down by default so the full grid
// runs in minutes; -records/-matches/-pairs control the scale and
// -triangles sets CERTA's τ.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"certa"
	"certa/internal/cluster"
	"certa/internal/debugserve"
	"certa/internal/embedding"
	"certa/internal/eval"
	"certa/internal/matchers"
	"certa/internal/neighborhood"
	"certa/internal/scorecache"
	"certa/internal/telemetry"
	"certa/internal/workpool"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (table1..table9, figure2..figure12) or \"all\"")
		list        = flag.Bool("list", false, "list available experiments and exit")
		seed        = flag.Int64("seed", 7, "global random seed")
		records     = flag.Int("records", 0, "max records per source (0 = default)")
		matches     = flag.Int("matches", 0, "max matching pairs (0 = default)")
		pairs       = flag.Int("pairs", 0, "explained test pairs per (dataset, model) cell (0 = default)")
		triangles   = flag.Int("triangles", 0, "CERTA triangle budget τ (0 = default 100)")
		datasets    = flag.String("datasets", "", "comma-separated dataset codes (default: all 12)")
		models      = flag.String("models", "", "comma-separated models: DeepER,DeepMatcher,Ditto")
		parallelism = flag.Int("parallelism", 1, "concurrent grid cells")
		quick       = flag.Bool("quick", false, "tiny profile (for smoke runs)")
		report      = flag.String("report", "", "write a markdown paper-vs-measured report (all experiments) to this file")
		benchJSON   = flag.String("benchjson", "", "run the batched-pipeline perf probe on AB and write JSON metrics to this file")
		deadline    = flag.Duration("deadline", 0, "per-explanation soft deadline for the perf probe (Options.Deadline; 0 = none)")
		callBudget  = flag.String("call-budget", "", "comma-separated CallBudget sweep for the perf probe's anytime curve, e.g. 40,80,160 (0 = unlimited reference)")
		prune       = flag.Float64("lattice-prune", 0.25, "pruning threshold for the perf probe's pruned pass (the BENCH \"pruning\" section; 0 = skip the pruned pass)")
		serveReqs   = flag.Int("serve-requests", 96, "load-generator requests against the in-process HTTP server for the perf probe's serve section (0 = skip)")
		serveConc   = flag.Int("serve-conc", 8, "load-generator client concurrency")
		clusterN    = flag.Int("cluster-workers", 4, "ring size for the perf probe's cluster section — sharded ring vs single worker at equal per-worker cache capacity (0 = skip)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this auxiliary address while the run executes (empty = disabled)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (make profile uses it on the perf probe)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		bound, err := debugserve.Start(*pprofAddr, telemetry.Default.Handler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "certa-bench: pprof endpoints on http://%s/debug/pprof/ (metrics at /v1/metrics)\n", bound)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	if *benchJSON != "" {
		budgets, err := parseBudgets(*callBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := writeBenchJSON(*benchJSON, *seed, *parallelism, *deadline, budgets, *prune, *serveReqs, *serveConc, *clusterN); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := eval.Config{
		Seed:         *seed,
		MaxRecords:   *records,
		MaxMatches:   *matches,
		ExplainPairs: *pairs,
		Triangles:    *triangles,
		Parallelism:  *parallelism,
		Quick:        *quick,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			cfg.Models = append(cfg.Models, matchers.Kind(m))
		}
	}

	h := eval.NewHarness(cfg)
	start := time.Now()

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := h.WriteReport(f); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "certa-bench: report written to %s in %s\n", *report, time.Since(start).Round(time.Millisecond))
		return
	}

	var err error
	if *exp == "all" {
		err = h.RunAll(os.Stdout)
	} else {
		var tables []*eval.Table
		tables, err = h.Run(*exp)
		for _, t := range tables {
			if rerr := t.Render(os.Stdout); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "certa-bench: done in %s\n", time.Since(start).Round(time.Millisecond))
}

// benchMetrics is the schema of the -benchjson output, tracked across
// PRs to watch the explanation pipeline's perf trajectory.
type benchMetrics struct {
	Benchmark          string  `json:"benchmark"`
	Model              string  `json:"model"`
	Workload           string  `json:"workload"`
	Explanations       int     `json:"explanations"`
	Parallelism        int     `json:"parallelism"`
	WallSeconds        float64 `json:"wall_seconds"`
	ExplanationsPerSec float64 `json:"explanations_per_sec"`
	// ModelCallsPerExpl is the per-explanation unique-call count a
	// private cache would pay (the per-explanation view's misses).
	ModelCallsPerExpl float64 `json:"model_calls_per_explanation"`
	SeedCallsPerExpl  float64 `json:"seed_path_calls_per_explanation"`
	// CacheHitRate is the per-explanation (private-view) hit rate;
	// SharedCacheHitRate is the shared store's rate over the requests
	// the views forwarded to it — the cross-explanation reuse.
	CacheHitRate       float64 `json:"cache_hit_rate"`
	SharedCacheHitRate float64 `json:"shared_cache_hit_rate"`
	// PrivateModelCalls sums the per-explanation unique calls (what 16
	// private caches would pay); UniqueModelCalls is what the shared
	// service actually paid for the whole run.
	PrivateModelCalls int `json:"private_model_calls_per_run"`
	UniqueModelCalls  int `json:"unique_model_calls_per_run"`
	// CallReduction divides the seed path's cost (sequential, uncached
	// point lookups) by the unique model calls of the whole shared run.
	CallReduction float64 `json:"call_reduction_vs_uncached"`
	// DeadlineMS echoes the -deadline flag applied to the main run (0 =
	// none); TruncatedFraction is that run's share of truncated
	// explanations (non-zero only under a deadline or budget).
	DeadlineMS        float64 `json:"deadline_ms,omitempty"`
	TruncatedFraction float64 `json:"truncated_fraction"`
	// Index is the candidate-retrieval-layer probe: build cost of the
	// shared per-table index, the retrieval speedup over the unindexed
	// scan, and the end-to-end throughput delta.
	Index *indexMetrics `json:"index"`
	// Anytime is the -call-budget sweep: per budget, throughput plus
	// quality proxies against an unlimited reference run (the main run
	// itself unless -deadline truncated it, in which case the sweep runs
	// its own).
	Anytime []anytimePoint `json:"anytime,omitempty"`
	// Serve is the HTTP load-generator probe: the same blocked-cluster
	// workload served by an in-process certa-serve-shaped server
	// (internal/server) over real TCP, measuring end-to-end request
	// latency through admission control, coalescing and the shared
	// cache.
	Serve *serveMetrics `json:"serve,omitempty"`
	// Scoring is the scoring-engine probe: forward-pass kernel speedup,
	// embedding-store and store-peek reuse, and the end-to-end trajectory
	// against the PR 5 baseline.
	Scoring *scoringMetrics `json:"scoring"`
	// Pruning is the lattice-pruning probe: the same workload re-explained
	// under Options.LatticePrune on a fresh scoring service, with quality
	// measured as saliency agreement against the exact main run, plus the
	// featurization before/after microbench.
	Pruning *pruningMetrics `json:"pruning"`
	// Telemetry is the observability probe: the serve probe's scrape
	// footprint and the cost of always-on span recording.
	Telemetry *telemetryMetrics `json:"telemetry"`
	// Cluster is the scale-out probe: the same blocked-cluster workload
	// routed through a consistent-hash ring of capacity-bounded workers
	// (internal/cluster) versus a single worker with the same per-worker
	// cache capacity.
	Cluster *clusterMetrics `json:"cluster,omitempty"`
}

// clusterMetrics is the "cluster" section of BENCH_explain.json: what
// consistent-hash sharding buys on a machine (or fleet) where no single
// worker's stores can hold the whole workload. Both configurations run
// the identical cycling workload through a real certa-router over real
// TCP with the same per-worker capacities — the score cache sized so
// the ring's largest shard working set just fits, the result memo so
// the ring's largest request slice just fits. The single worker
// therefore thrashes both LRUs (a cycling workload is eviction's worst
// case), while each ring worker's slice of the keyspace stays resident
// end to end; the speedup is cache locality through shard routing, not
// CPU parallelism (the client is sequential and the host may have one
// core).
type clusterMetrics struct {
	Workers      int `json:"workers"`
	VirtualNodes int `json:"virtual_nodes"`
	// UniqueScoreKeys is the workload's whole score keyspace (measured by
	// an enumeration pass); PerWorkerCacheCapacity the LRU bound every
	// worker gets in both configurations (largest ring shard + slack).
	UniqueScoreKeys        int `json:"unique_score_keys"`
	PerWorkerCacheCapacity int `json:"per_worker_cache_capacity"`
	// PerWorkerResultMemo is the serving-layer memo bound every worker
	// gets in both configurations: the largest number of distinct pairs
	// the ring routes to any one worker. A ring worker's slice fits; the
	// single worker cycles the full pair set through the same bound.
	PerWorkerResultMemo int `json:"per_worker_result_memo"`
	// WarmupRequests is the untimed cold cycle each configuration gets;
	// TimedRequests the measured cycling requests that follow it.
	WarmupRequests int `json:"warmup_requests"`
	TimedRequests  int `json:"timed_requests"`
	// The headline comparison: sequential-client request throughput of
	// the ring vs the single worker, both behind a router.
	SingleWorkerRPS float64 `json:"requests_per_sec_1_worker"`
	RingRPS         float64 `json:"requests_per_sec_ring"`
	Speedup         float64 `json:"speedup_ring_vs_1_worker"`
	// The mechanism: cumulative shared-cache hit rates and resident
	// entries. The ring's aggregate footprint covers the keyspace;
	// the single worker's cannot.
	SingleWorkerHitRate  float64 `json:"cache_hit_rate_1_worker"`
	RingHitRate          float64 `json:"cache_hit_rate_ring"`
	SingleWorkerEntries  int     `json:"cache_entries_1_worker"`
	RingAggregateEntries int     `json:"ring_aggregate_cache_entries"`
	// The serving-layer tier of the same mechanism: how often a repeat
	// request replayed its memoized body instead of recomputing. Ring
	// workers keep their slice resident; the single worker's memo
	// cycles and misses.
	SingleWorkerMemoHitRate float64 `json:"result_memo_hit_rate_1_worker"`
	RingMemoHitRate         float64 `json:"result_memo_hit_rate_ring"`
	// RoutedByteIdentical reports that every response body the ring and
	// the single-worker router returned was byte-identical to a direct
	// (router-less) certa-serve server's — the routing layer's
	// transparency contract, re-checked on every bench run.
	RoutedByteIdentical bool `json:"routed_byte_identical_to_direct"`
}

// telemetryMetrics is the "telemetry" section of BENCH_explain.json:
// what the internal/telemetry layer costs. SeriesCount/ScrapeBytes are
// read from the serve probe's GET /v1/metrics exposition (zero when
// -serve-requests=0 skips that probe). The overhead probe times the
// same workload with and without a telemetry.Trace riding the context
// — fresh scoring services per pass so both pay identical model calls
// — and the CI gate holds trace_overhead_pct under 2.
type telemetryMetrics struct {
	SeriesCount int `json:"series_count"`
	ScrapeBytes int `json:"scrape_bytes"`
	// PlainNSPerExpl/TracedNSPerExpl are best-of-reps ns per explanation
	// without and with a trace on the context; on a loaded machine their
	// difference carries percent-scale noise, so the overhead fields are
	// measured by decomposition instead (spans per explanation times
	// measured unit span cost — see traceOverheadProbe) and do not equal
	// that difference.
	PlainNSPerExpl         float64 `json:"plain_ns_per_explanation"`
	TracedNSPerExpl        float64 `json:"traced_ns_per_explanation"`
	TraceOverheadNSPerExpl float64 `json:"trace_overhead_ns_per_explanation"`
	TraceOverheadPct       float64 `json:"trace_overhead_pct"`
}

// pruningMetrics is the "pruning" section of BENCH_explain.json: what
// the estimator mode (Options.LatticePrune) saves on the blocked-cluster
// workload and what it costs in saliency fidelity, anchored against the
// PR 7 exact-mode baseline.
type pruningMetrics struct {
	// Threshold / MinLevels echo the policy of the pruned pass
	// (-lattice-prune; MinLevels 0 = the engine default of 2).
	Threshold float64 `json:"threshold"`
	MinLevels int     `json:"min_levels"`
	// WallSeconds / ExplanationsPerSec are the pruned pass end to end on
	// its own fresh scoring service (so the exact and pruned passes each
	// pay their own model calls); SpeedupVsExact divides the pruned
	// throughput by the headline exact run's.
	WallSeconds        float64 `json:"wall_seconds"`
	ExplanationsPerSec float64 `json:"explanations_per_sec"`
	SpeedupVsExact     float64 `json:"speedup_vs_exact"`
	// ModelCallsPerExpl is the pruned pass's per-explanation unique-call
	// count (the questions actually asked — the quantity pruning
	// attacks); QuestionReduction divides the exact run's count by it.
	// PrunedQueriesPerExpl is the ledger of questions the policy skipped.
	ModelCallsPerExpl    float64 `json:"model_calls_per_explanation"`
	QuestionReduction    float64 `json:"question_reduction_vs_exact"`
	PrunedQueriesPerExpl float64 `json:"pruned_queries_per_explanation"`
	// SaliencyTop2Agreement is the quality gate (mean Jaccard overlap of
	// the top-2 salient attributes with the exact run — the same measure
	// the anytime curve reports); CFValidity the pruned counterfactuals'
	// flip rate (-1 when none were emitted).
	SaliencyTop2Agreement float64 `json:"saliency_top2_agreement"`
	CFValidity            float64 `json:"cf_validity"`
	// The PR 7 anchors (its BENCH_explain.json exact-mode recordings) and
	// the trajectory against them.
	PR7BaselineExplPerSec   float64 `json:"pr7_baseline_explanations_per_sec"`
	PR7BaselineCallsPerExpl float64 `json:"pr7_baseline_model_calls_per_explanation"`
	SpeedupVsPR7Baseline    float64 `json:"speedup_vs_pr7_baseline"`
	QuestionReductionVsPR7  float64 `json:"question_reduction_vs_pr7_baseline"`
	// The featurization microbench: one DeepMatcher attribute block
	// through the tokenize-once path (matchers.AttrBlock) vs the
	// re-tokenizing reference (matchers.AttrBlockRef), embeddings
	// memoized as in production.
	FeaturizeNSPerOp          float64 `json:"featurize_ns_per_op"`
	FeaturizeReferenceNSPerOp float64 `json:"featurize_reference_ns_per_op"`
	FeaturizeSpeedup          float64 `json:"featurize_speedup"`
}

// scoringMetrics is the "scoring" section of BENCH_explain.json: what
// the three scoring-engine layers (batched forward pass, persistent
// embedding store, cross-explanation score-store peeks) contribute on
// the main blocked-cluster run.
type scoringMetrics struct {
	// ForwardBaselineNSPerRow / ForwardBatchNSPerRow time the trained
	// network's pre-batching per-row path against the batched arena
	// kernel on rows of the model's real feature dimension;
	// ForwardPassSpeedup is their ratio.
	ForwardBaselineNSPerRow float64 `json:"forward_baseline_ns_per_row"`
	ForwardBatchNSPerRow    float64 `json:"forward_batch_ns_per_row"`
	ForwardPassSpeedup      float64 `json:"forward_pass_speedup"`
	// EmbeddingStoreHitRate is the matcher-lifetime embedding store's
	// hit rate across the whole run: every hit is an attribute/record
	// text that did not re-embed.
	EmbeddingLookups      int     `json:"embedding_lookups"`
	EmbeddingStoreHitRate float64 `json:"embedding_store_hit_rate"`
	// FlipMemoHitRate is FlipHits/FlipLookups on the main run's shared
	// service: lattice and support-search flip questions answered by a
	// store peek at a score another explanation published, without a
	// fetch.
	FlipLookups     int     `json:"flip_lookups"`
	FlipHits        int     `json:"flip_hits"`
	FlipMemoHitRate float64 `json:"flip_memo_hit_rate"`
	// PR5BaselineExplPerSec is the blocked-cluster throughput recorded by
	// PR 5's BENCH_explain.json; SpeedupVsPR5 divides the headline
	// explanations_per_sec by it.
	PR5BaselineExplPerSec float64 `json:"pr5_baseline_explanations_per_sec"`
	SpeedupVsPR5          float64 `json:"speedup_vs_pr5_baseline"`
}

// serveMetrics is the "serve" section of BENCH_explain.json.
type serveMetrics struct {
	// Requests is the total load-generator requests issued (cycling over
	// the blocked-cluster pairs, so later passes hit a warm cache);
	// Concurrency the client workers issuing them.
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	// ServeThroughput is completed requests per wall-clock second; P50MS
	// and P99MS are end-to-end request latency percentiles.
	WallSeconds     float64 `json:"wall_seconds"`
	ServeThroughput float64 `json:"serve_throughput_rps"`
	P50MS           float64 `json:"p50_ms"`
	P99MS           float64 `json:"p99_ms"`
	// Coalesced counts requests that shared another request's in-flight
	// computation; Rejected counts admission 429s (the load is sized to
	// the queue, so normally 0). CoalesceStormRequests is the burst of
	// identical requests fired at the cold first pair before the timed
	// load specifically to exercise coalescing (identical requests only
	// coalesce while one is still computing, and the cycling load is too
	// fast past the cold pass for duplicates to overlap on their own) —
	// all but one of the burst must land as Coalesced, and CI gates on
	// the counter being non-zero.
	Coalesced             int64 `json:"coalesced"`
	Rejected              int64 `json:"rejected"`
	CoalesceStormRequests int   `json:"coalesce_storm_requests"`
	// SharedCacheHitRate is the server-side score cache's hit rate over
	// the whole load.
	SharedCacheHitRate float64 `json:"shared_cache_hit_rate"`
	// FlipLookups / FlipHits / FlipMemoHitRate are the service's
	// store-peek counters over the whole load. Within a single cold
	// explanation a peek hits only where another explanation already
	// scored the same content (see the scoring section's one-pass
	// rate) — the payoff is RE-explanation, which this load exercises
	// by cycling the pairs: every warm pass answers its flip questions
	// by peeking the store without touching the model.
	FlipLookups     int     `json:"flip_lookups"`
	FlipHits        int     `json:"flip_hits"`
	FlipMemoHitRate float64 `json:"flip_memo_hit_rate"`
}

// indexMetrics is the "index" section of BENCH_explain.json: what the
// shared candidate retrieval layer costs to build and what it buys per
// explanation.
type indexMetrics struct {
	// Records / DistinctTokens / BuildMS are the index's build-time
	// footprint over both sources.
	Records        int     `json:"records"`
	DistinctTokens int     `json:"distinct_tokens"`
	BuildMS        float64 `json:"build_ms"`
	// RetrievalScanMS and RetrievalIndexMS time the same candidate
	// retrieval workload — the first 50 overlap-ranked candidates for
	// every cluster pivot, repeated — through the unindexed scan
	// (per-call tokenization + full sort) and the prebuilt index (lazy
	// heap over precomputed postings). RetrievalSpeedup is their ratio:
	// the per-explanation retrieval work that no longer scales with
	// table size.
	RetrievalScanMS  float64 `json:"retrieval_scan_ms"`
	RetrievalIndexMS float64 `json:"retrieval_index_ms"`
	RetrievalSpeedup float64 `json:"retrieval_speedup"`
	// ScanExplanationsPerSec is end-to-end throughput of the same
	// workload under Options.DisableIndex with a fresh scoring service —
	// the baseline the headline explanations_per_sec is measured
	// against. SpeedupVsScan divides the two.
	ScanExplanationsPerSec float64 `json:"scan_explanations_per_sec"`
	SpeedupVsScan          float64 `json:"speedup_vs_scan"`
}

// anytimePoint is one entry of the anytime quality-vs-budget curve.
type anytimePoint struct {
	// CallBudget is Options.CallBudget for this sweep point (0 =
	// unlimited reference).
	CallBudget         int     `json:"call_budget"`
	ExplanationsPerSec float64 `json:"explanations_per_sec"`
	// TruncatedFraction is the share of explanations cut at the budget;
	// MeanCompleteness averages Diagnostics.Completeness.
	TruncatedFraction float64 `json:"truncated_fraction"`
	MeanCompleteness  float64 `json:"mean_completeness"`
	// SaliencyTop2Agreement is the faithfulness proxy: mean Jaccard
	// overlap of the top-2 salient attributes with the unlimited run.
	SaliencyTop2Agreement float64 `json:"saliency_top2_agreement"`
	// CFValidity is the flip rate of emitted counterfactuals (1 under
	// the monotone-classifier assumption; tight budgets lean harder on
	// inferred flips, so non-monotone matchers can dip below it); -1
	// when none were emitted.
	CFValidity     float64 `json:"cf_validity"`
	MeanModelCalls float64 `json:"mean_model_calls_per_explanation"`
}

// pr5BaselineExplPerSec is the blocked-cluster explanations_per_sec PR 5
// recorded in BENCH_explain.json (-parallelism 4) — the anchor the
// scoring section's end-to-end speedup is measured against.
const pr5BaselineExplPerSec = 7.27

// The PR 7 exact-mode anchors from its BENCH_explain.json (-parallelism
// 4): the throughput and per-explanation question count the pruning
// section's trajectory is measured against.
const (
	pr7BaselineExplPerSec   = 30.79
	pr7BaselineCallsPerExpl = 4150.7
)

// parseBudgets parses the -call-budget sweep list.
func parseBudgets(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || b < 0 {
			return nil, fmt.Errorf("invalid -call-budget entry %q", part)
		}
		out = append(out, b)
	}
	return out, nil
}

// writeBenchJSON trains a matcher on a small AB benchmark, explains a
// blocked candidate cluster through ExplainBatch with a shared scoring
// service, and writes throughput plus private-vs-shared cache metrics
// as JSON. deadline applies Options.Deadline to the main run; budgets
// adds the anytime quality-vs-budget curve, each sweep point explaining
// the same workload under its own fresh scoring service (the serving
// scenario a budgeted deployment would run). prune > 0 adds the pruned
// pass (the "pruning" section), whose saliency agreement is measured
// against the main run — run it without -deadline so that reference is
// the exact exploration.
func writeBenchJSON(path string, seed int64, parallelism int, deadline time.Duration, budgets []int, prune float64, serveReqs, serveConc, clusterWorkers int) error {
	bench, err := certa.GenerateBenchmark("AB", certa.BenchmarkOptions{
		Seed: seed, MaxRecords: 120, MaxMatches: 60,
	})
	if err != nil {
		return err
	}
	model, err := certa.TrainMatcher(certa.DeepMatcher, bench, certa.MatcherConfig{Seed: seed})
	if err != nil {
		return err
	}
	// The serving-shaped workload: the bipartite blocked cluster around
	// the first test pair (how an ER system resolves a candidate group).
	// Its pairs share pivot records, so the shared scoring service can
	// amortize their triangle scans; per-explanation caches cannot.
	const clusterK = 4
	pairs, err := certa.BlockedClusterPairs(bench.Left, bench.Right, bench.Test[0].Pair, clusterK)
	if err != nil {
		return err
	}
	if parallelism <= 0 {
		parallelism = 1
	}
	// The shared candidate retrieval index: built once, used by the main
	// run, the anytime sweep and the serve probe — and measured against
	// the unindexed scan baseline below.
	idx := certa.NewCandidateIndex(bench.Left, bench.Right)
	idxStats, _ := idx.Stats()

	// The scan baseline runs first (the conventional baseline-first
	// order, which also hands any process warm-up benefit to neither
	// side in particular): the same workload end-to-end through the
	// unindexed retrieval path, on its own fresh scoring service so both
	// passes pay the same model calls.
	scanSvc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
	scanStart := time.Now()
	scanResults, err := certa.ExplainBatch(model, bench.Left, bench.Right, pairs, certa.Options{
		Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: scanSvc,
		Deadline: deadline, DisableIndex: true,
	})
	if err != nil {
		return err
	}
	scanWall := time.Since(scanStart).Seconds()

	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
	start := time.Now()
	results, err := certa.ExplainBatch(model, bench.Left, bench.Right, pairs, certa.Options{
		Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: svc,
		Deadline: deadline, Retrieval: idx,
	})
	if err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	if deadline == 0 {
		// With no wall-clock limit both passes are deterministic: the
		// indexed and the scan retrieval paths must agree byte for byte.
		for i := range results {
			if !reflect.DeepEqual(results[i], scanResults[i]) {
				return fmt.Errorf("index probe: indexed and scan results diverge on pair %d (%s)", i, pairs[i].Key())
			}
		}
	}

	var modelCalls, seedCalls, hits, lookups, truncated float64
	for _, res := range results {
		modelCalls += float64(res.Diag.ModelCalls)
		seedCalls += float64(res.Diag.SeedPathCalls)
		hits += float64(res.Diag.CacheHits)
		lookups += float64(res.Diag.CacheLookups)
		if res.Diag.Truncated {
			truncated++
		}
	}
	st := svc.Stats()
	n := float64(len(results))
	m := benchMetrics{
		Benchmark:          "AB",
		Model:              model.Name(),
		Workload:           fmt.Sprintf("blocked-cluster-k%d-%dpairs", clusterK, len(pairs)),
		Explanations:       len(results),
		Parallelism:        parallelism,
		WallSeconds:        wall,
		ExplanationsPerSec: n / wall,
		ModelCallsPerExpl:  modelCalls / n,
		SeedCallsPerExpl:   seedCalls / n,
		CacheHitRate:       hits / lookups,
		SharedCacheHitRate: st.HitRate(),
		PrivateModelCalls:  int(modelCalls),
		UniqueModelCalls:   st.Misses,
		CallReduction:      seedCalls / float64(st.Misses),
		DeadlineMS:         float64(deadline) / float64(time.Millisecond),
		TruncatedFraction:  truncated / n,
	}

	// The retrieval-only microbench isolates the index's contribution
	// from the model-call-dominated end-to-end walls above.
	retScanMS, retIndexMS := retrievalMicrobench(bench, pairs, idx, seed)
	m.Index = &indexMetrics{
		Records:                idxStats.Records,
		DistinctTokens:         idxStats.DistinctTokens,
		BuildMS:                idxStats.BuildMS,
		RetrievalScanMS:        retScanMS,
		RetrievalIndexMS:       retIndexMS,
		RetrievalSpeedup:       retScanMS / retIndexMS,
		ScanExplanationsPerSec: n / scanWall,
		SpeedupVsScan:          scanWall / wall,
	}

	// The anytime curve: each budget re-explains the workload under its
	// own fresh shared service, measured against an unlimited reference.
	// With no -deadline the main run IS that reference (and the budget-0
	// sweep point reuses it instead of paying a second full pass); a
	// deadline-truncated main run cannot anchor quality, so the sweep
	// then pays for one dedicated unlimited pass.
	if len(budgets) > 0 {
		reference, refWall := results, wall
		if deadline != 0 {
			svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
			refStart := time.Now()
			reference, err = certa.ExplainBatch(model, bench.Left, bench.Right, pairs, certa.Options{
				Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: svc,
				Retrieval: idx,
			})
			if err != nil {
				return err
			}
			refWall = time.Since(refStart).Seconds()
		}
		for _, budget := range budgets {
			var point anytimePoint
			if budget == 0 {
				point = summarizeAnytime(0, refWall, reference, reference)
			} else {
				point, err = anytimeSweepPoint(model, bench.Left, bench.Right, pairs, idx, seed, parallelism, budget, reference)
				if err != nil {
					return err
				}
			}
			m.Anytime = append(m.Anytime, point)
		}
	}

	var seriesCount, scrapeBytes int
	if serveReqs > 0 {
		serve, series, bytes, err := runServeLoad(bench, model, pairs, idx, seed, parallelism, serveReqs, serveConc)
		if err != nil {
			return err
		}
		m.Serve = serve
		seriesCount, scrapeBytes = series, bytes
	}

	// The observability probe: scrape footprint from the serve pass
	// above, span-recording overhead from a dedicated alternating A/B
	// pass. The CI gate holds the overhead percentage under 2.
	plainNS, tracedNS, overheadNS, err := traceOverheadProbe(bench, model, pairs, idx, seed, parallelism)
	if err != nil {
		return err
	}
	if overheadNS < 0 {
		overheadNS = 0 // the paired estimate drowned in scheduler noise
	}
	m.Telemetry = &telemetryMetrics{
		SeriesCount:            seriesCount,
		ScrapeBytes:            scrapeBytes,
		PlainNSPerExpl:         plainNS,
		TracedNSPerExpl:        tracedNS,
		TraceOverheadNSPerExpl: overheadNS,
		TraceOverheadPct:       100 * overheadNS / plainNS,
	}

	// The scoring-engine probe: kernel microbench on the trained
	// network's own architecture, plus the reuse counters the main run
	// accumulated above.
	baselineNS, batchNS := model.ForwardBench(256, 20)
	est := model.EmbeddingStats()
	m.Scoring = &scoringMetrics{
		ForwardBaselineNSPerRow: baselineNS,
		ForwardBatchNSPerRow:    batchNS,
		ForwardPassSpeedup:      baselineNS / batchNS,
		EmbeddingLookups:        est.Lookups,
		EmbeddingStoreHitRate:   est.HitRate(),
		FlipLookups:             st.FlipLookups,
		FlipHits:                st.FlipHits,
		FlipMemoHitRate:         st.FlipHitRate(),
		PR5BaselineExplPerSec:   pr5BaselineExplPerSec,
		SpeedupVsPR5:            m.ExplanationsPerSec / pr5BaselineExplPerSec,
	}

	// The pruning probe: the same workload under Options.LatticePrune on
	// a fresh scoring service (both passes pay their own model calls),
	// with saliency fidelity measured against the exact main run.
	if prune > 0 {
		// MinLevels 1 lets the cut fire on narrow schemas: the AB
		// benchmark has 3 attributes, so its lattices only explore
		// levels 1..2 and the engine default (MinLevels 2) leaves no
		// level at which a cut could still skip anything.
		policy := certa.PrunePolicy{Threshold: prune, MinLevels: 1}
		psvc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
		pstart := time.Now()
		prunedResults, err := certa.ExplainBatch(model, bench.Left, bench.Right, pairs, certa.Options{
			Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: psvc,
			Retrieval: idx, LatticePrune: policy,
		})
		if err != nil {
			return err
		}
		pwall := time.Since(pstart).Seconds()
		var prunedCalls, prunedQueries float64
		for _, res := range prunedResults {
			prunedCalls += float64(res.Diag.ModelCalls)
			prunedQueries += float64(res.Diag.PrunedQueries)
		}
		ps := eval.SummarizeAnytime(prunedResults, results)
		featNS, featRefNS := featurizeMicrobench()
		m.Pruning = &pruningMetrics{
			Threshold:                 policy.Threshold,
			MinLevels:                 policy.MinLevels,
			WallSeconds:               pwall,
			ExplanationsPerSec:        n / pwall,
			SpeedupVsExact:            (n / pwall) / m.ExplanationsPerSec,
			ModelCallsPerExpl:         prunedCalls / n,
			QuestionReduction:         m.ModelCallsPerExpl / (prunedCalls / n),
			PrunedQueriesPerExpl:      prunedQueries / n,
			SaliencyTop2Agreement:     ps.Top2Agreement,
			CFValidity:                ps.CFValidity,
			PR7BaselineExplPerSec:     pr7BaselineExplPerSec,
			PR7BaselineCallsPerExpl:   pr7BaselineCallsPerExpl,
			SpeedupVsPR7Baseline:      (n / pwall) / pr7BaselineExplPerSec,
			QuestionReductionVsPR7:    pr7BaselineCallsPerExpl / (prunedCalls / n),
			FeaturizeNSPerOp:          featNS,
			FeaturizeReferenceNSPerOp: featRefNS,
			FeaturizeSpeedup:          featRefNS / featNS,
		}
	}

	// The scale-out probe: the same workload through a real router over
	// a sharded ring vs a single worker at equal per-worker capacity.
	if clusterWorkers > 0 {
		cm, err := runClusterProbe(bench, model, pairs, idx, seed, parallelism, clusterWorkers)
		if err != nil {
			return err
		}
		m.Cluster = cm
	}

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "certa-bench: %.1f explanations/sec, %d unique model calls for %d private, %.2fx reduction vs uncached, %d anytime points -> %s\n",
		m.ExplanationsPerSec, m.UniqueModelCalls, m.PrivateModelCalls, m.CallReduction, len(m.Anytime), path)
	if m.Index != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: index probe: %d records / %d tokens built in %.1fms, retrieval %.1fx faster than scan, end-to-end %.1f vs %.1f expl/s (%.2fx)\n",
			m.Index.Records, m.Index.DistinctTokens, m.Index.BuildMS,
			m.Index.RetrievalSpeedup, m.ExplanationsPerSec, m.Index.ScanExplanationsPerSec, m.Index.SpeedupVsScan)
	}
	if m.Serve != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: serve probe: %.1f req/s over %d requests (conc %d), p50 %.1fms, p99 %.1fms, %d coalesced, cache hit rate %.1f%%, peek hit rate %.1f%%\n",
			m.Serve.ServeThroughput, m.Serve.Requests, m.Serve.Concurrency,
			m.Serve.P50MS, m.Serve.P99MS, m.Serve.Coalesced, 100*m.Serve.SharedCacheHitRate,
			100*m.Serve.FlipMemoHitRate)
	}
	if m.Scoring != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: scoring probe: forward pass %.1fx (%.0f -> %.0f ns/row), embedding store hit rate %.1f%%, store peeks %d/%d hits, %.2fx vs the recorded baseline %.2f expl/s\n",
			m.Scoring.ForwardPassSpeedup, m.Scoring.ForwardBaselineNSPerRow, m.Scoring.ForwardBatchNSPerRow,
			100*m.Scoring.EmbeddingStoreHitRate, m.Scoring.FlipHits, m.Scoring.FlipLookups,
			m.Scoring.SpeedupVsPR5, m.Scoring.PR5BaselineExplPerSec)
	}
	if m.Pruning != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: pruning probe: threshold %.2f: %.1f expl/s (%.2fx exact, %.2fx vs PR 7 baseline %.2f), %.0f calls/expl (%.2fx fewer questions), top-2 agreement %.3f, featurize %.0f -> %.0f ns/block (%.2fx)\n",
			m.Pruning.Threshold, m.Pruning.ExplanationsPerSec, m.Pruning.SpeedupVsExact,
			m.Pruning.SpeedupVsPR7Baseline, m.Pruning.PR7BaselineExplPerSec,
			m.Pruning.ModelCallsPerExpl, m.Pruning.QuestionReduction, m.Pruning.SaliencyTop2Agreement,
			m.Pruning.FeaturizeReferenceNSPerOp, m.Pruning.FeaturizeNSPerOp, m.Pruning.FeaturizeSpeedup)
	}
	if m.Telemetry != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: telemetry probe: %d series (%d scrape bytes), trace overhead %.0f ns/expl (%.3f%% of %.0f ns)\n",
			m.Telemetry.SeriesCount, m.Telemetry.ScrapeBytes,
			m.Telemetry.TraceOverheadNSPerExpl, m.Telemetry.TraceOverheadPct, m.Telemetry.PlainNSPerExpl)
	}
	if m.Cluster != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: cluster probe: %d-worker ring %.1f req/s vs single worker %.1f req/s (%.2fx) at capacity %d over %d keys; cache hit rate %.1f%% vs %.1f%%, memo hit rate %.1f%% vs %.1f%% (cap %d), byte-identical: %v\n",
			m.Cluster.Workers, m.Cluster.RingRPS, m.Cluster.SingleWorkerRPS, m.Cluster.Speedup,
			m.Cluster.PerWorkerCacheCapacity, m.Cluster.UniqueScoreKeys,
			100*m.Cluster.RingHitRate, 100*m.Cluster.SingleWorkerHitRate,
			100*m.Cluster.RingMemoHitRate, 100*m.Cluster.SingleWorkerMemoHitRate,
			m.Cluster.PerWorkerResultMemo, m.Cluster.RoutedByteIdentical)
	}
	return nil
}

// featurizeMicrobench times one DeepMatcher attribute block — the
// featurization hot path at high embedding-store hit rates — through
// the tokenize-once production path (matchers.AttrBlock) and the
// re-tokenizing reference (matchers.AttrBlockRef) on a representative
// product-title pair, with embeddings memoized as the persistent store
// does in production.
func featurizeMicrobench() (nsPerOp, refNSPerOp float64) {
	emb := embedding.New(16)
	emb.Fit([]string{"sony dcr trv27 minidv handycam", "canon zr60 digital camcorder 3.99"})
	memo := make(map[string][]float64)
	text := func(s string) []float64 {
		if v, ok := memo[s]; ok {
			return v
		}
		v := emb.Text(s)
		memo[s] = v
		return v
	}
	lv := "Sony DCR-TRV27 MiniDV Handycam Camcorder w/ 2.5\" LCD"
	rv := "sony dcr trv27 minidv digital handycam camcorder 690 usd"
	const iters = 20000
	dst := make([]float64, 0, 8)
	timeBlock := func(block func([]float64, func(string) []float64, string, string) []float64) float64 {
		dst = block(dst[:0], text, lv, rv) // warm-up settles the embedding memo
		start := time.Now()
		for i := 0; i < iters; i++ {
			dst = block(dst[:0], text, lv, rv)
		}
		return float64(time.Since(start)) / float64(iters)
	}
	return timeBlock(matchers.AttrBlock), timeBlock(matchers.AttrBlockRef)
}

// runServeLoad is the load-generator mode: it stands the serving
// subsystem up on an ephemeral TCP port (exactly what cmd/certa-serve
// runs) over the already-trained matcher, fires requests for the
// blocked-cluster workload from conc client workers — cycling the
// pairs, so the first pass is cold and later passes exercise the warm
// shared cache and request coalescing — and distills end-to-end
// latency percentiles from the client-side telemetry histogram (the
// same Quantile estimate a Prometheus scrape of the series would
// compute). The server publishes into telemetry.Default, and the probe
// scrapes its GET /v1/metrics once after the load for the telemetry
// section's footprint numbers.
func runServeLoad(bench *certa.Benchmark, model *certa.Matcher, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64, parallelism, requests, conc int) (*serveMetrics, int, int, error) {
	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
	srv, err := certa.NewServer([]certa.ServerBackend{{
		Name: "AB", Left: bench.Left, Right: bench.Right, Model: model,
		Options: certa.Options{Triangles: 100, Seed: seed, Parallelism: parallelism, Retrieval: idx},
		Pairs:   pairs, Service: svc,
	}}, certa.ServerOptions{MaxInFlight: parallelism, MaxQueue: requests, Metrics: telemetry.Default})
	if err != nil {
		return nil, 0, 0, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	url := base + "/v1/explain"

	if conc <= 0 {
		conc = 1
	}
	lat := telemetry.Default.Histogram("certa_bench_client_request_duration_seconds",
		"End-to-end client-observed request latency of the serve probe.",
		nil, telemetry.LatencyBuckets)
	var failed atomic.Int64

	// The coalesce storm: identical requests coalesce only while one of
	// them is still computing, and past the cold first pass the cycling
	// load below answers too fast for duplicates to overlap — which left
	// the serve section's coalesced counter at 0 for entire runs, i.e.
	// the path was never exercised. A concurrent burst of identical
	// requests at the still-cold first pair pins it down: one request
	// computes, the rest attach to its in-flight computation (coalescing
	// runs before admission, so the burst cannot be rejected).
	const stormSize = 8
	workpool.Each(stormSize, stormSize, func(i int) error {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"pair_index":0}`))
		if err != nil {
			failed.Add(1)
			return nil
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil || resp.StatusCode != http.StatusOK {
			failed.Add(1)
		}
		return nil
	})
	if st := srv.Stats(); st.Coalesced == 0 {
		return nil, 0, 0, fmt.Errorf("serve probe: coalesce storm (%d identical concurrent requests) produced no coalesced requests", stormSize)
	}

	start := time.Now()
	workpool.Each(requests, conc, func(i int) error {
		body := fmt.Sprintf(`{"pair_index":%d}`, i%len(pairs))
		t0 := time.Now()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			failed.Add(1)
			return nil
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if cerr != nil || resp.StatusCode != http.StatusOK {
			failed.Add(1)
			return nil
		}
		lat.Observe(time.Since(t0).Seconds())
		return nil
	})
	wall := time.Since(start).Seconds()
	if n := failed.Load(); n > 0 {
		return nil, 0, 0, fmt.Errorf("serve probe: %d/%d requests failed", n, requests)
	}

	// One scrape of the server's exposition for the telemetry section:
	// how many series the run produced and what one scrape weighs.
	scrapeBytes := 0
	if resp, err := http.Get(base + "/v1/metrics"); err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			scrapeBytes = len(body)
		}
	}

	st := srv.Stats()
	return &serveMetrics{
		Requests:              requests,
		Concurrency:           conc,
		WallSeconds:           wall,
		ServeThroughput:       float64(requests) / wall,
		P50MS:                 lat.Quantile(0.50) * 1000,
		P99MS:                 lat.Quantile(0.99) * 1000,
		Coalesced:             st.Coalesced,
		Rejected:              st.Rejected,
		CoalesceStormRequests: stormSize,
		SharedCacheHitRate:    st.Backends["AB"].HitRate,
		FlipLookups:           st.Backends["AB"].FlipLookups,
		FlipHits:              st.Backends["AB"].FlipHits,
		FlipMemoHitRate:       st.Backends["AB"].FlipHitRate,
	}, telemetry.Default.SeriesCount(), scrapeBytes, nil
}

// clusterWorker is one in-process certa-serve-shaped worker of the
// cluster probe, listening on a real ephemeral TCP port.
type clusterWorker struct {
	svc   *certa.ScoringService
	srv   *certa.Server
	url   string
	close func()
}

// startClusterWorker stands up one worker over the shared fixture:
// its own capacity-bounded scoring service and result memo, the shared
// trained model and candidate index (identical engine options in every
// worker and in the direct reference, so bodies can be byte-compared).
func startClusterWorker(bench *certa.Benchmark, model *certa.Matcher, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64, parallelism, capacity, memoCap int, name string) (*clusterWorker, error) {
	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism, Capacity: capacity})
	srv, err := certa.NewServer([]certa.ServerBackend{{
		Name: "AB", Left: bench.Left, Right: bench.Right, Model: model,
		Options: certa.Options{Triangles: 100, Seed: seed, Parallelism: parallelism, Retrieval: idx},
		Pairs:   pairs, Service: svc,
	}}, certa.ServerOptions{Name: name, MaxInFlight: parallelism, MaxQueue: 256, ResultMemo: memoCap})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	return &clusterWorker{
		svc:   svc,
		srv:   srv,
		url:   "http://" + ln.Addr().String(),
		close: func() { httpSrv.Close(); srv.Close() },
	}, nil
}

// postExplain issues one pair_index request and returns the body.
func postExplain(base string, pairIdx int) ([]byte, error) {
	resp, err := http.Post(base+"/v1/explain", "application/json",
		strings.NewReader(fmt.Sprintf(`{"pair_index":%d}`, pairIdx)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// runClusterProbe measures what consistent-hash sharding buys when no
// single worker's stores can hold the whole workload. An enumeration
// pass sizes the score keyspace exactly; every worker in both
// configurations then gets the same per-worker bounds — score-cache
// capacity fitting the ring's largest shard working set, result-memo
// capacity fitting the ring's largest request slice — so each ring
// worker keeps its slice of the keyspace resident at both tiers while
// the single worker must evict. The cycling request stream is LRU's
// worst case (each key's reuse distance is the whole cycle), and the
// client is sequential, so the measured speedup is cache locality
// through shard routing, not CPU parallelism. Both configurations sit
// behind a real certa-router over real TCP; the warm-up cycle —
// computed fresh in every configuration, before any memo can hit — is
// byte-compared against a direct router-less server's bodies, and memo
// replays are byte-identical to those by construction (the memo stores
// the rendered bytes).
func runClusterProbe(bench *certa.Benchmark, model *certa.Matcher, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64, parallelism, workers int) (*clusterMetrics, error) {
	if workers < 2 {
		return nil, fmt.Errorf("cluster probe: need at least 2 workers, got %d", workers)
	}
	enumSvc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
	if _, err := certa.ExplainBatch(model, bench.Left, bench.Right, pairs, certa.Options{
		Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: enumSvc, Retrieval: idx,
	}); err != nil {
		return nil, err
	}
	keys := enumSvc.Keys()

	placement := make([]cluster.Member, workers)
	for i := range placement {
		placement[i] = cluster.Member{Name: fmt.Sprintf("w%d", i), URL: "http://placement.invalid"}
	}
	ring, err := cluster.NewRing(placement, 0)
	if err != nil {
		return nil, err
	}
	// A worker's cache working set is NOT its key shard: routing
	// partitions requests by pair content, but each explanation then
	// touches thousands of perturbed-variant and triangle-candidate keys
	// from across the whole keyspace. Size the capacity bound from the
	// real thing — group the pairs by ring owner, replay each group on a
	// fresh service, and take the largest group's unique key count.
	memberIdx := make(map[string]int, workers)
	for i, m := range ring.Members() {
		memberIdx[m.Name] = i
	}
	groups := make([][]certa.Pair, workers)
	for _, p := range pairs {
		wi := memberIdx[ring.Owner(scorecache.ShardHash(scorecache.Key(p))).Name]
		groups[wi] = append(groups[wi], p)
	}
	maxWorkingSet := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		gsvc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
		if _, err := certa.ExplainBatch(model, bench.Left, bench.Right, g, certa.Options{
			Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: gsvc, Retrieval: idx,
		}); err != nil {
			return nil, err
		}
		if n := gsvc.Len(); n > maxWorkingSet {
			maxWorkingSet = n
		}
	}
	// Largest per-worker working set plus headroom: the ring's workers
	// never need to evict. The single worker serves every pair, so the
	// same bound leaves it cycling a keyspace larger than its cache —
	// LRU's worst case.
	capacity := maxWorkingSet + maxWorkingSet/8
	// Same sizing rule one tier up: the result memo holds the largest
	// number of distinct pairs the ring routes to one worker, so a ring
	// worker's request slice fits exactly while the single worker cycles
	// the full pair set through it.
	memoCap := 0
	for _, g := range groups {
		if len(g) > memoCap {
			memoCap = len(g)
		}
	}

	// The direct reference: a router-less, unbounded server (no memo)
	// answers every pair once; all routed computed bodies below must
	// match these bytes.
	ref, err := startClusterWorker(bench, model, pairs, idx, seed, parallelism, 0, 0, "")
	if err != nil {
		return nil, err
	}
	refBodies := make([][]byte, len(pairs))
	for i := range pairs {
		if refBodies[i], err = postExplain(ref.url, i); err != nil {
			ref.close()
			return nil, fmt.Errorf("cluster probe reference: %w", err)
		}
	}
	ref.close()

	const cycles = 3
	timed := cycles * len(pairs)

	// runConfig measures one ring size end to end: cold warm-up cycle
	// (byte-compared against the reference), then the timed cycling load.
	runConfig := func(n int) (rps, hitRate, memoHitRate float64, entries int, identical bool, err error) {
		ws := make([]*clusterWorker, 0, n)
		defer func() {
			for _, w := range ws {
				w.close()
			}
		}()
		members := make([]cluster.Member, n)
		for i := 0; i < n; i++ {
			w, werr := startClusterWorker(bench, model, pairs, idx, seed, parallelism, capacity, memoCap, fmt.Sprintf("w%d", i))
			if werr != nil {
				return 0, 0, 0, 0, false, werr
			}
			ws = append(ws, w)
			members[i] = cluster.Member{Name: fmt.Sprintf("w%d", i), URL: w.url}
		}
		rt, rerr := cluster.NewRouter(members, cluster.Options{
			Keyspaces: []cluster.Keyspace{{Name: "AB", Left: bench.Left, Right: bench.Right, Pairs: pairs}},
		})
		if rerr != nil {
			return 0, 0, 0, 0, false, rerr
		}
		defer rt.Close()
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return 0, 0, 0, 0, false, lerr
		}
		httpRt := &http.Server{Handler: rt}
		go httpRt.Serve(ln)
		defer httpRt.Close()
		base := "http://" + ln.Addr().String()

		identical = true
		for i := range pairs {
			body, perr := postExplain(base, i)
			if perr != nil {
				return 0, 0, 0, 0, false, fmt.Errorf("cluster probe warm-up (%d workers): %w", n, perr)
			}
			if !bytes.Equal(body, refBodies[i]) {
				identical = false
			}
		}
		start := time.Now()
		for r := 0; r < timed; r++ {
			body, perr := postExplain(base, r%len(pairs))
			if perr != nil {
				return 0, 0, 0, 0, false, fmt.Errorf("cluster probe load (%d workers): %w", n, perr)
			}
			if !bytes.Equal(body, refBodies[r%len(pairs)]) {
				identical = false
			}
		}
		wall := time.Since(start).Seconds()

		var lookups, hits int
		var memoLookups, memoHits int64
		for _, w := range ws {
			st := w.svc.Stats()
			lookups += st.Lookups
			hits += st.Hits
			entries += w.svc.Len()
			if ms := w.srv.Stats().Backends["AB"].ResultMemo; ms != nil {
				memoLookups += ms.Lookups
				memoHits += ms.Hits
			}
		}
		if lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		if memoLookups > 0 {
			memoHitRate = float64(memoHits) / float64(memoLookups)
		}
		return float64(timed) / wall, hitRate, memoHitRate, entries, identical, nil
	}

	singleRPS, singleHit, singleMemoHit, singleEntries, singleIdentical, err := runConfig(1)
	if err != nil {
		return nil, err
	}
	ringRPS, ringHit, ringMemoHit, ringEntries, ringIdentical, err := runConfig(workers)
	if err != nil {
		return nil, err
	}
	return &clusterMetrics{
		Workers:                 workers,
		VirtualNodes:            ring.VirtualNodes(),
		UniqueScoreKeys:         len(keys),
		PerWorkerCacheCapacity:  capacity,
		PerWorkerResultMemo:     memoCap,
		WarmupRequests:          len(pairs),
		TimedRequests:           timed,
		SingleWorkerRPS:         singleRPS,
		RingRPS:                 ringRPS,
		Speedup:                 ringRPS / singleRPS,
		SingleWorkerHitRate:     singleHit,
		RingHitRate:             ringHit,
		SingleWorkerEntries:     singleEntries,
		RingAggregateEntries:    ringEntries,
		SingleWorkerMemoHitRate: singleMemoHit,
		RingMemoHitRate:         ringMemoHit,
		RoutedByteIdentical:     singleIdentical && ringIdentical,
	}, nil
}

// traceOverheadProbe measures what always-on span recording costs.
// The per-mode latency figures come from interleaved best-of-reps
// passes: the same workload explained with and without a
// telemetry.Trace on the context, twin fresh scoring services per rep
// so both modes pay identical model calls, each explanation with its
// own fresh Trace — the serving layer's shape (one trace per
// computation).
//
// The overhead estimate is DECOMPOSED, not subtracted: spans per
// explanation (counted from the traced pass's real span trees) times
// the measured unit cost of one span cycle, plus one extra unit for
// the per-explanation Trace setup. Subtracting the two end-to-end
// passes — the obvious estimator — was tried and rejected: on a
// loaded CI machine the difference of two ~20ms wall times swings by
// whole percents run to run (calibration runs with a synthetic
// injected overhead read back anywhere from a third to double the
// injected value), burying the microsecond-scale real cost the 2%
// gate watches. The decomposition is conservative where it
// simplifies: every span is priced at the dearer context-deriving
// StartSpan rate although most engine spans are the cheaper
// StartLeaf, and the unit loop appends every span to one parent, the
// worst case for the children slice. What it omits — tr.mu contention
// (a request records ~10 spans per millisecond against a
// microsecond-scale critical section) and GC pressure from span
// allocations (tens of KB against the explanation's MBs) — is orders
// of magnitude below the gate.
func traceOverheadProbe(bench *certa.Benchmark, model *certa.Matcher, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64, parallelism int) (plainNS, tracedNS, overheadNS float64, err error) {
	// The two modes are interleaved at PAIR granularity, and which mode
	// runs first alternates per couple, so the warm-predictor edge the
	// second back-to-back run of a pair gets lands on each mode equally
	// often. Twin creation order alternates per rep for the same
	// reason: a service inherits its creation-time heap neighborhood,
	// and a measured ~1% run-speed difference tracks creation order on
	// loaded machines. Each pair keeps its fastest rep per mode — a GC
	// pause or load burst lands on one explanation, and the per-pair
	// minimum sheds it.
	const reps = 4
	bestPlain := make([]float64, len(pairs))
	bestTraced := make([]float64, len(pairs))
	var spanCount, tracedExpls int64
	for i := range pairs {
		bestPlain[i], bestTraced[i] = math.MaxFloat64, math.MaxFloat64
	}
	for r := 0; r < reps; r++ {
		var svcP, svcT *certa.ScoringService
		if r%2 == 0 {
			svcP = certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
			svcT = certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
		} else {
			svcT = certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
			svcP = certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
		}
		runOne := func(i int, traced bool) error {
			svc := svcP
			ctx := context.Background()
			var tr *telemetry.Trace
			if traced {
				svc = svcT
				tr = telemetry.New()
				ctx = telemetry.WithTrace(ctx, tr)
			}
			opts := certa.Options{
				Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: svc, Retrieval: idx,
			}
			start := time.Now()
			if _, err := certa.ExplainBatchContext(ctx, model, bench.Left, bench.Right, pairs[i:i+1], opts); err != nil {
				return err
			}
			ns := float64(time.Since(start))
			if traced {
				bestTraced[i] = math.Min(bestTraced[i], ns)
				for _, st := range tr.Stages() {
					spanCount += st.Count
				}
				tracedExpls++
			} else {
				bestPlain[i] = math.Min(bestPlain[i], ns)
			}
			return nil
		}
		for i := range pairs {
			tracedFirst := (r+i)%2 == 1
			if err := runOne(i, tracedFirst); err != nil {
				return 0, 0, 0, err
			}
			if err := runOne(i, !tracedFirst); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	for i := range pairs {
		plainNS += bestPlain[i]
		tracedNS += bestTraced[i]
	}
	plainNS /= float64(len(pairs))
	tracedNS /= float64(len(pairs))
	spansPerExpl := float64(spanCount) / float64(tracedExpls)
	overheadNS = (spansPerExpl + 1) * spanUnitCostNS()
	return plainNS, tracedNS, overheadNS, nil
}

// spanUnitCostNS times one full span cycle — context-deriving
// StartSpan, AddItems, End — under a live trace, returning ns per
// cycle. 200k cycles take a few tens of ms, so the loop itself
// averages away scheduler noise.
func spanUnitCostNS() float64 {
	tr := telemetry.New()
	ctx := telemetry.WithTrace(context.Background(), tr)
	parent, pctx := telemetry.StartSpan(ctx, "unitbench")
	defer parent.End()
	cycle := func(n int) float64 {
		start := time.Now()
		for j := 0; j < n; j++ {
			sp, _ := telemetry.StartSpan(pctx, "unit")
			sp.AddItems(1)
			sp.End()
		}
		return float64(time.Since(start)) / float64(n)
	}
	cycle(1000) // warmup
	return cycle(200_000)
}

// retrievalMicrobench times the candidate retrieval alone: for every
// cluster pivot, stream the first 50 overlap-ranked candidates — the
// left table ranked ascending against the right pivot and vice versa,
// exactly the guided augmented search's access pattern — through the
// unindexed scan and through the prebuilt index.
func retrievalMicrobench(bench *certa.Benchmark, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64) (scanMS, indexMS float64) {
	scan := neighborhood.NewScanSources(bench.Left, bench.Right)
	const want = 50
	const rounds = 25
	timeSources := func(src *certa.CandidateIndex) float64 {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, p := range pairs {
				for _, q := range []struct {
					side certa.CandidateSource
					text string
					asc  bool
				}{
					{src.Left, p.Right.Text(), true},
					{src.Right, p.Left.Text(), false},
				} {
					stream := q.side.Ranked(seed, q.text, q.asc)
					for i := 0; i < want; i++ {
						if _, ok := stream.Next(); !ok {
							break
						}
					}
				}
			}
		}
		return float64(time.Since(start)) / float64(time.Millisecond)
	}
	return timeSources(scan), timeSources(idx)
}

// anytimeSweepPoint explains the workload once at the given CallBudget
// under a fresh scoring service and summarizes throughput and quality
// against the reference (unlimited) results.
func anytimeSweepPoint(model certa.Model, left, right *certa.Table, pairs []certa.Pair, idx *certa.CandidateIndex, seed int64, parallelism, budget int, reference []*certa.Result) (anytimePoint, error) {
	svc := certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: parallelism})
	start := time.Now()
	results, err := certa.ExplainBatch(model, left, right, pairs, certa.Options{
		Triangles: 100, Seed: seed, Parallelism: parallelism, Shared: svc,
		CallBudget: budget, Retrieval: idx,
	})
	if err != nil {
		return anytimePoint{}, err
	}
	return summarizeAnytime(budget, time.Since(start).Seconds(), results, reference), nil
}

// summarizeAnytime folds one budget run into its curve entry. The
// quality quantities come from eval.SummarizeAnytime, so the JSON curve
// and the eval harness's anytime table measure exactly the same thing
// (certa.Result is an alias of core.Result).
func summarizeAnytime(budget int, wall float64, results, reference []*certa.Result) anytimePoint {
	s := eval.SummarizeAnytime(results, reference)
	return anytimePoint{
		CallBudget:            budget,
		ExplanationsPerSec:    float64(len(results)) / wall,
		TruncatedFraction:     s.TruncatedFraction,
		MeanCompleteness:      s.MeanCompleteness,
		SaliencyTop2Agreement: s.Top2Agreement,
		CFValidity:            s.CFValidity,
		MeanModelCalls:        s.MeanModelCalls,
	}
}
