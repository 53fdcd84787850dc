#!/bin/sh
# CI gate: vet, certa-lint, build, full test suite, a one-iteration benchmark smoke
# pass, and the batched-pipeline perf probe (BENCH_explain.json, which
# records explanations/sec, cache hit rate and the anytime
# quality-vs-budget curve across PRs).
#
# Every test invocation carries a per-package -timeout so a cancellation
# deadlock in the context paths fails CI instead of hanging it.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

# certa-lint runs the repo's own analyzers (maporder, nodrift,
# diagpure, ctxthread, wiretag — see internal/lint/CATALOG.md) through
# go vet's -vettool protocol, before the test stage so contract
# violations fail fast.
echo "== certa-lint (custom analyzers via go vet -vettool) =="
go build -o bin/certa-lint ./cmd/certa-lint
go vet -vettool="$(pwd)/bin/certa-lint" ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test -timeout 300s ./...

# A short native-fuzz pass over the augmentation's token-drop helper:
# DropVariants must equal DropFirstTokens/DropLastTokens for every k.
echo "== fuzz (FuzzDropTokenVariants, 10s) =="
go test -run '^$' -fuzz FuzzDropTokenVariants -fuzztime 10s ./internal/strutil

echo "== race (context + shared scoring pipeline + retrieval layer + scoring engine + matcher memo + HTTP serving + lattice + telemetry + cluster routing) =="
go test -race -timeout 600s ./internal/scorecache/ ./internal/workpool/ ./internal/core/ ./internal/neighborhood/ ./internal/nn/ ./internal/embedding/ ./internal/matchers/ ./internal/server/ ./internal/lattice/ ./internal/telemetry/ ./internal/cluster/

# The lattice-pruning paths specifically, under the race detector at
# Parallelism 8 (TestLatticePruneDeterministic and friends run inside the
# package sweeps above too; this names them so a -run filter regression
# can't silently drop them).
echo "== race (pruned-mode determinism) =="
go test -race -timeout 300s -run 'Prune' ./internal/lattice/ ./internal/core/ ./internal/server/

echo "== bench smoke =="
go test -timeout 600s -bench=. -benchtime=1x -run='^$' .

# servesmoke builds certa-serve itself, boots it on an ephemeral port,
# issues a cold + warm request, restarts it from its cache snapshot and
# asserts the warm hit rate.
echo "== certa-serve smoke (ephemeral port, warm+cold request, snapshot restart) =="
go run ./scripts/servesmoke

# ringsmoke boots a 2-worker ring behind certa-router, SIGKILLs one
# worker mid-load and asserts failover keeps every response succeeding
# byte-identically while the stats surface reports the degraded ring.
echo "== certa-router smoke (2-worker ring, mid-load worker kill, failover) =="
go run ./scripts/ringsmoke

echo "== perf probe (anytime call-budget sweep + HTTP serve load + index probe) =="
go run ./cmd/certa-bench -benchjson BENCH_explain.json -parallelism 4 -call-budget 250,1000,2500,0
cat BENCH_explain.json

# The retrieval-layer probe must be present: an "index" section with a
# recorded build time and the scan-vs-index retrieval comparison.
echo "== bench index probe assertions =="
grep -q '"index"' BENCH_explain.json
grep -q '"build_ms"' BENCH_explain.json
grep -q '"retrieval_speedup"' BENCH_explain.json
echo "index section present, build_ms recorded"

# The scoring-engine probe must be present: forward-pass kernel speedup,
# embedding-store and store-peek reuse, and the trajectory vs the
# recorded baseline throughput.
echo "== bench scoring probe assertions =="
grep -q '"scoring"' BENCH_explain.json
grep -q '"forward_pass_speedup"' BENCH_explain.json
grep -q '"embedding_store_hit_rate"' BENCH_explain.json
grep -q '"flip_memo_hit_rate"' BENCH_explain.json
grep -q '"speedup_vs_pr5_baseline"' BENCH_explain.json
echo "scoring section present"

# The pruning probe must be present: the pruned pass's throughput and
# question ledger plus its saliency-agreement quality gate.
echo "== bench pruning probe assertions =="
grep -q '"pruning"' BENCH_explain.json
grep -q '"pruned_queries_per_explanation"' BENCH_explain.json
grep -q '"question_reduction_vs_exact"' BENCH_explain.json
grep -q '"saliency_top2_agreement"' BENCH_explain.json
grep -q '"speedup_vs_pr7_baseline"' BENCH_explain.json
grep -q '"featurize_speedup"' BENCH_explain.json
echo "pruning section present"

# The telemetry probe must be present: the registry's series footprint,
# the scrape size, and the measured per-explanation tracing overhead.
echo "== bench telemetry probe assertions =="
grep -q '"telemetry"' BENCH_explain.json
grep -q '"series_count"' BENCH_explain.json
grep -q '"scrape_bytes"' BENCH_explain.json
grep -q '"trace_overhead_ns_per_explanation"' BENCH_explain.json
grep -q '"trace_overhead_pct"' BENCH_explain.json
echo "telemetry section present"

# The scale-out probe must be present: the sharded-ring-vs-single-worker
# throughput comparison, the per-worker capacity bounds it ran at, and
# the routing transparency check.
echo "== bench cluster probe assertions =="
grep -q '"cluster"' BENCH_explain.json
grep -q '"speedup_ring_vs_1_worker"' BENCH_explain.json
grep -q '"per_worker_cache_capacity"' BENCH_explain.json
grep -q '"per_worker_result_memo"' BENCH_explain.json
grep -q '"result_memo_hit_rate_ring"' BENCH_explain.json
grep -q '"routed_byte_identical_to_direct": true' BENCH_explain.json
echo "cluster section present, routed responses byte-identical to direct"

# Numeric gates. The serve section's flip_memo_hit_rate measures
# cross-explanation reuse — the share of flip questions answered by a
# score-store peek (the load cycles its pairs, so warm passes answer
# lattice and support-search questions from the store): it must clear
# 0.2. The pruning section's saliency_top2_agreement is the pruned
# estimator's quality gate: it must clear 0.9. Section order in the
# JSON is index, anytime, serve, scoring, pruning, telemetry, cluster
# — the awk scripts key on the section name before reading the field.
echo "== bench numeric gates =="
serve_flip=$(awk -F': ' '/"serve"/{s=1} s && /"flip_memo_hit_rate"/{gsub(/,/,"",$2); print $2; exit}' BENCH_explain.json)
echo "serve flip_memo_hit_rate: $serve_flip (gate: >= 0.2)"
awk "BEGIN{exit !($serve_flip >= 0.2)}"
# The serve probe's load generator must actually contend: a workload
# that never coalesces identical in-flight requests isn't exercising
# the layer the probe exists to measure.
serve_coalesced=$(awk -F': ' '/"serve"/{s=1} s && /"coalesced"/{gsub(/,/,"",$2); print $2; exit}' BENCH_explain.json)
echo "serve coalesced: $serve_coalesced (gate: > 0)"
awk "BEGIN{exit !($serve_coalesced > 0)}"
agreement=$(awk -F': ' '/"pruning"/{p=1} p && /"saliency_top2_agreement"/{gsub(/,/,"",$2); print $2; exit}' BENCH_explain.json)
echo "pruning saliency_top2_agreement: $agreement (gate: >= 0.9)"
awk "BEGIN{exit !($agreement >= 0.9)}"
# The telemetry section's trace_overhead_pct is the observability tax:
# per-explanation tracing must cost under 2% of the untraced pipeline.
overhead=$(awk -F': ' '/"telemetry"/{t=1} t && /"trace_overhead_pct"/{gsub(/,/,"",$2); print $2; exit}' BENCH_explain.json)
echo "telemetry trace_overhead_pct: $overhead (gate: < 2)"
awk "BEGIN{exit !($overhead < 2)}"
# The cluster section's headline: the 4-worker ring must deliver at
# least 3x the single worker's explanation throughput on the cycling
# blocked-cluster workload at equal per-worker capacity.
cluster_speedup=$(awk -F': ' '/"cluster"/{c=1} c && /"speedup_ring_vs_1_worker"/{gsub(/,/,"",$2); print $2; exit}' BENCH_explain.json)
echo "cluster speedup_ring_vs_1_worker: $cluster_speedup (gate: >= 3)"
awk "BEGIN{exit !($cluster_speedup >= 3)}"
