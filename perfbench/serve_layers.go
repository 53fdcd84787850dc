package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"certa"
	"certa/internal/cluster"
	"certa/internal/server"
	"certa/internal/telemetry"
)

// layerSnapshot holds the serving layers' counters at one instant,
// read through their public HTTP surfaces.
type layerSnapshot struct {
	stats   []server.StatsResponse // per worker
	metrics []map[string]float64   // per worker /v1/metrics samples
	router  map[string]float64     // router /v1/metrics samples
	ring    *cluster.RingStatsResponse
	rows    []int64 // matcher wrapper calls, rows, busy ns summed
	// self holds the stage self times of the computations traced since
	// the previous snapshot, folded by stageClass.
	self map[string]float64
}

func snapshotLayers(client *http.Client, s *serveState) (*layerSnapshot, error) {
	snap := &layerSnapshot{rows: make([]int64, 3)}
	for _, base := range s.workerBases {
		body, err := get(client, base+"/v1/stats")
		if err != nil {
			return nil, err
		}
		var st server.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("decoding stats: %w", err)
		}
		snap.stats = append(snap.stats, st)
		m, err := scrape(client, base)
		if err != nil {
			return nil, err
		}
		snap.metrics = append(snap.metrics, m)
	}
	var err error
	if snap.router, err = scrape(client, s.base); err != nil {
		return nil, err
	}
	body, err := get(client, s.base+"/v1/stats")
	if err != nil {
		return nil, err
	}
	snap.ring = new(cluster.RingStatsResponse)
	if err := json.Unmarshal(body, snap.ring); err != nil {
		return nil, fmt.Errorf("decoding ring stats: %w", err)
	}
	snap.self = map[string]float64{}
	for _, tm := range s.models {
		snap.rows[0] += tm.calls.Load()
		snap.rows[1] += tm.rows.Load()
		snap.rows[2] += tm.busyNS.Load()
		for _, tr := range tm.takeTraces() {
			for name, v := range selfTimes(tr.Tree()) {
				snap.self[stageClass(name)] += v
			}
		}
	}
	return snap, nil
}

// scrape reads a /v1/metrics exposition into sample name -> value.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	body, err := get(client, base+"/v1/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sumDelta sums after-before of one sample over every worker.
func sumDelta(before, after []map[string]float64, key string) float64 {
	var d float64
	for w := range after {
		d += after[w][key] - before[w][key]
	}
	return d
}

// serveLayerValues derives the per-layer metrics of a traced serve run
// from the counters before and after the ladder. The stage budget
// splits the summed client round trips into transport (round trip
// minus front handler), the router hop, handler time outside the
// computation (admission wait, coalescer attachment, memo lookup,
// decode and encode), and the computations' stage self times, read
// from the span trees of the server's own traces.
func serveLayerValues(s *serveState, steps []stepResult, before, after *layerSnapshot) map[string]float64 {
	v := map[string]float64{}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var sent, succeeded, failed int
	var lags []float64
	var roundTrip float64
	for k, r := range steps {
		sent += r.sent
		succeeded += r.succeeded
		failed += r.failed
		roundTrip += r.roundTripMS
		// The overload step falls behind on purpose; the generator's own
		// lag shows in the steps it can keep up with.
		if k < len(steps)-1 {
			lags = append(lags, r.lags...)
		}
	}
	v["loadgen.sent"] = float64(sent)
	v["loadgen.succeeded"] = float64(succeeded)
	v["loadgen.failed"] = float64(failed)
	v["loadgen.lag_p99_ms"] = quantile(lags, 0.99)

	for w := range after.stats {
		a, b := after.stats[w], before.stats[w]
		v["server.served"] += float64(a.Served - b.Served)
		v["server.memoized"] += float64(a.Memoized - b.Memoized)
		v["server.coalesced"] += float64(a.Coalesced - b.Coalesced)
		v["server.rejected"] += float64(a.Rejected - b.Rejected)
		v["server.queue_high_water"] = max(v["server.queue_high_water"], float64(a.QueueHighWater))
		ab, bb := a.Backends["AB"], b.Backends["AB"]
		v["scorecache.lookups"] += float64(ab.Lookups - bb.Lookups)
		v["scorecache.hits"] += float64(ab.Hits - bb.Hits)
		v["scorecache.misses"] += float64(ab.Misses - bb.Misses)
		v["scorecache.batches"] += float64(ab.Batches - bb.Batches)
		v["scorecache.evictions"] += float64(ab.Evictions - bb.Evictions)
		v["scorecache.flip_lookups"] += float64(ab.FlipLookups - bb.FlipLookups)
		v["scorecache.flip_hits"] += float64(ab.FlipHits - bb.FlipHits)
		if ab.Embedding != nil && bb.Embedding != nil {
			v["embedding.lookups"] += float64(ab.Embedding.Lookups - bb.Embedding.Lookups)
			v["embedding.hits"] += float64(ab.Embedding.Hits - bb.Embedding.Hits)
		}
		if ab.ResultMemo != nil && bb.ResultMemo != nil {
			v["memo.lookups"] += float64(ab.ResultMemo.Lookups - bb.ResultMemo.Lookups)
			v["memo.hits"] += float64(ab.ResultMemo.Hits - bb.ResultMemo.Hits)
		}
	}
	v["scorecache.hit_ratio"] = ratio(v["scorecache.hits"], v["scorecache.lookups"])
	v["scorecache.flip_hit_ratio"] = ratio(v["scorecache.flip_hits"], v["scorecache.flip_lookups"])
	v["embedding.hit_ratio"] = ratio(v["embedding.hits"], v["embedding.lookups"])
	v["server.memo_hit_ratio"] = ratio(v["memo.hits"], v["memo.lookups"])

	calls := float64(after.rows[0] - before.rows[0])
	v["matchers.rows"] = float64(after.rows[1] - before.rows[1])
	v["matchers.busy_ms"] = float64(after.rows[2]-before.rows[2]) / 1e6
	v["matchers.rows_per_batch"] = ratio(v["matchers.rows"], calls)

	const (
		httpHist    = "certa_http_request_duration_seconds"
		explainHist = "certa_explain_duration_seconds"
	)
	seconds := func(name, labels string) float64 {
		return 1000 * sumDelta(before.metrics, after.metrics, name+"_sum"+labels)
	}
	count := func(name, labels string) float64 {
		return sumDelta(before.metrics, after.metrics, name+"_count"+labels)
	}
	handleMS := seconds(httpHist, `{endpoint="/v1/explain"}`) + seconds(httpHist, `{endpoint="/v1/explain/batch"}`)
	handleN := count(httpHist, `{endpoint="/v1/explain"}`) + count(httpHist, `{endpoint="/v1/explain/batch"}`)
	explainMS := seconds(explainHist, `{backend="AB"}`)
	v["server.handle_ms_mean"] = ratio(handleMS, handleN)
	v["server.explain_ms_mean"] = ratio(explainMS, count(explainHist, `{backend="AB"}`))
	v["server.wait_ms_mean"] = ratio(handleMS-explainMS, handleN)

	rh := "certa_router_request_duration_seconds"
	routerMS := 1000 * (after.router[rh+`_sum{endpoint="/v1/explain"}`] - before.router[rh+`_sum{endpoint="/v1/explain"}`])
	routerN := after.router[rh+`_count{endpoint="/v1/explain"}`] - before.router[rh+`_count{endpoint="/v1/explain"}`]
	workerMS := seconds(httpHist, `{endpoint="/v1/explain"}`)
	workerN := count(httpHist, `{endpoint="/v1/explain"}`)
	v["cluster.hop_ms_mean"] = ratio(routerMS, routerN) - ratio(workerMS, workerN)
	routerBatchN := after.router[rh+`_count{endpoint="/v1/explain/batch"}`] - before.router[rh+`_count{endpoint="/v1/explain/batch"}`]
	v["cluster.batch_fanout"] = ratio(count(httpHist, `{endpoint="/v1/explain/batch"}`), routerBatchN)
	v["cluster.failovers"] = float64(after.ring.Failovers - before.ring.Failovers)
	var lo, hi float64
	for w := range after.stats {
		n := float64(after.stats[w].Backends["AB"].Requests - before.stats[w].Backends["AB"].Requests)
		if w == 0 || n < lo {
			lo = n
		}
		hi = max(hi, n)
	}
	v["cluster.balance"] = ratio(lo, hi)
	frontMS := routerMS + 1000*(after.router[rh+`_sum{endpoint="/v1/explain/batch"}`]-before.router[rh+`_sum{endpoint="/v1/explain/batch"}`])
	v["stages.hop_ms"] = frontMS - handleMS

	// The stage budget of the summed round trips. Every part but the
	// computations' unclaimed time is measured, so that time is the
	// residual: time inside a computation that no stage span covers,
	// or a computation the model wrapper never saw.
	claimed := stageValues(v, after.self)
	v["stages.wall_ms"] = roundTrip
	v["stages.transport_ms"] = roundTrip - frontMS
	v["stages.server_wait_ms"] = handleMS - explainMS
	v["stages.sum_self_ms"] = v["stages.transport_ms"] + v["stages.hop_ms"] + v["stages.server_wait_ms"] + claimed
	v["stages.root_self_ms"] = explainMS - claimed
	v["stages.residual_pct"] = 100 * ratio(math.Abs(v["stages.root_self_ms"]), roundTrip)
	v["lattice.self_share"] = ratio(v["lattice.self_ms"], roundTrip)
	return v
}

// traceOverheadPct prices the traced run's instrumentation on the
// computation the serving backends run: each hot pair is explained
// twice with the backend's options, bare and under a trace with the
// model timing wrapper, in alternating order, each on a fresh scoring
// service and a fresh matcher so both sides pay the same cold work.
// It returns traced wall minus untraced wall as a share of untraced.
func (s *serveState) traceOverheadPct() (float64, error) {
	opts := serveOptions()
	opts.Retrieval = s.idx
	var bare, traced time.Duration
	for i, p := range s.hot {
		for _, tr := range []bool{i%2 == 0, i%2 != 0} {
			m, err := restoreMatcher(s.blob)
			if err != nil {
				return 0, err
			}
			var model certa.Model = m
			ctx := context.Background()
			if tr {
				model = &timedModel{m: m}
				ctx = telemetry.WithTrace(ctx, telemetry.New())
			}
			o := opts
			o.Shared = certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: serveParallelism})
			start := time.Now()
			if _, err := certa.ExplainBatchContext(ctx, model, s.bench.Left, s.bench.Right, []certa.Pair{p}, o); err != nil {
				return 0, err
			}
			if tr {
				traced += time.Since(start)
			} else {
				bare += time.Since(start)
			}
		}
	}
	return 100 * float64(traced-bare) / float64(bare), nil
}
