package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"certa"
	"certa/internal/cluster"
	"certa/internal/server"
)

// The serve workload's traffic. A request is a hot repeat of a cluster
// pair (answered by the result memo), a fresh seeded left x right pair
// (a cold computation that writes the score store and the embedding
// store), a repeat of a fresh pair in the slot right after it (it
// arrives while the first computes, so the coalescer answers it), or a
// fresh pair under an anytime knob (call_budget or lattice_prune). A
// share of the requests are /v1/explain/batch requests over hot pairs,
// which the router partitions across its workers. The shares are
// an assumption: the repository holds no record of served traffic. The
// repeat share sits far from 50% so p50 falls inside the memo-replay
// mode of the bimodal latency. The exact fresh share is about twice the
// 5% beyond p95, so p95 falls in the middle of the computation mode
// rather than at its edge, where it would jump between runs.
const (
	exactShare  = 0.11
	budgetShare = 0.015
	pruneShare  = 0.015
	dupShare    = 0.01 // repeats of an exact fresh pair
	batchShare  = 0.10
	batchItems  = 4

	callBudget     = 150
	pruneThreshold = 0.25

	// The backends run what certa-serve runs with its defaults
	// (-triangles 100, the engine's augmentation budget, -parallelism 4,
	// -max-queue 64, an unbounded score cache) with two flags set:
	// -result-memo 64, since the default 0 turns off the memo this
	// workload exercises, and -max-inflight one below the client's
	// connection count, so two concurrent computations queue and
	// admission is under load.
	serveParallelism = 4
	maxQueue         = 64
	resultMemo       = 64
	ringWorkers      = 2

	// latencyLimit is the p95 a named step must meet, above the 100-250
	// ms a lone computation takes. maxLag is how far behind schedule
	// the generator may fall before it drops a request as failed; the
	// overload step stays within it down to about half the rate the
	// servers sustain now.
	latencyLimit  = 500 * time.Millisecond
	maxLag        = 10 * time.Second
	clientTimeout = 20 * time.Second

	// sampleShare is the chance that a fresh response is checked
	// against its reference; maxSamples caps the reference work.
	sampleShare = 0.10
	maxSamples  = 8
)

// ladder is the fixed rate ladder in requests per second; each step
// gets the given share of --seconds. The named steps report latency;
// each holds at least 200 requests at --seconds 32, so at least 10 lie
// beyond p95. Even high keeps the computations busy for well under
// half of the time, so p50 stays inside the memo-replay mode; the ring
// sustains about 60-80 rps on two CPUs. The last step offers more than
// the servers sustain, so its requests complete at the rate they do
// sustain: sustained_rps.
var ladder = []struct {
	name  string
	rps   float64
	share float64
}{
	{"low", 16, 0.39},
	{"mid", 21, 0.30},
	{"high", 26, 0.24},
	{"overload", 120, 0.07},
}

// warmFresh is how many fresh computations the warm-up runs, one at a
// time, so the first step does not pay for the stores' first growth.
const warmFresh = 8

// serveState is a running serve workload after set-up.
type serveState struct {
	bench       *certa.Benchmark
	hot         []certa.Pair
	blob        []byte // the trained matcher, serialized
	base        string // the router's URL
	models      []*timedModel
	workerBases []string // the servers' own URLs
	closers     []func()
	idx         *certa.CandidateIndex
	buildMS     float64
}

func (s *serveState) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// listen serves h on a loopback port and registers its shutdown.
func (s *serveState) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		hs.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// setupServe starts the workload's ring: ringWorkers servers behind a
// router. Traced runs wrap each worker's matcher in the model timing
// wrapper.
func setupServe(traced bool) (*serveState, error) {
	b, m, err := trainFixture("AB")
	if err != nil {
		return nil, err
	}
	hot, err := clusterFixture.pairs(b)
	if err != nil {
		return nil, err
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	s := &serveState{bench: b, hot: hot, blob: blob}
	idx := certa.NewCandidateIndex(b.Left, b.Right)
	s.idx = idx
	if is, ok := idx.Stats(); ok {
		s.buildMS = is.BuildMS
	}
	var members []cluster.Member
	for w := 0; w < ringWorkers; w++ {
		// Every worker owns its matcher, as separate processes would.
		wm, err := restoreMatcher(blob)
		if err != nil {
			s.close()
			return nil, err
		}
		tm := &timedModel{m: wm}
		s.models = append(s.models, tm)
		var model certa.Model = wm
		if traced {
			model = tm
		}
		opts := serveOptions()
		opts.Retrieval = idx
		name := "w" + strconv.Itoa(w)
		srv, err := certa.NewServer([]certa.ServerBackend{{
			Name: "AB", Left: b.Left, Right: b.Right, Model: model, Options: opts, Pairs: hot,
			Service: certa.NewScoringService(model, certa.ScoringServiceOptions{Parallelism: serveParallelism}),
		}}, certa.ServerOptions{Name: name, MaxInFlight: max(1, parallelism()-1), MaxQueue: maxQueue, ResultMemo: resultMemo})
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, srv.Close)
		url, err := s.listen(srv)
		if err != nil {
			s.close()
			return nil, err
		}
		s.workerBases = append(s.workerBases, url)
		members = append(members, cluster.Member{Name: name, URL: url})
	}
	rt, err := cluster.NewRouter(members, cluster.Options{
		Keyspaces: []cluster.Keyspace{{Name: "AB", Left: b.Left, Right: b.Right, Pairs: hot}},
	})
	if err != nil {
		s.close()
		return nil, err
	}
	s.closers = append(s.closers, rt.Close)
	if s.base, err = s.listen(rt); err != nil {
		s.close()
		return nil, err
	}
	// Warm-up: every hot pair once, so the result memos hold the hot
	// set and the matchers' embedding stores are warm.
	client := newClient(1, clientTimeout)
	defer client.CloseIdleConnections()
	for i := range hot {
		if _, err := post(client, s.base+"/v1/explain", hotBody(i)); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// serveOptions are the serving backends' explainer settings: the
// library workloads' settings at certa-serve's default parallelism.
func serveOptions() certa.Options {
	opts := engineOptions()
	opts.Parallelism = serveParallelism
	return opts
}

// reference computes reference Results on a matcher restored for the
// call, so references leave the serving matchers' caches and counters
// untouched and hold no memory during the measured window.
func (s *serveState) reference(pairs []certa.Pair, opts certa.Options) (map[string]*certa.Result, error) {
	m, err := restoreMatcher(s.blob)
	if err != nil {
		return nil, err
	}
	return reference(m, s.bench.Left, s.bench.Right, pairs, opts)
}

func hotBody(i int) []byte { return []byte(`{"pair_index":` + strconv.Itoa(i) + `}`) }

// post sends one request and returns the body of a 200 response.
func post(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, out)
	}
	return out, nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return out, nil
}

// freshReq is one fresh request: a pair no earlier request asked
// about, with its anytime knob (zero Options: exact exploration). A
// dup request is sent a second time in the slot right after it.
type freshReq struct {
	pair  certa.Pair
	knobs certa.Options
	dup   bool
}

// stepCounts splits a step of n requests into its classes; the rest
// are hot repeats.
func stepCounts(n int) (batch, exact, budget, prune, dup int) {
	round := func(x float64) int { return int(x + 0.5) }
	return round(float64(n) * batchShare), round(float64(n) * exactShare), round(float64(n) * budgetShare),
		round(float64(n) * pruneShare), round(float64(n) * dupShare)
}

// stepSize is the number of requests of a ladder step.
func stepSize(rps, share, seconds float64) int { return int(rps*share*seconds + 0.5) }

// freshPools draws every step's fresh requests from the fixture seed:
// distinct left x right pairs that are not hot pairs, one disjoint
// slice per step and one for the warm-up. Every run of a step thus
// computes the same explanations.
func freshPools(s *serveState, seconds float64) [][]freshReq {
	rng := rand.New(rand.NewSource(fixtureSeed))
	used := map[string]bool{}
	for _, p := range s.hot {
		used[p.Key()] = true
	}
	l, r := s.bench.Left, s.bench.Right
	pools := make([][]freshReq, len(ladder)+1) // the last one is the warm-up's
	for k := range pools {
		exact, budget, prune, dup := warmFresh, 0, 0, 0
		if k < len(ladder) {
			st := ladder[k]
			_, exact, budget, prune, dup = stepCounts(stepSize(st.rps, st.share, seconds))
		}
		// Pair j joins lefts[j%L] with rights[(j+j/L)%R], which visits
		// every left x right pair once (L+1 and R are coprime at the
		// fixture's 120 x 360). The first L pairs share no record, so in
		// the named steps (at most L fresh pairs each) how much one
		// computation reuses another's work does not depend on order.
		lefts, rights := rng.Perm(l.Len()), rng.Perm(r.Len())
		for j := 0; len(pools[k]) < exact+budget+prune; j++ {
			if j == l.Len()*r.Len() {
				panic("serve fixture: not enough distinct fresh pairs")
			}
			li, ri := j%len(lefts), (j+j/len(lefts))%len(rights)
			pair := certa.Pair{Left: l.Records[lefts[li]], Right: r.Records[rights[ri]]}
			if used[pair.Key()] {
				continue
			}
			used[pair.Key()] = true
			fr := freshReq{pair: pair}
			switch i := len(pools[k]); {
			case i < exact:
				// dup of the exact pairs, evenly spread over them.
				fr.dup = (i+1)*dup/exact > i*dup/exact
			case i < exact+budget:
				fr.knobs.CallBudget = callBudget
			default:
				fr.knobs.LatticePrune = certa.PrunePolicy{Threshold: pruneThreshold, MinLevels: 1}
			}
			pools[k] = append(pools[k], fr)
		}
	}
	return pools
}

// planner draws the seeded request stream.
type planner struct {
	rng     *rand.Rand
	s       *serveState
	samples []freshReq
}

// Slot classes of a step's layout; a fresh slot holds its pool index.
const (
	hotSlot   = -1
	batchSlot = -2
	dupSlot   = -3 // dupSlot-j repeats pool entry j
)

// plan lays out one step at a constant rate: request i is due at
// (i+1/2)*span/n. The fresh requests, in pool order, and the batches
// sit at evenly spread positions, each repeat of a fresh pair in the
// first free slot after it, and hot repeats fill the rest, so every run
// of a step sends the same computations at the same times. Their
// arrangement decides how often two computations overlap and hold both
// client connections, which moves p95 and even p50 by up to 2x between
// arrangements, so a seeded arrangement would make the run-to-run
// spread measure the draw. --seed decides which hot pairs are repeated,
// which make up each batch, and which fresh pairs the output check
// samples (each with a sampleShare chance).
func (p *planner) plan(n int, span time.Duration, pool []freshReq) []plannedRequest {
	batch, _, _, _, _ := stepCounts(n)
	slots := make([]int, n)
	for i := range slots {
		slots[i] = hotSlot
	}
	// free returns the first free slot at or after i.
	free := func(i int) int {
		for slots[i%n] != hotSlot {
			i++
		}
		return i % n
	}
	for j, idx := range p.rng.Perm(len(pool)) {
		i := free(int((float64(j) + 0.5) * float64(n) / float64(len(pool))))
		slots[i] = idx
		if pool[idx].dup {
			slots[free(i+1)] = dupSlot - idx
		}
	}
	for j := 0; j < batch; j++ {
		slots[free(int((float64(j)+0.25)*float64(n)/float64(batch)))] = batchSlot
	}
	tags := map[int]int{} // pool index -> sample slot, or -1
	plan := make([]plannedRequest, n)
	for i := range plan {
		due := time.Duration((float64(i) + 0.5) * float64(span) / float64(n))
		switch slot := slots[i]; {
		case slot == hotSlot:
			h := p.rng.Intn(len(p.s.hot))
			plan[i] = plannedRequest{due: due, path: "/v1/explain", kind: "hot", tag: h, body: hotBody(h)}
		case slot == batchSlot:
			items := make([]string, batchItems)
			for k, h := range p.rng.Perm(len(p.s.hot))[:batchItems] {
				items[k] = string(hotBody(h))
			}
			plan[i] = plannedRequest{due: due, path: "/v1/explain/batch", kind: "batch",
				body: []byte(`{"requests":[` + strings.Join(items, ",") + `]}`)}
		default:
			idx := slot
			if slot <= dupSlot {
				idx = dupSlot - slot
			}
			fr := pool[idx]
			req := server.ExplainRequest{LeftID: fr.pair.Left.ID, RightID: fr.pair.Right.ID, CallBudget: fr.knobs.CallBudget}
			if pp := fr.knobs.LatticePrune; pp.Threshold > 0 {
				req.LatticePrune = &server.WirePrunePolicy{Threshold: pp.Threshold, MinLevels: pp.MinLevels}
			}
			body, _ := json.Marshal(req) // plain struct: cannot fail
			tag, seen := tags[idx]
			if !seen {
				tag = -1
				if len(p.samples) < maxSamples && p.rng.Float64() < sampleShare {
					tag = len(p.samples)
					p.samples = append(p.samples, fr)
				}
				tags[idx] = tag
			}
			plan[i] = plannedRequest{due: due, path: "/v1/explain", kind: "fresh", tag: tag, key: fr.pair.Key(), body: body}
		}
	}
	return plan
}

// stepResult is one ladder step's outcome.
type stepResult struct {
	name                    string
	rps                     float64
	sent, succeeded, failed int
	latencies, lags         []float64 // ms
	explanations            int
	roundTripMS             float64
	// servedRPS is the step's successful requests over the time from
	// its start to its last completion.
	servedRPS float64
}

// checker verifies response bodies against references.
type checker struct {
	hotWant  []string          // expected saliency+counterfactuals per hot pair
	verified map[string]bool   // bodies already checked
	samples  map[int][]byte    // fresh sample slot -> response body
	fresh    map[string]string // fresh pair key -> first answer's output
}

// outputOf extracts the checked part of an explanation response.
func outputOf(body []byte) (string, error) {
	var resp struct {
		Error  string `json:"error"`
		Result *struct {
			Saliency        json.RawMessage `json:"saliency"`
			Counterfactuals json.RawMessage `json:"counterfactuals"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", err
	}
	if resp.Error != "" || resp.Result == nil {
		return "", fmt.Errorf("response carries no result: %s", resp.Error)
	}
	return string(resp.Result.Saliency) + "|" + string(resp.Result.Counterfactuals), nil
}

// wantOf renders a reference Result in the same form.
func wantOf(res *certa.Result) (string, error) {
	sal, err := json.Marshal(res.Saliency)
	if err != nil {
		return "", err
	}
	cf := []byte{}
	if len(res.Counterfactuals) > 0 {
		if cf, err = json.Marshal(res.Counterfactuals); err != nil {
			return "", err
		}
	}
	return string(sal) + "|" + string(cf), nil
}

// checkHot reports whether body is a correct answer for hot pair i.
func (c *checker) checkHot(i int, body []byte) bool {
	key := strconv.Itoa(i) + "\x00" + string(body)
	if ok, seen := c.verified[key]; seen {
		return ok
	}
	got, err := outputOf(body)
	ok := err == nil && got == c.hotWant[i]
	c.verified[key] = ok
	return ok
}

// checkOutcome applies the output check to one completed request.
func (c *checker) checkOutcome(p plannedRequest, o outcome) (ok bool, items int) {
	if o.err != nil || o.status != http.StatusOK {
		return false, 0
	}
	switch p.kind {
	case "hot":
		return c.checkHot(p.tag, o.body), 1
	case "fresh":
		if p.tag >= 0 {
			c.samples[p.tag] = o.body
		}
		got, err := outputOf(o.body)
		if err != nil {
			return false, 0
		}
		// A repeated fresh pair must get the answer the first one got.
		if first, seen := c.fresh[p.key]; seen {
			return got == first, 1
		}
		c.fresh[p.key] = got
		return true, 1
	case "batch":
		var resp struct {
			Responses []json.RawMessage `json:"responses"`
		}
		var req server.BatchRequest
		if json.Unmarshal(o.body, &resp) != nil || json.Unmarshal(p.body, &req) != nil || len(resp.Responses) != len(req.Requests) {
			return false, 0
		}
		for k, item := range resp.Responses {
			if !c.checkHot(*req.Requests[k].PairIndex, item) {
				return false, 0
			}
		}
		return true, len(resp.Responses)
	}
	return false, 0
}

// runStep sends one ladder step and summarizes it.
func runStep(ctx context.Context, loop *openLoop, pl *planner, c *checker, name string, rps float64, n int, span time.Duration, pool []freshReq) stepResult {
	plan := pl.plan(n, span, pool)
	outs := loop.run(ctx, plan)
	r := stepResult{name: name, rps: rps, sent: n}
	var end time.Duration
	for i, o := range outs {
		lat, lag := ms(o.latency), ms(o.lag)
		r.latencies = append(r.latencies, lat)
		r.lags = append(r.lags, lag)
		end = max(end, plan[i].due+o.latency)
		if ok, items := c.checkOutcome(plan[i], o); ok {
			r.succeeded++
			r.explanations += items
			r.roundTripMS += lat - lag
		} else {
			r.failed++
		}
	}
	r.servedRPS = float64(r.succeeded) / end.Seconds()
	return r
}

func runServe(cfg runConfig) (*report, error) {
	s, setupS, err := medianSetup(setupRepeats, func() (*serveState, error) { return setupServe(cfg.traced) }, func(s *serveState) { s.close() })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	c := &checker{verified: map[string]bool{}, samples: map[int][]byte{}, fresh: map[string]string{}}
	refOpts := serveOptions()
	hotRef, err := s.reference(s.hot, refOpts)
	if err != nil {
		return nil, err
	}
	for _, p := range s.hot {
		want, err := wantOf(hotRef[p.Key()])
		if err != nil {
			return nil, err
		}
		c.hotWant = append(c.hotWant, want)
	}

	workers := parallelism()
	client := newClient(workers, clientTimeout)
	defer client.CloseIdleConnections()
	loop := &openLoop{client: client, base: s.base, workers: workers, maxLag: maxLag}
	pl := &planner{rng: rand.New(rand.NewSource(cfg.seed)), s: s}
	pools := freshPools(s, cfg.seconds)

	// Unmeasured warm-up: a few fresh computations one at a time, then a
	// second of hot traffic that opens the client connections and lets
	// the set-up's garbage be collected before the first step.
	for _, fr := range pools[len(ladder)] {
		body, _ := json.Marshal(server.ExplainRequest{LeftID: fr.pair.Left.ID, RightID: fr.pair.Right.ID})
		if _, err := post(client, s.base+"/v1/explain", body); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	warm := make([]plannedRequest, 50)
	for i := range warm {
		h := i % len(s.hot)
		warm[i] = plannedRequest{due: time.Duration(i) * 20 * time.Millisecond, path: "/v1/explain", body: hotBody(h)}
	}
	loop.run(context.Background(), warm)

	var before *layerSnapshot
	if cfg.traced {
		if before, err = snapshotLayers(client, s); err != nil {
			return nil, err
		}
	}
	cpu0, ms0, wall0 := cpuTime(), memStats(), time.Now()
	ctx := context.Background()
	var steps []stepResult
	for k, st := range ladder {
		span := time.Duration(st.share * cfg.seconds * float64(time.Second))
		n := stepSize(st.rps, st.share, cfg.seconds)
		steps = append(steps, runStep(ctx, loop, pl, c, st.name, st.rps, n, span, pools[k]))
	}
	window, cpu1, ms1 := time.Since(wall0), cpuTime(), memStats()
	// Everything the measured values read is taken before the reference
	// work of the output check below.
	var after *layerSnapshot
	var heapMB float64
	if cfg.traced {
		if after, err = snapshotLayers(client, s); err != nil {
			return nil, err
		}
	} else {
		heapMB = heapLiveMB()
	}
	for _, r := range steps {
		fmt.Fprintf(os.Stderr, "step %-8s %4.0f rps: sent %d succeeded %d failed %d, p50 %.2f ms, p95 %.1f ms, served %.1f rps\n",
			r.name, r.rps, r.sent, r.succeeded, r.failed, quantile(r.latencies, 0.5), quantile(r.latencies, 0.95), r.servedRPS)
	}

	// The output check of the sampled fresh responses, outside the
	// measured window.
	var attempted, failed int
	for _, r := range steps {
		attempted += r.sent
		failed += r.failed
	}
	// Samples are grouped by their anytime knob, one reference call
	// per group.
	groups := map[certa.Options][]int{}
	for slot, fr := range pl.samples {
		if _, ok := c.samples[slot]; ok { // a failed request is already counted
			groups[fr.knobs] = append(groups[fr.knobs], slot)
		}
	}
	for knobs, slots := range groups {
		opts := refOpts
		opts.CallBudget = knobs.CallBudget
		opts.LatticePrune = knobs.LatticePrune
		var pairs []certa.Pair
		for _, slot := range slots {
			pairs = append(pairs, pl.samples[slot].pair)
		}
		ref, err := s.reference(pairs, opts)
		if err != nil {
			return nil, err
		}
		for _, slot := range slots {
			want, err := wantOf(ref[pl.samples[slot].pair.Key()])
			if err != nil {
				return nil, err
			}
			if got, err := outputOf(c.samples[slot]); err != nil || got != want {
				failed++
			}
		}
	}

	if cfg.traced {
		vals := serveLayerValues(s, steps, before, after)
		vals["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		vals["runtime.cpu_util"] = (cpu1 - cpu0).Seconds() / (window.Seconds() * float64(runtime.GOMAXPROCS(0)))
		vals["neighborhood.build_ms"] = s.buildMS
		if vals["telemetry.trace_overhead_pct"], err = s.traceOverheadPct(); err != nil {
			return nil, err
		}
		if vals["stages.residual_pct"] > residualBoundPct {
			failed++
		}
		return newReport(attempted, failed, fillMetrics(perLayer, vals)), nil
	}

	vals := map[string]float64{"setup_s": setupS, "heap_live_mb": heapMB}
	for _, r := range steps {
		switch r.name {
		case "low", "mid", "high":
			vals["p50_ms."+r.name] = quantile(r.latencies, 0.50)
			vals["p95_ms."+r.name] = quantile(r.latencies, 0.95)
		}
	}
	sustained := sustainedStep(steps)
	vals["sustained_rps"] = sustained.servedRPS
	if sustained.succeeded > 0 { // a batch request carries several explanations
		vals["expl_per_s"] = sustained.servedRPS * float64(sustained.explanations) / float64(sustained.succeeded)
	}
	vals["fail_ratio"] = failRatio(attempted, failed)
	runtime.KeepAlive(s)
	return newReport(attempted, failed, fillMetrics(endToEnd, vals)), nil
}

// sustainedStep returns the step whose served rate is sustained_rps.
// The overload step runs the servers past what they sustain, so a
// backlog builds and it completes its requests at the highest rate
// that does not grow one. That rate counts only while every named step
// meets latencyLimit with no failures; otherwise the highest named step
// that does counts (the lowest one when none does).
func sustainedStep(steps []stepResult) stepResult {
	for k, r := range steps[:len(steps)-1] {
		if r.failed > 0 || quantile(r.latencies, 0.95) > ms(latencyLimit) {
			return steps[max(k-1, 0)]
		}
	}
	return steps[len(steps)-1]
}
