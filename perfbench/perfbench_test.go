package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"certa"
	"certa/internal/telemetry"
)

// Every cold pass must start from a matcher whose embedding store has
// never been used, or explain-wide-cold would measure warm caches.
func TestColdPassStartsWithEmptyEmbeddingStore(t *testing.T) {
	st, err := setupLibrary(wideColdFixture)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		m, err := st.matcher()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.EmbeddingStats().Lookups; got != 0 {
			t.Fatalf("pass %d starts with %d embedding lookups, want 0", pass, got)
		}
		if _, _, _, err := st.call(context.Background(), m, st.pairs[:2]); err != nil {
			t.Fatal(err)
		}
		if m.EmbeddingStats().Lookups == 0 {
			t.Fatalf("pass %d never used the embedding store", pass)
		}
	}
}

// The model timing wrapper and the trace must not change any Result.
func TestTracedAndUntracedResultsAreIdentical(t *testing.T) {
	st, err := setupLibrary(clusterFixture)
	if err != nil {
		t.Fatal(err)
	}
	pairs := st.pairs[:4]
	bare, _, _, err := st.call(context.Background(), st.model, pairs)
	if err != nil {
		t.Fatal(err)
	}
	tm := &timedModel{m: st.model}
	tr := telemetry.New()
	traced, _, _, err := st.call(telemetry.WithTrace(context.Background(), tr), tm, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Fatal("traced results differ from untraced results")
	}
	if tm.calls.Load() == 0 || tm.rows.Load() == 0 {
		t.Fatal("the wrapper timed no model calls")
	}
	if _, ok := selfTimes(tr.Tree())["model_call"]; !ok {
		t.Fatal("no model_call spans in the trace")
	}
}

// A stalled response must delay the requests due behind it, and the
// generator must charge that delay to their latency.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	plan := make([]plannedRequest, 10)
	for i := range plan {
		plan[i] = plannedRequest{due: time.Duration(i) * 20 * time.Millisecond, path: "/"}
	}
	client := newClient(1, 5*time.Second)
	defer client.CloseIdleConnections()
	loop := &openLoop{client: client, base: srv.URL, workers: 1}
	outs := loop.run(context.Background(), plan)
	for i, o := range outs {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, o.status, o.err)
		}
	}
	if outs[0].latency < stall {
		t.Fatalf("stalled request took %v, want at least %v", outs[0].latency, stall)
	}
	// Request 1 was due 20ms in but could only be sent once the stall
	// ended: its latency counts the wait, not just its own round trip.
	if want := stall - 20*time.Millisecond; outs[1].latency < want || outs[1].lag < want-10*time.Millisecond {
		t.Fatalf("request after the stall: latency %v lag %v, want both near %v", outs[1].latency, outs[1].lag, want)
	}
	if last := outs[len(outs)-1]; last.lag > stall/2 {
		t.Fatalf("generator never caught up: last lag %v", last.lag)
	}
}

// A step's layout must hold the planned count of each class, and every
// repeat of a fresh pair must follow its first request with no other
// fresh request between them, so it arrives while the first computes
// and the coalescer answers it.
func TestPlanPlacesRepeatsAfterTheirFreshPair(t *testing.T) {
	s := &serveState{hot: make([]certa.Pair, 16)}
	const n = 300
	batch, exact, budget, prune, dup := stepCounts(n)
	fresh := exact + budget + prune
	var pool []freshReq
	for i := 0; i < fresh; i++ {
		id := strconv.Itoa(i)
		fr := freshReq{pair: certa.Pair{Left: &certa.Record{ID: "l" + id}, Right: &certa.Record{ID: "r" + id}}}
		fr.dup = i < exact && (i+1)*dup/exact > i*dup/exact
		pool = append(pool, fr)
	}
	pl := &planner{rng: rand.New(rand.NewSource(7)), s: s}
	plan := pl.plan(n, time.Second, pool)
	count := map[string]int{}
	last := map[string]int{} // pair -> slot of its latest request
	for i, p := range plan {
		count[p.kind]++
		if p.kind != "fresh" {
			continue
		}
		if j, seen := last[p.key]; seen {
			for k := j + 1; k < i; k++ {
				if plan[k].kind == "fresh" {
					t.Fatalf("fresh slot %d between %s at %d and its repeat at %d", k, p.key, j, i)
				}
			}
		}
		last[p.key] = i
	}
	if count["batch"] != batch || count["fresh"] != fresh+dup || count["hot"] != n-batch-fresh-dup {
		t.Fatalf("layout %v, want batch %d fresh %d (+%d repeats)", count, batch, fresh, dup)
	}
	if dup == 0 || len(last) != fresh {
		t.Fatalf("%d distinct fresh pairs, %d repeats", len(last), dup)
	}
}

// sustained_rps reads the overload step only while every named step
// meets the latency limit without failures.
func TestSustainedStepHonoursTheLatencyLimit(t *testing.T) {
	fast, slow := []float64{1, 2, 100}, []float64{1, 2, 2 * ms(latencyLimit)}
	steps := []stepResult{
		{name: "low", latencies: fast, servedRPS: 20},
		{name: "mid", latencies: fast, servedRPS: 27},
		{name: "high", latencies: fast, servedRPS: 34},
		{name: "overload", latencies: slow, servedRPS: 80},
	}
	if got := sustainedStep(steps).name; got != "overload" {
		t.Fatalf("all named steps within the limit: got %s, want overload", got)
	}
	steps[1].latencies = slow
	if got := sustainedStep(steps).name; got != "low" {
		t.Fatalf("mid over the limit: got %s, want low", got)
	}
	steps[1].latencies, steps[2].failed = fast, 1
	if got := sustainedStep(steps).name; got != "mid" {
		t.Fatalf("a failure at high: got %s, want mid", got)
	}
}

func span(name string, start, dur float64, children ...*telemetry.WireSpan) *telemetry.WireSpan {
	return &telemetry.WireSpan{Name: name, StartMS: start, DurationMS: dur, Children: children}
}

func TestSelfTimes(t *testing.T) {
	// Sequential children: self time is duration minus the children.
	seq := span("root", 0, 10, span("a", 1, 3, span("leaf", 2, 1)), span("b", 5, 4))
	want := map[string]float64{"root": 3, "a": 2, "leaf": 1, "b": 4}
	if got := selfTimes(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("sequential: got %v, want %v", got, want)
	}
	// Overlapping children share the instants they run together, and
	// all shares still add up to the root's duration.
	par := span("root", 0, 10, span("a", 0, 6), span("b", 2, 6))
	got := selfTimes(par)
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-10) > 1e-9 || math.Abs(got["a"]-4) > 1e-9 || math.Abs(got["b"]-4) > 1e-9 || math.Abs(got["root"]-2) > 1e-9 {
		t.Fatalf("parallel: got %v (sum %v)", got, sum)
	}
}

// Time inside a computation that no stage span covers must stay out of
// the claimed stage time, so the residual gate can see it.
func TestUnspannedTimeIsNotClaimed(t *testing.T) {
	tree := span("explain", 0, 10, span("triangles", 0, 4, span("model", 1, 2)), span("lattice/left", 5, 2))
	v := map[string]float64{}
	self := map[string]float64{}
	for name, x := range selfTimes(tree) {
		self[stageClass(name)] += x
	}
	if claimed := stageValues(v, self); math.Abs(claimed-6) > 1e-9 {
		t.Fatalf("claimed %v ms of a 10 ms call with 4 ms unspanned, want 6", claimed)
	}
	if v["lattice.self_ms"] != 2 || v["core.triangles_self_ms"] != 2 || v["stages.model_self_ms"] != 2 {
		t.Fatalf("stage values %v", v)
	}
}

// The metric catalogue the benchmark prints must be the one
// BENCHMARK.json declares, names and units alike.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label     string
		catalogue []struct{ name, unit string }
		declared  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.catalogue) != len(c.declared) {
			t.Fatalf("%s: %d metrics in the catalogue, %d in BENCHMARK.json", c.label, len(c.catalogue), len(c.declared))
		}
		for i, m := range c.catalogue {
			if d := c.declared[i]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s[%d]: catalogue %s (%s), BENCHMARK.json %s (%s)", c.label, i, m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
}
