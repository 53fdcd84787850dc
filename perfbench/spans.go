package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"certa"
	"certa/internal/embedding"
	"certa/internal/telemetry"
)

// timedModel is the traced run's model timing wrapper. It forwards
// Score, ScoreBatch, ScoreBatchContext and EmbeddingStats, so the
// engine and the server see the same capabilities as on the bare
// matcher and take the same code path. Every batch call is timed and
// recorded as a "model_call" span under the caller's current span, so
// the matcher's own featurize and forward spans nest below it. It also
// keeps every trace a call ran under, so a traced serve run can read
// the span trees of the server's computations.
type timedModel struct {
	m *certa.Matcher

	calls  atomic.Int64
	rows   atomic.Int64
	busyNS atomic.Int64
	traces sync.Map // *telemetry.Trace -> struct{}
}

func (t *timedModel) Name() string { return t.m.Name() }

func (t *timedModel) Score(p certa.Pair) float64 {
	out, _ := t.ScoreBatchContext(context.Background(), []certa.Pair{p})
	return out[0]
}

func (t *timedModel) ScoreBatch(pairs []certa.Pair) []float64 {
	out, _ := t.ScoreBatchContext(context.Background(), pairs)
	return out
}

func (t *timedModel) ScoreBatchContext(ctx context.Context, pairs []certa.Pair) ([]float64, error) {
	if tr := telemetry.FromContext(ctx); tr != nil {
		t.traces.LoadOrStore(tr, struct{}{})
	}
	sp, ctx := telemetry.StartSpan(ctx, "model_call")
	start := time.Now()
	out, err := t.m.ScoreBatchContext(ctx, pairs)
	t.busyNS.Add(int64(time.Since(start)))
	t.calls.Add(1)
	t.rows.Add(int64(len(pairs)))
	sp.AddItems(len(pairs))
	sp.End()
	return out, err
}

func (t *timedModel) EmbeddingStats() embedding.StoreStats { return t.m.EmbeddingStats() }

// takeTraces returns the traces recorded since the last call and
// forgets them.
func (t *timedModel) takeTraces() []*telemetry.Trace {
	var out []*telemetry.Trace
	t.traces.Range(func(k, _ any) bool {
		out = append(out, k.(*telemetry.Trace))
		t.traces.Delete(k)
		return true
	})
	return out
}

// stageValues fills the stage metrics from the self times of a run's
// span trees, folded by stageClass, and returns the time the stages
// claim: everything but the trace roots' own time.
func stageValues(v, self map[string]float64) (claimed float64) {
	v["scorecache.memo_ms"] = self["memo"]
	v["matchers.featurize_ms"] = self["featurize"]
	v["nn.forward_ms"] = self["forward"]
	v["lattice.self_ms"] = self["lattice"]
	v["neighborhood.retrieval_ms"] = self["retrieval"]
	v["core.triangles_self_ms"] = self["triangles"]
	v["core.counterfactuals_self_ms"] = self["counterfactuals"]
	v["stages.original_score_self_ms"] = self["original_score"]
	v["stages.model_self_ms"] = self["model"]
	v["stages.model_call_self_ms"] = self["model_call"]
	v["stages.engine_self_ms"] = self["original_score"] + self["triangles"] + self["retrieval"] + self["lattice"] + self["counterfactuals"]
	for name, x := range self {
		if name != "explain" {
			claimed += x
		}
	}
	return claimed
}

// selfTimes attributes the wall time of a span tree to span names. At
// every instant the time goes to the spans that are running and have
// no running child, split equally when several run at once. A span
// whose children do not overlap each other thus gets its duration
// minus the part its children cover, and the shares of all spans add
// up to the root's duration even when parallel workers overlap.
func selfTimes(root *telemetry.WireSpan) map[string]float64 {
	type flat struct {
		name       string
		start, end float64
		parent     int
		depth      int
	}
	var spans []flat
	var walk func(s *telemetry.WireSpan, parent, depth int)
	walk = func(s *telemetry.WireSpan, parent, depth int) {
		idx := len(spans)
		spans = append(spans, flat{s.Name, s.StartMS, s.StartMS + s.DurationMS, parent, depth})
		for _, c := range s.Children {
			walk(c, idx, depth+1)
		}
	}
	walk(root, -1, 0)

	type event struct {
		t     float64
		start bool
		span  int
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		events = append(events, event{s.start, true, i}, event{s.end, false, i})
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.start != b.start {
			return !a.start // ends first
		}
		if a.start {
			return spans[a.span].depth < spans[b.span].depth // parents start first
		}
		return spans[a.span].depth > spans[b.span].depth // children end first
	})

	active := make([]bool, len(spans))
	runningChildren := make([]int, len(spans))
	exposed := map[int]bool{}
	self := make(map[string]float64)
	prev := events[0].t
	for _, ev := range events {
		if dt := ev.t - prev; dt > 0 && len(exposed) > 0 {
			share := dt / float64(len(exposed))
			for i := range exposed {
				self[spans[i].name] += share
			}
		}
		prev = ev.t
		i, parent := ev.span, spans[ev.span].parent
		if ev.start {
			active[i] = true
			if runningChildren[i] == 0 {
				exposed[i] = true
			}
			if parent >= 0 {
				runningChildren[parent]++
				delete(exposed, parent)
			}
			continue
		}
		active[i] = false
		delete(exposed, i)
		if parent >= 0 {
			runningChildren[parent]--
			if runningChildren[parent] == 0 && active[parent] {
				exposed[parent] = true
			}
		}
	}
	return self
}

// stageClass folds span names into the stage classes the per-layer
// metrics report: lattice/left, lattice/level2... become "lattice",
// retrieval/natural and retrieval/rank become "retrieval".
func stageClass(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return name
}
