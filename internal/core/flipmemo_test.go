package core

import (
	"reflect"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
	"certa/internal/scorecache"
)

// flipWorkload builds the batch the store peek exists for:
// pivot-sharing pairs (one left record against several rights, whose
// candidate scans share the score store) plus re-requested pairs —
// explanations of content already explained, as a long-lived shared
// service sees them, whose lattice perturbations repeat key-for-key.
func flipWorkload(t *testing.T, n, repeats int) (*dataset.Benchmark, []record.Pair) {
	t.Helper()
	b, pairs := benchPairs(t, "AB", n+1)
	pivot := pairs[0].Left
	out := make([]record.Pair, 0, n+repeats)
	for _, p := range pairs[1 : n+1] {
		out = append(out, record.Pair{Left: pivot, Right: p.Right})
	}
	out = append(out, out[:repeats]...)
	return b, out
}

// TestFlipMemoCrossExplanationReduction is the store peek's end-to-end
// gate: on a batch with repeated pair contents, flip questions that an
// earlier explanation already scored are answered by a peek instead of a
// store lookup — every view miss reaches the store exactly once, as a
// peek hit or as a fetch, so lookups fall by exactly the peek hits — no
// content is scored twice, and Results are byte-identical at
// Parallelism 1 or 8 and to a sequential private-cache run.
func TestFlipMemoCrossExplanationReduction(t *testing.T) {
	b, expl := flipWorkload(t, 6, 3)

	run := func(par int) ([]*Result, *scorecache.Service) {
		svc := scorecache.NewService(textModel{}, scorecache.ServiceOptions{Parallelism: par})
		e := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5, Parallelism: par, Shared: svc})
		res, err := e.ExplainBatch(textModel{}, expl)
		if err != nil {
			t.Fatal(err)
		}
		return res, svc
	}

	res1, svc := run(1)
	st := svc.Stats()
	if st.FlipHits == 0 {
		t.Fatalf("pivot-sharing explanations produced no peek hits: %+v", st)
	}
	viewMisses := 0
	for _, r := range res1 {
		viewMisses += r.Diag.ModelCalls
	}
	if st.Lookups+st.FlipHits != viewMisses {
		t.Errorf("store lookups %d + peek hits %d != %d view misses", st.Lookups, st.FlipHits, viewMisses)
	}
	if st.Misses != svc.Len() {
		t.Errorf("%d model calls for %d distinct contents: some content was scored twice", st.Misses, svc.Len())
	}

	par8, _ := run(8)
	if !reflect.DeepEqual(res1, par8) {
		t.Fatal("results differ between Parallelism 1 and 8")
	}

	// Gold standard: a sequential run with a private cache per
	// explanation (no sharing, no cross-explanation reuse possible).
	seq := New(b.Left, b.Right, Options{Triangles: 10, Seed: 5})
	for i, p := range expl {
		want, err := seq.Explain(textModel{}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res1[i], want) {
			t.Fatalf("pair %d (%s): shared-store result differs from private sequential run", i, p.Key())
		}
	}
}
