package matchers

import (
	"math"
	"strings"
	"sync"
	"testing"

	"certa/internal/dataset"
	"certa/internal/record"
)

// The IA fixture: a small DeepMatcher over IA's 8 aligned attributes,
// kept serialized so every test restores models whose memos start empty.
var (
	iaOnce  sync.Once
	iaBench *dataset.Benchmark
	iaBytes []byte
)

func iaFixture(t testing.TB) *dataset.Benchmark {
	iaOnce.Do(func() {
		iaBench = dataset.MustGenerate("IA", dataset.Options{Seed: 7, MaxRecords: 60, MaxMatches: 30})
		m := MustTrain(DeepMatcher, iaBench, Config{Seed: 7, Epochs: 5})
		var err error
		if iaBytes, err = m.MarshalBinary(); err != nil {
			panic(err)
		}
	})
	return iaBench
}

// freshIAModel restores the IA fixture with empty caches.
func freshIAModel(t testing.TB) *Model {
	t.Helper()
	iaFixture(t)
	var m Model
	if err := m.UnmarshalBinary(iaBytes); err != nil {
		t.Fatal(err)
	}
	return &m
}

// latticeBatch returns the pairs a CERTA lattice asks about for p: one
// row per subset of the left record's attributes, each subset's values
// taken from support (row 0 is p itself, the last row copies every
// attribute). Unchanged values share their strings with p, the way the
// explainer's perturbations do.
func latticeBatch(p record.Pair, support *record.Record) []record.Pair {
	n := len(p.Left.Values)
	out := make([]record.Pair, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		l := p.Left.Clone()
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				l.Values[i] = support.Values[i]
			}
		}
		out = append(out, record.Pair{Left: l, Right: p.Right})
	}
	return out
}

// checkBatchMatchesScore scores pairs in one batch on batch and one by
// one on scalar, and requires every score to agree bit for bit.
func checkBatchMatchesScore(t *testing.T, batch, scalar *Model, pairs []record.Pair) {
	t.Helper()
	got := batch.ScoreBatch(pairs)
	if len(got) != len(pairs) {
		t.Fatalf("%d scores for %d pairs", len(got), len(pairs))
	}
	for i, p := range pairs {
		if want := scalar.Score(p); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("pair %d: batch score %v != per-pair score %v", i, got[i], want)
		}
	}
}

// TestBatchLatticeMatchesScore: lattice-shaped batches (one pair × all
// 2^8 masks from a support record) score bit-identically to per-pair
// Score, on cold memos filled by either path first and on warm ones.
func TestBatchLatticeMatchesScore(t *testing.T) {
	b := iaFixture(t)
	batchFirst, scoreFirst := freshIAModel(t), freshIAModel(t)
	for i, lp := range b.Test[:4] {
		support := b.Left.Records[(i*7+3)%b.Left.Len()]
		pairs := latticeBatch(lp.Pair, support)
		if len(pairs) != 256 {
			t.Fatalf("lattice batch has %d rows, want 256", len(pairs))
		}
		checkBatchMatchesScore(t, batchFirst, scoreFirst, pairs)
		checkBatchMatchesScore(t, scoreFirst, batchFirst, pairs)
	}
}

// TestBatchEqualContentDifferentAddresses: values that are equal but
// live at different addresses miss the batch's identity table, yet
// score identically and share one memo entry per distinct content.
func TestBatchEqualContentDifferentAddresses(t *testing.T) {
	b := iaFixture(t)
	p := b.Test[0].Pair
	support := b.Left.Records[5]
	pairs := latticeBatch(p, support)
	// cloneValues copies r with every value moved to a new address.
	cloneValues := func(r *record.Record) *record.Record {
		c := r.Clone()
		for i, v := range c.Values {
			c.Values[i] = strings.Clone(v)
		}
		return c
	}
	clonedRight := cloneValues(p.Right)
	var mixed []record.Pair
	for i, q := range pairs {
		if i%2 == 1 {
			q = record.Pair{Left: cloneValues(q.Left), Right: clonedRight}
		}
		mixed = append(mixed, q)
	}
	plain, cloned := freshIAModel(t), freshIAModel(t)
	checkBatchMatchesScore(t, cloned, freshIAModel(t), mixed)
	want := plain.ScoreBatch(pairs)
	got := cloned.ScoreBatch(mixed)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: cloned values score %v, shared values %v", i, got[i], want[i])
		}
	}
	if pe, ce := plain.BlockMemoStats(), cloned.BlockMemoStats(); pe != ce || pe == 0 {
		t.Fatalf("memo entries: shared values %d, cloned values %d; want equal and non-zero", pe, ce)
	}
}

// TestBatchPrefixValues: a prefix of a value shares its data pointer
// (the support search's token-drop variants are such substrings), so
// only the length keeps the two apart in the identity table.
func TestBatchPrefixValues(t *testing.T) {
	b := iaFixture(t)
	p := b.Test[3].Pair
	var pairs []record.Pair
	for cut := 0; cut <= 8; cut++ {
		l := p.Left.Clone()
		for i, v := range l.Values {
			l.Values[i] = v[:len(v)*cut/8]
		}
		pairs = append(pairs, record.Pair{Left: l, Right: p.Right}, record.Pair{Left: p.Left, Right: l})
	}
	checkBatchMatchesScore(t, freshIAModel(t), freshIAModel(t), pairs)
}

// TestBatchMissingAttribute: a record whose schema lacks an aligned
// attribute reads it as NaN, on the batch path as on Score.
func TestBatchMissingAttribute(t *testing.T) {
	b := iaFixture(t)
	p := b.Test[1].Pair
	attrs := p.Right.Schema.Attrs
	short := record.MustSchema(p.Right.Schema.Name, attrs[:len(attrs)-1]...)
	r := record.MustNew(p.Right.ID, short, p.Right.Values[:len(attrs)-1]...)
	pairs := latticeBatch(record.Pair{Left: p.Left, Right: r}, b.Left.Records[2])
	pairs = append(pairs, p) // the full schema in the same batch
	checkBatchMatchesScore(t, freshIAModel(t), freshIAModel(t), pairs)
}

// TestBatchMixedSchemas: one batch mixes two distinct *Schema objects
// whose attributes are in different orders. Columns resolve per schema,
// so a reordered record scores exactly as its original does.
func TestBatchMixedSchemas(t *testing.T) {
	b := iaFixture(t)
	reorder := func(r *record.Record) *record.Record {
		n := len(r.Values)
		attrs, vals := make([]string, n), make([]string, n)
		for i := range attrs {
			attrs[i], vals[i] = r.Schema.Attrs[n-1-i], r.Values[n-1-i]
		}
		return record.MustNew(r.ID, record.MustSchema(r.Schema.Name, attrs...), vals...)
	}
	var pairs, reordered []record.Pair
	for i, lp := range b.Test[:3] {
		for _, q := range latticeBatch(lp.Pair, b.Left.Records[i+1])[:64] {
			pairs = append(pairs, q)
			reordered = append(reordered, record.Pair{Left: reorder(q.Left), Right: q.Right})
		}
	}
	var mixed []record.Pair
	for i := range pairs {
		if i%3 == 0 {
			mixed = append(mixed, reordered[i])
		} else {
			mixed = append(mixed, pairs[i])
		}
	}
	m := freshIAModel(t)
	checkBatchMatchesScore(t, m, freshIAModel(t), mixed)
	want, got := m.ScoreBatch(pairs), m.ScoreBatch(reordered)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: reordered schema scores %v, original %v", i, got[i], want[i])
		}
	}
}

// TestBatchConcurrentMatchesSequential: 8 goroutines score overlapping
// lattice batches on one fresh model (shared memo, shared scratch pool)
// and agree bit for bit with a model that scored them sequentially.
func TestBatchConcurrentMatchesSequential(t *testing.T) {
	b := iaFixture(t)
	const workers = 8
	batches := make([][]record.Pair, workers)
	for w := range batches {
		for k := 0; k < 3; k++ {
			i := (w + k) % 6 // neighbouring workers share two of three pairs
			batches[w] = append(batches[w], latticeBatch(b.Test[i].Pair, b.Left.Records[i+10])[w*16:w*16+96]...)
		}
	}
	seq := freshIAModel(t)
	want := make([][]float64, workers)
	for w, pairs := range batches {
		want[w] = seq.ScoreBatch(pairs)
	}
	shared := freshIAModel(t)
	got := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = shared.ScoreBatch(batches[w])
		}(w)
	}
	wg.Wait()
	for w := range want {
		for i := range want[w] {
			if math.Float64bits(got[w][i]) != math.Float64bits(want[w][i]) {
				t.Fatalf("worker %d row %d: concurrent score %v, sequential %v", w, i, got[w][i], want[w][i])
			}
		}
	}
	if se, ce := seq.BlockMemoStats(), shared.BlockMemoStats(); se != ce {
		t.Fatalf("memo entries: sequential %d, concurrent %d", se, ce)
	}
}

// TestScoreBatchLatticeAllocs guards the batch path's allocation
// profile: a warm 256-row lattice batch allocates nothing to featurize,
// and ScoreBatch as a whole allocates only its result slice — nothing
// per row and nothing per attribute lookup.
func TestScoreBatchLatticeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts at random; alloc counts are unreliable")
	}
	b := iaFixture(t)
	m := freshIAModel(t)
	pairs := latticeBatch(b.Test[0].Pair, b.Left.Records[4])
	m.ScoreBatch(pairs) // warm the memo, the embedding store and the pools
	dm := m.feat.(*deepMatcherFeat)
	text := m.text()
	dst := make([]float64, 0, len(pairs)*dm.dim())
	if a := testing.AllocsPerRun(20, func() { dst = dm.appendBatch(dst[:0], pairs, text) }); a != 0 {
		t.Errorf("featurizing a warm %d-row batch: %v allocs, want 0", len(pairs), a)
	}
	if a := testing.AllocsPerRun(20, func() { m.ScoreBatch(pairs) }); a > 1 {
		t.Errorf("ScoreBatch on a warm %d-row batch: %v allocs, want at most 1 (the result)", len(pairs), a)
	}
}

// BenchmarkScoreBatchLattice scores a 256-row IA lattice batch: "warm"
// on a model that has seen it, "cold" on a freshly restored model each
// iteration (the restore is not timed), as each explanation of a
// cold-matcher workload sees it.
func BenchmarkScoreBatchLattice(b *testing.B) {
	bench := iaFixture(b)
	pairs := latticeBatch(bench.Test[0].Pair, bench.Left.Records[4])
	b.Run("warm", func(b *testing.B) {
		m := freshIAModel(b)
		m.ScoreBatch(pairs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ScoreBatch(pairs)
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := freshIAModel(b)
			b.StartTimer()
			m.ScoreBatch(pairs)
		}
	})
}

// TestBlockMemoStats: the memo reports its size for DeepMatcher-style
// models, gains one entry per distinct value pair and nothing on a
// repeat; other architectures report zero.
func TestBlockMemoStats(t *testing.T) {
	_, models := testBenchmark(t)
	if n := models[DeepER].BlockMemoStats(); n != 0 {
		t.Errorf("DeepER reports %d block memo entries, want 0", n)
	}
	b := iaFixture(t)
	m := freshIAModel(t)
	if n := m.BlockMemoStats(); n != 0 {
		t.Fatalf("fresh model reports %d entries, want 0", n)
	}
	p := b.Test[2].Pair
	pairs := latticeBatch(p, b.Left.Records[9])
	m.ScoreBatch(pairs)
	distinct := make(map[valuePair]bool)
	for _, q := range pairs {
		for _, a := range m.feat.(*deepMatcherFeat).attrs {
			distinct[valuePair{q.Left.Value(a), q.Right.Value(a)}] = true
		}
	}
	if n := m.BlockMemoStats(); n != len(distinct) {
		t.Fatalf("after one lattice batch: %d entries, want %d distinct value pairs", n, len(distinct))
	}
	m.ScoreBatch(pairs)
	if n := m.BlockMemoStats(); n != len(distinct) {
		t.Fatalf("repeat batch grew the memo to %d entries", n)
	}
}
