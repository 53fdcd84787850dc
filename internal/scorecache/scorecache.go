// Package scorecache provides the memoizing, batching scoring layer
// wrapped around a black-box ER model. CERTA's cost is dominated by
// model calls, and the perturbations it scores repeat heavily: triangles
// that share support records (or supports that agree on the copied
// values) generate identical perturbed pairs, the counterfactual
// materialization re-scores pairs the lattice exploration already asked
// about, and — across explanations — pairs that share a pivot record
// re-score the very same support candidates.
//
// The layer is split in two:
//
//   - Service is the shared, concurrency-safe store: one sharded score
//     cache (striped locks keyed by Key) with in-flight deduplication,
//     meant to live for a whole ExplainBatch or harness run. Every
//     distinct pair content is scored exactly once per run, and two
//     concurrent explanations that miss on the same content trigger
//     exactly one model call.
//   - Scorer is a per-explanation view over a Service. Its statistics
//     are computed against the view's own key set, so an explanation's
//     Diagnostics are exactly what a private cache would have reported —
//     deterministic at any parallelism and independent of what other
//     explanations already cached — while the actual scoring is
//     deduplicated globally.
//
// Unique misses are pushed through the model's batch entry point
// (explain.BatchModel) in parallel shards.
//
// Both layers are cancellation-aware (explain.ContextModel): waits on
// another explanation's in-flight computation return ctx.Err() as soon
// as the caller's context is cancelled, and a cancelled evaluation never
// installs a partial batch into the shared store — surviving waiters
// re-claim the keys under their own contexts, so one caller's deadline
// cannot poison results for everyone else.
package scorecache

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"sync"

	"certa/internal/explain"
	"certa/internal/record"
	"certa/internal/telemetry"
)

// Options tunes a Scorer view.
type Options struct {
	// Parallelism bounds the worker goroutines that evaluate one batch's
	// cache misses (default 1). Results are index-aligned and therefore
	// identical at any setting.
	Parallelism int
	// Disabled turns memoization off: every lookup reaches the model,
	// bypassing both the view and the shared store. Batching still
	// applies. Used by the core ablation that measures the cache against
	// the seed scoring path.
	Disabled bool
}

// Stats reports the work one Scorer view performed. The counters are
// view-local: Hits and Misses are computed against the keys this view
// has seen, exactly as a private cache would report them, so they are
// deterministic even when the underlying store is shared.
type Stats struct {
	// Lookups counts score requests served (batch elements included).
	Lookups int
	// Hits counts requests answered from the view's key set, including
	// duplicates resolved within a single batch.
	Hits int
	// Misses counts unique evaluations the view requested — the model
	// calls a private cache would have made. When the view layers over a
	// shared Service, some of them are answered by the store without
	// reaching the model; ServiceStats counts the true invocations.
	Misses int
	// Batches counts logical batch evaluations forwarded to the store
	// (independent of how many parallel shards executed them).
	Batches int
}

// HitRate returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Scorer is a per-explanation memoizing view over a shared Service. It
// implements explain.Model and explain.BatchModel and is safe for
// concurrent use, though the intended pattern is one Scorer per
// explanation so cache statistics stay deterministic.
type Scorer struct {
	svc  *Service
	opts Options

	mu    sync.Mutex
	local map[string]float64
	stats Stats
}

// New wraps a model in a private scoring view: a fresh single-view
// Service plus the Scorer over it. The model's batch entry point is used
// when it has one; plain models fall back to per-pair Score calls.
func New(m explain.Model, opts Options) *Scorer {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	// A single-view store has no cross-view contention; one stripe
	// avoids allocating 32 maps per explanation.
	svc := NewService(m, ServiceOptions{Parallelism: opts.Parallelism, Shards: 1})
	return svc.NewScorer(opts)
}

// Name implements explain.Model.
func (s *Scorer) Name() string { return s.svc.Name() }

// Underlying returns the wrapped model, bypassing the cache and its
// statistics — for instrumentation queries that must not count as
// algorithm cost.
func (s *Scorer) Underlying() explain.BatchModel { return s.svc.Underlying() }

// Service returns the shared store this view scores through.
func (s *Scorer) Service() *Service { return s.svc }

// Stats returns a snapshot of the view's counters.
func (s *Scorer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Score implements explain.Model through the cache.
func (s *Scorer) Score(p record.Pair) float64 {
	return s.ScoreBatch([]record.Pair{p})[0]
}

// ScoreBatch implements explain.BatchModel: duplicates inside the batch
// and pairs seen by earlier calls are answered from the view, and only
// the remaining unique pairs are forwarded to the shared store — in one
// logical batch, answered from the store when another explanation
// already paid for them and scored by the model otherwise.
//
// The error-less BatchModel surface cannot report a model failure: a
// native explain.ContextModel that errors under this uncancellable
// context panics (see the ContextModel contract — drive fallible models
// through ScoreBatchContext instead).
func (s *Scorer) ScoreBatch(pairs []record.Pair) []float64 {
	out, err := s.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		// Unreachable for plain and batch models.
		panic(fmt.Sprintf("scorecache: model %q failed outside cancellation: %v", s.Name(), err))
	}
	return out
}

// ScoreBatchContext implements explain.ContextModel: ScoreBatch under a
// caller context. Cancellation aborts store waits and model calls with
// ctx.Err(); the view's counters still record the batch's lookups and
// misses (they were requested), but no score from an aborted batch is
// installed in the view or the shared store.
func (s *Scorer) ScoreBatchContext(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	if len(pairs) == 0 {
		return out, ctx.Err()
	}

	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = Key(p)
	}

	// Resolve view hits and collect unique misses in first-occurrence
	// order.
	var misses []string
	var missPairs []record.Pair
	missAt := make(map[string]int) // key -> index into misses
	pending := make([][]int, 0)    // miss index -> output slots

	s.mu.Lock()
	s.stats.Lookups += len(pairs)
	for i, k := range keys {
		if !s.opts.Disabled {
			if v, ok := s.local[k]; ok {
				out[i] = v
				s.stats.Hits++
				continue
			}
			if mi, ok := missAt[k]; ok {
				// Duplicate within this batch: scored once, fanned out.
				pending[mi] = append(pending[mi], i)
				s.stats.Hits++
				continue
			}
		}
		missAt[k] = len(misses)
		misses = append(misses, k)
		missPairs = append(missPairs, pairs[i])
		pending = append(pending, []int{i})
	}
	if len(misses) > 0 {
		s.stats.Misses += len(misses)
		s.stats.Batches++
	}
	s.mu.Unlock()

	if len(misses) == 0 {
		return out, nil
	}

	var scores []float64
	var err error
	if s.opts.Disabled {
		scores, err = s.svc.direct(ctx, missPairs, s.opts.Parallelism)
	} else {
		scores, err = s.svc.fetch(ctx, misses, missPairs)
	}
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	for mi, k := range misses {
		if !s.opts.Disabled {
			s.local[k] = scores[mi]
		}
		for _, slot := range pending[mi] {
			out[slot] = scores[mi]
		}
	}
	s.mu.Unlock()
	return out, nil
}

// ScoreFlipsContext answers the oracle question of the lattice and the
// support search — does this pair's predicted class differ from y? It
// is ScoreFlipsKeyedContext with the keys derived from the materialized
// pairs; callers that can compute keys without building the pairs (via
// PerturbKeyer or CandidateKeyer) should use the keyed entry point
// directly so store-resident questions skip pair materialization
// entirely.
func (s *Scorer) ScoreFlipsContext(ctx context.Context, pairs []record.Pair, y bool) ([]bool, error) {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = Key(p)
	}
	return s.ScoreFlipsKeyedContext(ctx, keys, y, func(i int) record.Pair { return pairs[i] })
}

// flipsViaScores is the cache-disabled path: score everything, threshold.
func (s *Scorer) flipsViaScores(ctx context.Context, pairs []record.Pair, y bool) ([]bool, error) {
	scores, err := s.ScoreBatchContext(ctx, pairs)
	if err != nil {
		return nil, err
	}
	flips := make([]bool, len(scores))
	for i, v := range scores {
		flips[i] = (v > 0.5) != y
	}
	return flips, nil
}

// ScoreFlipsKeyedContext is the streaming form of ScoreFlipsContext: the
// caller supplies canonical keys (see Key, PerturbKeyer and
// CandidateKeyer) up front and a materialize callback invoked only for
// the questions that truly need a record.Pair — the ones the store
// cannot answer yet. keys[i] must equal Key(materialize(i)); materialize
// is called at most once per index.
//
// Resolution order per question: the view classifies every key against
// its private key set exactly as ScoreBatchContext would — local scores
// and in-batch duplicates are view hits, unique unseen keys are view
// misses — and only the misses are peeked in the shared store (one
// FlipLookup each; a hit means some explanation already scored this
// exact pair content, so its score answers the question with no model
// call, no singleflight wait and no pair materialization). Peeked
// scores join the view's key set like fetched ones. Stats, and
// therefore Diagnostics and the anytime budgets they feed, are
// identical to the unkeyed path and independent of what the store
// happens to hold. Only the misses the peek cannot answer — absent,
// evicted or still in flight — are materialized and fetched.
func (s *Scorer) ScoreFlipsKeyedContext(ctx context.Context, keys []string, y bool, materialize func(i int) record.Pair) ([]bool, error) {
	if s.opts.Disabled {
		pairs := make([]record.Pair, len(keys))
		for i := range keys {
			pairs[i] = materialize(i)
		}
		return s.flipsViaScores(ctx, pairs, y)
	}

	out := make([]bool, len(keys))
	if len(keys) == 0 {
		return out, ctx.Err()
	}

	// missOf maps every key index the view could not answer to its
	// unique miss; -1 marks the answered ones.
	missOf := make([]int, len(keys))
	var misses []int // key index of each unique unseen key
	missAt := make(map[string]int, len(keys))

	s.mu.Lock()
	s.stats.Lookups += len(keys)
	for i, k := range keys {
		missOf[i] = -1
		if v, ok := s.local[k]; ok {
			out[i] = (v > 0.5) != y
			s.stats.Hits++
			continue
		}
		if mi, ok := missAt[k]; ok {
			missOf[i] = mi
			s.stats.Hits++
			continue
		}
		missAt[k] = len(misses)
		missOf[i] = len(misses)
		misses = append(misses, i)
	}
	if len(misses) > 0 {
		// Peek-answered misses count like any other: the view requested a
		// unique evaluation it had never seen, exactly what a private
		// cache would charge — which keeps Diagnostics (and the anytime
		// budget they feed) deterministic however the misses get answered.
		s.stats.Misses += len(misses)
		s.stats.Batches++
	}
	s.mu.Unlock()

	if len(misses) == 0 {
		return out, nil
	}

	missKeys := make([]string, len(misses))
	for mi, ki := range misses {
		missKeys[mi] = keys[ki]
	}
	// The peek is the trace's "memo" stage: how long the store took to
	// answer (or decline) this batch of unique unseen questions.
	sp := telemetry.StartLeaf(ctx, "memo")
	scores, found := s.svc.peek(missKeys)
	sp.AddItems(len(missKeys))
	sp.End()

	var fidx []int // miss indexes the peek could not answer
	for mi, ok := range found {
		if !ok {
			fidx = append(fidx, mi)
		}
	}
	if len(fidx) > 0 {
		fkeys := make([]string, len(fidx))
		fpairs := make([]record.Pair, len(fidx))
		for j, mi := range fidx {
			fkeys[j] = missKeys[mi]
			fpairs[j] = materialize(misses[mi])
		}
		fetched, err := s.svc.fetch(ctx, fkeys, fpairs)
		if err != nil {
			return nil, err
		}
		for j, mi := range fidx {
			scores[mi] = fetched[j]
		}
	}

	s.mu.Lock()
	for mi, k := range missKeys {
		s.local[k] = scores[mi]
	}
	s.mu.Unlock()
	for i, mi := range missOf {
		if mi >= 0 {
			out[i] = (scores[mi] > 0.5) != y
		}
	}
	return out, nil
}

// Key renders the canonical content of a pair: schema names and every
// attribute value, length-framed so distinct contents cannot collide.
// Record IDs are deliberately excluded — augmentation mints synthetic
// IDs for otherwise identical perturbations, and models score values,
// not identifiers.
func Key(p record.Pair) string {
	var b strings.Builder
	writeRecord(&b, p.Left)
	b.WriteByte('|')
	writeRecord(&b, p.Right)
	return b.String()
}

func writeRecord(b *strings.Builder, r *record.Record) {
	if r == nil {
		b.WriteString("<nil>")
		return
	}
	writeHeader(b, r.Schema.Name)
	for _, v := range r.Values {
		writeValue(b, v)
	}
}

// writeHeader writes a record's schema name. It is length-framed like
// the values: written bare, a schema named "S;1:x" would collide with a
// schema "S" holding the value "x".
func writeHeader(b *strings.Builder, name string) {
	b.WriteString(strconv.Itoa(len(name)))
	b.WriteByte('#')
	b.WriteString(name)
}

// writeValue writes one attribute value as a ";len:value" fragment.
func writeValue(b *strings.Builder, v string) {
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(len(v)))
	b.WriteByte(':')
	b.WriteString(v)
}
