package scorecache

import (
	"context"
	"strings"
	"testing"
	"time"

	"certa/internal/record"
)

// flipPairs builds pairs straddling the decision threshold: countingModel
// scores 2*len(a)/100, so a long "a" value predicts the positive class
// and a short one the negative class.
func flipPairs() []record.Pair {
	long := strings.Repeat("x", 30) // score 0.6 -> class true
	return []record.Pair{
		pairOf(long, "b1"),
		pairOf("x", "b2"), // score 0.02 -> class false
		pairOf(long+"y", "b3"),
		pairOf("xy", "b4"),
	}
}

func wantFlips(s *Service, pairs []record.Pair, y bool) []bool {
	scores := s.Underlying().ScoreBatch(pairs)
	out := make([]bool, len(scores))
	for i, v := range scores {
		out[i] = (v > 0.5) != y
	}
	return out
}

// TestFlipMemoAnswersAcrossViews is the peek's core contract: once one
// view has scored a pair content, a second view's flip query is answered
// by a store peek — no store lookup, no model call — while the second
// view's own Stats still read exactly like a private cache's.
func TestFlipMemoAnswersAcrossViews(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	y := false
	want := wantFlips(svc, pairs, y)

	a := svc.NewScorer(Options{})
	gotA, err := a.ScoreFlipsContext(context.Background(), pairs, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotA[i] != want[i] {
			t.Fatalf("view A flip %d = %v, want %v", i, gotA[i], want[i])
		}
	}
	if st := svc.Stats(); st.FlipLookups != len(pairs) || st.FlipHits != 0 {
		t.Fatalf("first view: flip stats %d/%d, want %d lookups, 0 hits",
			st.FlipHits, st.FlipLookups, len(pairs))
	}
	afterA := svc.Stats()
	callsAfterA := m.calls

	b := svc.NewScorer(Options{})
	gotB, err := b.ScoreFlipsContext(context.Background(), pairs, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if gotB[i] != want[i] {
			t.Fatalf("view B flip %d = %v, want %v", i, gotB[i], want[i])
		}
	}
	if m.calls != callsAfterA {
		t.Fatalf("peek-answered view reached the model: %d calls, want %d", m.calls, callsAfterA)
	}
	st := svc.Stats()
	if st.FlipHits != len(pairs) {
		t.Fatalf("second view: %d peek hits, want %d", st.FlipHits, len(pairs))
	}
	if st.Lookups != afterA.Lookups || st.Misses != afterA.Misses {
		t.Fatalf("peek-answered view reached a store lookup: lookups %d->%d, misses %d->%d",
			afterA.Lookups, st.Lookups, afterA.Misses, st.Misses)
	}
	// Private-equivalent accounting: view B requested unique evaluations
	// it had never seen, so its Stats must read like a private cache's
	// regardless of who answered.
	vb := b.Stats()
	if vb.Lookups != len(pairs) || vb.Hits != 0 || vb.Misses != len(pairs) || vb.Batches != 1 {
		t.Fatalf("view B stats = %+v, want %d lookups / 0 hits / %d misses / 1 batch",
			vb, len(pairs), len(pairs))
	}
}

// TestFlipMemoizedKeyLaterScored: a view that learned a key from a
// store peek holds its score, so a later score request is a view hit
// answered locally — no model call, no store lookup, nothing charged as
// a miss.
func TestFlipMemoizedKeyLaterScored(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	wantScores := svc.Underlying().ScoreBatch(pairs)

	a := svc.NewScorer(Options{})
	if _, err := a.ScoreFlipsContext(context.Background(), pairs, false); err != nil {
		t.Fatal(err)
	}
	b := svc.NewScorer(Options{})
	if _, err := b.ScoreFlipsContext(context.Background(), pairs, true); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.FlipHits != len(pairs) {
		t.Fatalf("second view: %d peek hits, want %d", st.FlipHits, len(pairs))
	}
	callsBefore := m.calls
	preB := b.Stats()
	svcBefore := svc.Stats()

	scores, err := b.ScoreBatchContext(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantScores {
		if scores[i] != wantScores[i] {
			t.Fatalf("peeked key %d rescored to %v, want %v", i, scores[i], wantScores[i])
		}
	}
	if m.calls != callsBefore {
		t.Fatalf("scoring peeked keys reached the model: %d calls, want %d", m.calls, callsBefore)
	}
	vb := b.Stats()
	if vb.Hits != preB.Hits+len(pairs) {
		t.Fatalf("peeked keys must resolve as view hits: hits %d -> %d, want +%d",
			preB.Hits, vb.Hits, len(pairs))
	}
	if vb.Misses != preB.Misses || vb.Batches != preB.Batches {
		t.Fatalf("re-scoring charged the view: misses %d->%d, batches %d->%d",
			preB.Misses, vb.Misses, preB.Batches, vb.Batches)
	}
	if st := svc.Stats(); st != svcBefore {
		t.Fatalf("peeked keys re-scored through the store: %+v -> %+v", svcBefore, st)
	}
}

// TestFlipDisabledViewSkipsPeek pins the cache-disabled path: flip
// questions degrade to score-plus-threshold, every question is
// materialized and reaches the model, no peek is recorded, and answers
// are unchanged.
func TestFlipDisabledViewSkipsPeek(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = Key(p)
	}
	for _, y := range []bool{false, true} {
		want := wantFlips(svc, pairs, y)
		s := svc.NewScorer(Options{Disabled: true})
		materialized := 0
		callsBefore := m.calls
		got, err := s.ScoreFlipsKeyedContext(context.Background(), keys, y, func(i int) record.Pair {
			materialized++
			return pairs[i]
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("y=%v: flip %d = %v, want %v", y, i, got[i], want[i])
			}
		}
		if materialized != len(pairs) || m.calls-callsBefore != len(pairs) {
			t.Fatalf("y=%v: %d materialized, %d model calls, want %d each",
				y, materialized, m.calls-callsBefore, len(pairs))
		}
	}
	if st := svc.Stats(); st.FlipLookups != 0 || st.FlipHits != 0 {
		t.Fatalf("disabled views recorded peeks: %+v", st)
	}
}

// TestFlipPeekSkipsInFlight: a key another caller is still scoring is
// not answered by the peek (only published scores are); the question
// falls through to fetch, which joins the leader's computation through
// singleflight instead of calling the model again.
func TestFlipPeekSkipsInFlight(t *testing.T) {
	m := blockingModel{entered: make(chan struct{}), release: make(chan struct{})}
	svc := NewService(m, ServiceOptions{})
	p := pairOf("x", "y")

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.ScoreBatchContext(context.Background(), []record.Pair{p})
		leaderDone <- err
	}()
	<-m.entered // the leader has claimed the key and sits in the model

	materialized := 0
	type answer struct {
		flips []bool
		err   error
	}
	viewDone := make(chan answer, 1)
	go func() {
		flips, err := svc.NewScorer(Options{}).ScoreFlipsKeyedContext(context.Background(),
			[]string{Key(p)}, false, func(int) record.Pair {
				materialized++
				return p
			})
		viewDone <- answer{flips, err}
	}()
	// Release the leader only once the view has enlisted on its entry:
	// one peek and a second store lookup.
	deadline := time.Now().Add(2 * time.Second)
	for st := svc.Stats(); st.FlipLookups != 1 || st.Lookups != 2; st = svc.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("view never enlisted on the in-flight entry: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(m.release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-viewDone:
		if got.err != nil {
			t.Fatal(got.err)
		}
		if !got.flips[0] { // score 0.7 -> class true, y=false
			t.Fatalf("flip = false, want true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("view blocked: it called the model instead of joining the leader")
	}
	if materialized != 1 {
		t.Fatalf("in-flight key materialized %d times, want 1", materialized)
	}
	st := svc.Stats()
	if st.FlipHits != 0 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("service stats = %+v, want 0 peek hits, 1 model call, 1 in-flight hit", st)
	}
}

// TestFlipPeekEvictedRescored: under a Capacity bound the peek sees only
// what the store still holds, so a key evicted since it was scored is
// materialized and scored again, while a resident one is answered.
func TestFlipPeekEvictedRescored(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{Capacity: 1, Shards: 1})
	pairs := flipPairs()[:2]
	warm := svc.NewScorer(Options{})
	for _, p := range pairs {
		if _, err := warm.ScoreBatchContext(context.Background(), []record.Pair{p}); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	want := wantFlips(svc, pairs, false)
	keys := []string{Key(pairs[0]), Key(pairs[1])}
	materialized := map[int]int{}
	callsBefore := m.calls
	got, err := svc.NewScorer(Options{}).ScoreFlipsKeyedContext(context.Background(), keys, false,
		func(i int) record.Pair {
			materialized[i]++
			return pairs[i]
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flip %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(materialized) != 1 || materialized[0] != 1 {
		t.Fatalf("materialized %v, want exactly the evicted index 0 once", materialized)
	}
	if m.calls != callsBefore+1 {
		t.Fatalf("model calls %d -> %d, want the evicted key re-scored once", callsBefore, m.calls)
	}
	if st := svc.Stats(); st.FlipLookups != 2 || st.FlipHits != 1 {
		t.Fatalf("peek stats %d/%d, want 1 hit of 2 lookups", st.FlipHits, st.FlipLookups)
	}
}

// TestFlipBatchDuplicates checks in-batch duplicate handling on the flip
// path mirrors the score path: one unique miss, duplicates as view hits.
func TestFlipBatchDuplicates(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	s := svc.NewScorer(Options{})
	long := strings.Repeat("z", 40)
	batch := []record.Pair{pairOf(long, "b"), pairOf(long, "b"), pairOf(long, "b")}
	got, err := s.ScoreFlipsContext(context.Background(), batch, true)
	if err != nil {
		t.Fatal(err)
	}
	// Score 0.8 -> class true, y=true -> no flip.
	for i, f := range got {
		if f {
			t.Fatalf("flip %d = true for matching class", i)
		}
	}
	if m.calls != 1 {
		t.Fatalf("model invoked %d times for one unique content, want 1", m.calls)
	}
	st := s.Stats()
	if st.Lookups != 3 || st.Hits != 2 || st.Misses != 1 || st.Batches != 1 {
		t.Fatalf("stats = %+v, want 3 lookups / 2 hits / 1 miss / 1 batch", st)
	}
}
