package scorecache

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"certa/internal/record"
	"certa/internal/strutil"
)

// perturbMirror is the reference implementation the keyer must match:
// materialize the perturbed record exactly like core's perturb (copy the
// mask-selected attribute values from the support record into the free
// record) and take the canonical Key of the resulting pair.
func perturbMirror(p record.Pair, side record.Side, w *record.Record, mask uint32) record.Pair {
	free := p.Record(side)
	vals := make(map[string]string)
	for i, a := range free.Schema.Attrs {
		if (mask>>uint(i))&1 == 1 {
			vals[a] = w.Value(a)
		}
	}
	return p.WithRecord(side, free.WithValues(vals))
}

// TestPerturbKeyerMatchesMaterializedKey is the byte-identity gate
// promised by the keyers' doc comments: for random schemas, values
// (empty, NaN, unicode, and delimiter-colliding strings included),
// schema names containing the key's own delimiters, both sides, support
// schemas with missing attributes and every mask, PerturbKeyer.Key(mask)
// equals Key(perturb(...)) of the materialized record; and for every
// attribute and substituted value, CandidateKeyer's keys equal the keys
// of the materialized candidate pairs.
func TestPerturbKeyerMatchesMaterializedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []string{
		"", "x", "NaN", "value with spaces", "é", "日本語",
		";", ":", "|", "#", "<nil>", "3#S", ";1:x", strings.Repeat("z", 50),
	}
	schemaNames := []string{"S", "", "a;b", "x:1", "3#S", ";1:x#"}
	pick := func() string { return alphabet[rng.Intn(len(alphabet))] }

	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		attrs := make([]string, n)
		for i := range attrs {
			attrs[i] = string(rune('a' + i))
		}
		schema, err := record.NewSchema(schemaNames[rng.Intn(len(schemaNames))], attrs...)
		if err != nil {
			t.Fatal(err)
		}

		// The support record's schema may miss some of the free record's
		// attributes; Value then reports the NaN token, which the keyer
		// must frame exactly like any other value.
		var wAttrs []string
		for _, a := range attrs {
			if rng.Intn(4) > 0 {
				wAttrs = append(wAttrs, a)
			}
		}
		if len(wAttrs) == 0 {
			wAttrs = attrs[:1]
		}
		wSchema, err := record.NewSchema(schemaNames[rng.Intn(len(schemaNames))], wAttrs...)
		if err != nil {
			t.Fatal(err)
		}

		vals := func(k int) []string {
			out := make([]string, k)
			for i := range out {
				out[i] = pick()
			}
			return out
		}
		p := record.Pair{
			Left:  record.MustNew("L", schema, vals(n)...),
			Right: record.MustNew("R", schema, vals(n)...),
		}
		side := record.Left
		if rng.Intn(2) == 1 {
			side = record.Right
		}
		// A nil fixed record must be tolerated exactly like Key.
		if rng.Intn(5) == 0 {
			if side == record.Right {
				p.Left = nil
			} else {
				p.Right = nil
			}
		}
		w := record.MustNew("w", wSchema, vals(len(wAttrs))...)

		keyer := NewPerturbKeyer(p, side, w)
		for mask := uint32(0); mask < 1<<uint(n); mask++ {
			got := keyer.Key(mask)
			want := Key(perturbMirror(p, side, w, mask))
			if got != want {
				t.Fatalf("trial %d side %v mask %b:\nkeyer %q\nwant  %q", trial, side, mask, got, want)
			}
		}

		// Support-search candidates: w itself, and w with one value
		// replaced, on both sides of the pair.
		for _, cside := range []record.Side{record.Left, record.Right} {
			ck := NewCandidateKeyer(p, cside)
			ck.Reset(w)
			if got, want := ck.Key(), Key(p.WithRecord(cside, w)); got != want {
				t.Fatalf("trial %d side %v candidate:\nkeyer %q\nwant  %q", trial, cside, got, want)
			}
			for i, a := range wSchema.Attrs {
				for _, v := range []string{"", strutil.NaN, pick()} {
					got := ck.KeyWith(i, v)
					want := Key(p.WithRecord(cside, w.WithValue(a, v)))
					if got != want {
						t.Fatalf("trial %d side %v attr %s value %q:\nkeyer %q\nwant  %q", trial, cside, a, v, got, want)
					}
				}
			}
		}
	}
}

// TestFlipKeyedSkipsMaterialization pins the streaming win: once a pair
// content's score is in the store, a keyed flip query must be answered
// without ever materializing the pair — the materialize callback is the
// proof, wired to fail the test if invoked.
func TestFlipKeyedSkipsMaterialization(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	y := false
	want := wantFlips(svc, pairs, y)
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = Key(p)
	}

	a := svc.NewScorer(Options{})
	if _, err := a.ScoreFlipsContext(context.Background(), pairs, y); err != nil {
		t.Fatal(err)
	}
	callsAfterA := m.calls

	b := svc.NewScorer(Options{})
	got, err := b.ScoreFlipsKeyedContext(context.Background(), keys, y, func(i int) record.Pair {
		t.Fatalf("store-resident key %d materialized", i)
		return record.Pair{}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keyed flip %d = %v, want %v", i, got[i], want[i])
		}
	}
	if m.calls != callsAfterA {
		t.Fatalf("peek-answered keyed query reached the model: %d calls, want %d", m.calls, callsAfterA)
	}
	// The view's own accounting still reads like a private cache's.
	vb := b.Stats()
	if vb.Lookups != len(pairs) || vb.Hits != 0 || vb.Misses != len(pairs) || vb.Batches != 1 {
		t.Fatalf("view stats = %+v, want %d lookups / 0 hits / %d misses / 1 batch",
			vb, len(pairs), len(pairs))
	}
}

// TestFlipMemoPopulatedByScoring checks that plain score traffic serves
// flip questions: every freshly scored key is published in the store, so
// a later flip query from any view is a peek hit with no store lookup.
func TestFlipMemoPopulatedByScoring(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	pairs := flipPairs()
	want := wantFlips(svc, pairs, true)

	a := svc.NewScorer(Options{})
	if _, err := a.ScoreBatchContext(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}
	afterScore := svc.Stats()
	if afterScore.FlipLookups != 0 {
		t.Fatalf("plain scoring charged flip lookups: %+v", afterScore)
	}

	b := svc.NewScorer(Options{})
	got, err := b.ScoreFlipsContext(context.Background(), pairs, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flip %d = %v, want %v", i, got[i], want[i])
		}
	}
	st := svc.Stats()
	if st.FlipHits != len(pairs) {
		t.Fatalf("scored keys not peeked: %d peek hits, want %d", st.FlipHits, len(pairs))
	}
	if st.Lookups != afterScore.Lookups || st.Misses != afterScore.Misses {
		t.Fatalf("peek-answered view reached a store lookup: lookups %d->%d, misses %d->%d",
			afterScore.Lookups, st.Lookups, afterScore.Misses, st.Misses)
	}
}

// TestFlipKeyedMaterializesOnlyMisses exercises the mixed case: a batch
// holding store-resident keys, in-batch duplicates and true misses must
// materialize exactly the unique misses.
func TestFlipKeyedMaterializesOnlyMisses(t *testing.T) {
	m := &countingModel{}
	svc := NewService(m, ServiceOptions{})
	long := strings.Repeat("x", 30)
	known := pairOf(long, "warm")
	miss := pairOf("x", "cold")

	warm := svc.NewScorer(Options{})
	if _, err := warm.ScoreBatchContext(context.Background(), []record.Pair{known}); err != nil {
		t.Fatal(err)
	}

	batch := []record.Pair{known, miss, miss}
	keys := make([]string, len(batch))
	for i, p := range batch {
		keys[i] = Key(p)
	}
	materialized := make(map[int]int)
	s := svc.NewScorer(Options{})
	got, err := s.ScoreFlipsKeyedContext(context.Background(), keys, false, func(i int) record.Pair {
		materialized[i]++
		return batch[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	want := wantFlips(svc, batch, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flip %d = %v, want %v", i, got[i], want[i])
		}
	}
	if len(materialized) != 1 || materialized[1] != 1 {
		t.Fatalf("materialized %v, want exactly index 1 once", materialized)
	}
	vs := s.Stats()
	if vs.Lookups != 3 || vs.Hits != 1 || vs.Misses != 2 || vs.Batches != 1 {
		t.Fatalf("view stats = %+v, want 3 lookups / 1 hit / 2 misses / 1 batch", vs)
	}
}
