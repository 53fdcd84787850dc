package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"

	"certa"
)

// The fixture every workload explains against is fixed: one generated
// benchmark, one trained DeepMatcher and one pair set per workload,
// all from fixtureSeed. Per-pair explanation cost varies several-fold
// between pair sets, so a fixture drawn from --seed would make the
// run-to-run spread measure the draw instead of the code. --seed
// instead drives what varies between runs without changing the total
// work: the order pairs are handed to ExplainBatch in every pass, and
// for the serve workloads the arrival times, the request mix and the
// fresh pairs.
const (
	fixtureSeed    = 1
	fixtureRecords = 120
	fixtureMatches = 60
	triangles      = 100
	clusterK       = 4
	pairCount      = 16
)

// libraryFixture describes one library workload's input.
type libraryFixture struct {
	name string
	code string // dataset code
	// cold restores a fresh matcher from its serialized bytes for every
	// ExplainBatch call, so the embedding store starts empty; otherwise
	// the matcher is warmed once in set-up and shared by every call.
	cold bool
	// pairs selects the workload's pairs from the generated benchmark.
	pairs func(b *certa.Benchmark) ([]certa.Pair, error)
}

var clusterFixture = libraryFixture{
	name: "explain-cluster",
	code: "AB",
	pairs: func(b *certa.Benchmark) ([]certa.Pair, error) {
		return certa.BlockedClusterPairs(b.Left, b.Right, b.Test[0].Pair, clusterK)
	},
}

var wideColdFixture = libraryFixture{
	name:  "explain-wide-cold",
	code:  "IA",
	cold:  true,
	pairs: disjointTestPairs,
}

// disjointTestPairs picks the first pairCount test pairs that share no
// record with an earlier pick, so explanations cannot reuse each
// other's triangle scans.
func disjointTestPairs(b *certa.Benchmark) ([]certa.Pair, error) {
	seenL, seenR := map[string]bool{}, map[string]bool{}
	var out []certa.Pair
	for _, lp := range b.Test {
		p := lp.Pair
		if seenL[p.Left.ID] || seenR[p.Right.ID] {
			continue
		}
		seenL[p.Left.ID], seenR[p.Right.ID] = true, true
		out = append(out, p)
		if len(out) == pairCount {
			return out, nil
		}
	}
	return nil, fmt.Errorf("only %d record-disjoint test pairs, want %d", len(out), pairCount)
}

// trainFixture generates the workload's benchmark and trains its
// matcher.
func trainFixture(code string) (*certa.Benchmark, *certa.Matcher, error) {
	b, err := certa.GenerateBenchmark(code, certa.BenchmarkOptions{
		Seed: fixtureSeed, MaxRecords: fixtureRecords, MaxMatches: fixtureMatches,
	})
	if err != nil {
		return nil, nil, err
	}
	m, err := certa.TrainMatcher(certa.DeepMatcher, b, certa.MatcherConfig{Seed: fixtureSeed})
	if err != nil {
		return nil, nil, err
	}
	return b, m, nil
}

// restoreMatcher returns a fresh matcher decoded from data: same
// network, empty embedding store.
func restoreMatcher(data []byte) (*certa.Matcher, error) {
	m := new(certa.Matcher)
	if err := m.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return m, nil
}

// engineOptions are the measured explainer settings of every workload.
func engineOptions() certa.Options {
	return certa.Options{Triangles: triangles, Seed: fixtureSeed}
}

// reference explains each pair with the simplest settings: sequential,
// unindexed retrieval, a private score cache per explanation. The
// determinism contract makes every measured Result equal to it. The
// explanations are independent, so one goroutine per CPU takes them in
// turn; each runs at Parallelism 1.
func reference(m certa.Model, left, right *certa.Table, pairs []certa.Pair, opts certa.Options) (map[string]*certa.Result, error) {
	opts.Parallelism = 1
	opts.DisableIndex = true
	opts.Shared = nil
	opts.Retrieval = nil
	results := make([]*certa.Result, len(pairs))
	errs := make([]error, len(pairs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallelism(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ex := certa.New(left, right, opts)
			for i := int(next.Add(1) - 1); i < len(pairs); i = int(next.Add(1) - 1) {
				results[i], errs[i] = ex.Explain(m, pairs[i])
			}
		}()
	}
	wg.Wait()
	out := make(map[string]*certa.Result, len(pairs))
	for i, p := range pairs {
		if errs[i] != nil {
			return nil, fmt.Errorf("reference for %s: %w", p.Key(), errs[i])
		}
		out[p.Key()] = results[i]
	}
	return out, nil
}

// mismatches counts the results that differ from their references.
func mismatches(pairs []certa.Pair, results []*certa.Result, ref map[string]*certa.Result) int {
	bad := 0
	for i, p := range pairs {
		if i >= len(results) || !reflect.DeepEqual(results[i], ref[p.Key()]) {
			bad++
		}
	}
	return bad
}

// shuffled returns a seeded permutation of pairs.
func shuffled(rng *rand.Rand, pairs []certa.Pair) []certa.Pair {
	out := append([]certa.Pair(nil), pairs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
