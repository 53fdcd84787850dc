package certa_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"certa"
)

// digestFixture is one pair set the results digest covers.
type digestFixture struct {
	name  string
	code  string
	pairs func(b *certa.Benchmark) ([]certa.Pair, error)
}

var digestFixtures = []digestFixture{
	{
		// A blocked cluster: pairs share pivot records, so explanations
		// reuse each other's support scans through the shared store.
		name: "AB-cluster",
		code: "AB",
		pairs: func(b *certa.Benchmark) ([]certa.Pair, error) {
			return certa.BlockedClusterPairs(b.Left, b.Right, b.Test[0].Pair, 3)
		},
	},
	{
		// Record-disjoint pairs on a wide schema: no cross-explanation
		// reuse of support scans.
		name: "IA-disjoint",
		code: "IA",
		pairs: func(b *certa.Benchmark) ([]certa.Pair, error) {
			seenL, seenR := map[string]bool{}, map[string]bool{}
			var out []certa.Pair
			for _, lp := range b.Test {
				p := lp.Pair
				if seenL[p.Left.ID] || seenR[p.Right.ID] {
					continue
				}
				seenL[p.Left.ID], seenR[p.Right.ID] = true, true
				if out = append(out, p); len(out) == 6 {
					return out, nil
				}
			}
			return nil, fmt.Errorf("only %d record-disjoint test pairs", len(out))
		},
	},
}

var digestModes = []struct {
	name string
	set  func(*certa.Options)
	// budget marks the anytime mode: its explanations must truncate,
	// the others must reach the augmented support scan.
	budget bool
}{
	{"exact", func(*certa.Options) {}, false},
	{"pruned", func(o *certa.Options) { o.LatticePrune = certa.PrunePolicy{Threshold: 0.25, MinLevels: 1} }, false},
	{"budget150", func(o *certa.Options) { o.CallBudget = 150 }, true},
}

// resultsDigest is the SHA-256 of the JSON encoding of results,
// Diagnostics included.
func resultsDigest(t *testing.T, results []*certa.Result) string {
	t.Helper()
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestResultsDigestGolden pins explanation output across versions of
// the engine: for each fixture and mode, the digest of the batch's JSON
// Results must equal the recorded one at Parallelism 1 and 4. The
// byte-identity suites compare the code with itself; this one compares
// it with the commit that recorded the file. Regenerate only when an
// output change is intended (-update-golden), and say so.
func TestResultsDigestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two matchers")
	}
	got := map[string]string{}
	for _, fx := range digestFixtures {
		b, err := certa.GenerateBenchmark(fx.code, certa.BenchmarkOptions{Seed: 1, MaxRecords: 80, MaxMatches: 40})
		if err != nil {
			t.Fatal(err)
		}
		m, err := certa.TrainMatcher(certa.DeepMatcher, b, certa.MatcherConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := fx.pairs(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range digestModes {
			name := fx.name + "/" + mode.name
			augmented, truncated := 0, 0
			for _, par := range []int{1, 4} {
				opts := certa.Options{Triangles: 40, Seed: 1, Parallelism: par}
				mode.set(&opts)
				res, err := certa.ExplainBatch(m, b.Left, b.Right, pairs, opts)
				if err != nil {
					t.Fatalf("%s P%d: %v", name, par, err)
				}
				d := resultsDigest(t, res)
				if prev, ok := got[name]; ok && prev != d {
					t.Errorf("%s: Parallelism 1 and 4 digests differ", name)
				}
				got[name] = d
				for _, r := range res {
					augmented += r.Diag.AugmentedLeft + r.Diag.AugmentedRight
					if r.Diag.Truncated {
						truncated++
					}
				}
			}
			if mode.budget && truncated == 0 {
				t.Errorf("%s: no explanation truncated; the digest would not cover the anytime path", name)
			}
			if !mode.budget && augmented == 0 {
				t.Errorf("%s: no augmented supports; the digest would not cover the augmented scan", name)
			}
		}
	}

	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	var lines strings.Builder
	for _, n := range names {
		fmt.Fprintf(&lines, "%s %s\n", n, got[n])
	}
	golden := filepath.Join("testdata", "results_digest_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(lines.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to record it)", err)
	}
	if lines.String() != string(want) {
		t.Fatalf("explanation results drifted from the recorded digests.\n got:\n%s\nwant:\n%s", lines.String(), want)
	}
}
