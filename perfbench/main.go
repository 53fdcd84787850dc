// Command perfbench is the repository's benchmark: one command that
// runs one named workload from a seed, checks every output against a
// reference computed with the simplest engine settings, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output.
//
//	bash perfbench/run.sh --workload explain-cluster --seed 1 --seconds 32 --trace 0
//
// The workloads, their reasons and the metric catalogue are recorded
// in BENCHMARK.json at the repository root. The layers are measured
// from outside, by timing calls into their public functions and by
// reading the spans and counters the program already records; the
// benchmark adds no tracing inside the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
}

// workload runs one named workload and returns its report.
type workload func(cfg runConfig) (*report, error)

var workloads = map[string]workload{
	"explain-cluster":   func(cfg runConfig) (*report, error) { return runLibrary(clusterFixture, cfg) },
	"explain-wide-cold": func(cfg runConfig) (*report, error) { return runLibrary(wideColdFixture, cfg) },
	"serve-ring":        runServe,
}

func main() {
	name := flag.String("workload", "", "workload to run (explain-cluster, explain-wide-cold, serve-ring)")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 32, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding report: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// failRatio is the Laplace-smoothed failure estimate
// (failed+1)/(planned+2) over an operation count planned before the
// run: it is never 0, so a bound relative to the parent's median stays
// defined, it moves only with failures, and any real failure raises it
// by a large factor.
func failRatio(planned, failed int) float64 {
	return float64(failed+1) / float64(planned+2)
}

// newReport fills the fields every workload shares.
func newReport(attempted, failed int, metrics map[string]metric) *report {
	return &report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metrics,
	}
}

// medianSetup runs setup n times and returns the median wall time in
// seconds together with the objects of the last run; the earlier runs'
// objects are closed.
func medianSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	walls := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		last = v
	}
	return last, quantile(walls, 0.5), nil
}

// heapLiveMB forces a collection and returns the live heap in MB. The
// caller keeps its long-lived objects reachable across the call. The
// second collection empties the sync.Pool victim caches the first one
// only demotes.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
