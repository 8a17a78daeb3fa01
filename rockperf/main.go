// Command rockperf is the repository's benchmark: one seeded run of one
// workload against the public entry points of Rock (rock.AnalyzeImage,
// rock.AnalyzeCorpus, and an in-process rockd server over loopback HTTP).
//
//	rockperf --workload deep|wide|corpus --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with tracing off;
// with --trace 1 it measures them untraced and traced, replays the
// pipeline layers on the workload's images with a span around every public
// layer call, and reports the per-layer metrics plus the tracing overhead.
// Every output the program produces is checked; a failed check is counted
// in "failed" and makes "correct" false. The last line of standard output
// is the JSON result; progress and failures go to standard error.
// METRICS.md lists what every metric means on every workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric. METRICS.md records, for each
// per-layer metric, the end-to-end metric it should move and on which
// workload.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricSpec{
	{Name: "cold_ms", Unit: "ms", Better: "lower"},
	{Name: "incr_ms", Unit: "ms", Better: "lower"},
	{Name: "warm_ms", Unit: "ms", Better: "lower"},
	{Name: "images_per_s", Unit: "1/s", Better: "higher"},
	{Name: "hot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "hot_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "edge_f1", Unit: "ratio", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer lists the metrics every workload reports with --trace 1.
var perLayer = []metricSpec{
	{"image.load_ms", "ms", "lower"},
	{"image.digest_ms", "ms", "lower"},
	{"image.fn_digests_ms", "ms", "lower"},
	{"disasm.all_ms", "ms", "lower"},
	{"disasm.functions", "count", "lower"},
	{"vtable.discover_ms", "ms", "lower"},
	{"vtable.types", "count", "lower"},
	{"objtrace.extract_ms", "ms", "lower"},
	{"objtrace.tracelets", "count", "lower"},
	{"structural.analyze_ms", "ms", "lower"},
	{"structural.admissible_pairs", "count", "lower"},
	{"structural.admissible_frac", "ratio", "lower"},
	{"slm.train_ms", "ms", "lower"},
	{"slm.trie_nodes", "count", "lower"},
	{"slm.dist_ms", "ms", "lower"},
	{"slm.family_words", "count", "lower"},
	{"slm.word_evals", "count", "lower"},
	{"slm.logprobseq_ns", "ns", "lower"},
	{"slm.worddist_ns", "ns", "lower"},
	{"slm.dist_exponent", "slope", "lower"},
	{"evidence.slm_ms", "ms", "lower"},
	{"arborescence.solve_ms", "ms", "lower"},
	{"arborescence.co_optimal", "count", "lower"},
	{"core.alphabet_ms", "ms", "lower"},
	{"core.hierarchy_ms", "ms", "lower"},
	{"core.diff_ms", "ms", "lower"},
	{"core.cold_exponent", "slope", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"snapshot.encode_ms", "ms", "lower"},
	{"snapshot.decode_ms", "ms", "lower"},
	{"snapshot.bytes", "bytes", "lower"},
	{"corpus.wait_ms", "ms", "lower"},
	{"corpus.bypass_frac", "ratio", "higher"},
	{"corpus.peak_heap_mb", "MiB", "lower"},
	{"rockd.hot_frac", "ratio", "higher"},
	{"rockd.warm_frac", "ratio", "higher"},
	{"rockd.incr_frac", "ratio", "lower"},
	{"rockd.cold_frac", "ratio", "lower"},
	{"rockd.queue_wait_ms", "ms", "lower"},
	{"rockd.analysis_ms", "ms", "lower"},
	{"rockd.rejected_frac", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"overhead.cold_ms", "ms", "lower"},
	{"overhead.incr_ms", "ms", "lower"},
	{"overhead.warm_ms", "ms", "lower"},
	{"overhead.hot_p50_ms", "ms", "lower"},
	{"overhead.miss_p50_ms", "ms", "lower"},
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*env) error{
	"deep":   runDeep,
	"wide":   runWide,
	"corpus": runCorpus,
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: deep, wide or corpus")
	seed := flag.Int64("seed", 1, "workload seed: the patched functions and fresh images derive from it")
	seconds := flag.Float64("seconds", 20, "how long the measured loop runs")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rockperf: usage: --workload deep|wide|corpus --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	root, err := repoRoot(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "rockperf: %v\n", err)
		os.Exit(1)
	}
	work := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "rockperf: %v\n", err)
		os.Exit(1)
	}
	e := newEnv(envConfig{
		Root:    root,
		Work:    work,
		Seed:    *seed,
		Seconds: *seconds,
		Trace:   *trace == 1,
		Size:    fullSize,
	})
	res, err := e.execute(run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rockperf: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if e.cfg.Trace {
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := e.tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "rockperf: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rockperf: spans written to %s\n", path)
	}
	printTable(os.Stdout, *workload, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rockperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// execute runs one workload and assembles its result: the end-to-end
// metrics untraced, or with tracing the per-layer metrics.
func (e *env) execute(run func(*env) error) (*result, error) {
	start := time.Now()
	if err := run(e); err != nil {
		return nil, err
	}
	e.logf("done in %s: %d operations, %d failed", time.Since(start).Round(time.Millisecond), e.attempted, e.failed)
	specs := endToEnd
	if e.cfg.Trace {
		e.layer["failed_frac"] = float64(e.failed) / float64(max(1, e.attempted))
		specs = perLayer
	} else {
		e.e2e["peak_rss_mb"] = peakRSSMiB()
	}
	got := e.e2e
	if e.cfg.Trace {
		got = e.layer
	}
	res := &result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   map[string]value{},
	}
	for _, s := range specs {
		v, ok := got[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		// An empty sample set is NaN (stats.go): a metric with nothing
		// behind it fails the run rather than reading as a gain.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no samples (%v)", s.Name, v)
		}
		res.Metrics[s.Name] = value{Value: v, Unit: s.Unit}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation ran")
	}
	return res, nil
}

// printTable prints the metrics for a reader, ahead of the JSON line.
func printTable(f *os.File, workload string, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "workload %s (GOMAXPROCS %d): %d operations, %d failed\n",
		workload, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(f, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// repoRoot finds the checkout root (the directory holding the repro
// module's go.mod) at dir or its parent.
func repoRoot(dir string) (string, error) {
	for _, d := range []string{dir, filepath.Join(dir, "..")} {
		abs, err := filepath.Abs(d)
		if err != nil {
			return "", err
		}
		if _, err := os.Stat(filepath.Join(abs, "internal", "eval", "testdata", "table2.golden")); err == nil {
			return abs, nil
		}
	}
	return "", fmt.Errorf("no Rock checkout at %s or its parent", dir)
}
