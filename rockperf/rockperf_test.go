package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/rock"
)

// tinyEnv runs a workload at the self-test's size in a scratch directory.
func tinyEnv(t *testing.T, trace bool, plant string) *env {
	t.Helper()
	root, err := repoRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	return newEnv(envConfig{
		Root:    root,
		Work:    t.TempDir(),
		Seed:    7,
		Seconds: 0.5,
		Trace:   trace,
		Size:    tinySize,
		Plant:   plant,
	})
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsEmitEveryMetric runs each workload tiny, untraced and
// traced, and checks every named metric is emitted with its unit and
// every output check passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				e := tinyEnv(t, trace, "")
				res, err := e.execute(workloads[name])
				if err != nil {
					t.Fatal(err)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.Name]
					if !ok || v.Unit != s.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.Name, v, s.Unit)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
			})
		}
	}
}

// TestPlantedWrongAnswersAreCounted proves the checks are not silent: a
// mutated edge set and a forced 429 must each count as failed.
func TestPlantedWrongAnswersAreCounted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, plant := range []string{"edges", "429"} {
			name, plant := name, plant
			t.Run(name+"/"+plant, func(t *testing.T) {
				e := tinyEnv(t, false, plant)
				res, err := e.execute(workloads[name])
				if err != nil {
					t.Fatal(err)
				}
				if res.Correct || res.Failed == 0 {
					t.Errorf("planted %s: correct=%v failed=%d, want the failure counted", plant, res.Correct, res.Failed)
				}
			})
		}
	}
}

// TestEdgeF1MatchesEval checks the benchmark's edge F1 against what
// internal/eval scores for the same image.
func TestEdgeF1MatchesEval(t *testing.T) {
	for _, c := range bench.SynthGrid()[:3] {
		img, meta, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(img, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		row, err := eval.ScoreSynth(c, meta, res)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rock.AnalyzeImage(img, rock.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := edgeF1(rep, meta)
		if err != nil {
			t.Fatal(err)
		}
		if got != row.Edge.F1 {
			t.Errorf("%s: edge F1 %v, internal/eval %v", c.Name, got, row.Edge.F1)
		}
	}
}

func TestLogSlope(t *testing.T) {
	pts := []point{{100, 3}, {200, 12}, {400, 48}}
	if got := logSlope(pts); got < 1.999 || got > 2.001 {
		t.Errorf("slope of a quadratic = %v, want 2", got)
	}
	if got := logSlope(pts[:1]); got != 0 {
		t.Errorf("slope of one point = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
	}
	self := tr.selfTimes()
	if self[0] != 50 || self[1] != 30 || self[2] != 30 {
		t.Errorf("self times %v, want [50 30 30]", self)
	}
}

// TestRungAndEmptyBucketChecks proves a response from the wrong rung is a
// failure and a latency with no request behind it is NaN, which execute
// refuses, so a broken rung never reads as a gain.
func TestRungAndEmptyBucketChecks(t *testing.T) {
	e := tinyEnv(t, false, "")
	r := &servedReq{in: &input{name: "img"}, want: "hot"}
	r.resp.Source = "warm"
	if _, err := checkServed(e, r, nil); err == nil {
		t.Error("a warm answer to a request that must be hot passed the check")
	}
	s := servedSummary([]*servedReq{r})
	for _, m := range []string{"hot_p50_ms", "hot_p90_ms", "miss_p50_ms"} {
		if !math.IsNaN(s[m]) {
			t.Errorf("%s with no sample = %v, want NaN", m, s[m])
		}
	}
	_, err := e.execute(func(e *env) error {
		e.record(nil)
		for _, m := range endToEnd {
			e.e2e[m.Name] = 1
		}
		e.e2e["hot_p50_ms"] = s["hot_p50_ms"]
		return nil
	})
	if err == nil {
		t.Error("execute accepted an end-to-end metric with no samples")
	}
}
