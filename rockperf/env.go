package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/image"
	"repro/rock"
)

// sizeCfg scales a workload. fullSize is what the benchmark measures;
// the self-test runs every workload at tinySize.
type sizeCfg struct {
	// DeepFamilies is the family count of the deep image (the -incr base
	// image has 6); DeepExpFamilies are the smaller family counts the
	// traced run adds to fit the deep cold-time exponent.
	DeepFamilies    int
	DeepExpFamilies []int
	// WideSizes are the wide family sizes, smallest first; FreshWide is
	// the size of the never-seen wide images served cold.
	// Below 20 types different generator seeds can give the same image,
	// which the daemon would then answer from its hot cache.
	WideSizes []int
	FreshWide int
	// Table2 and Grid bound how many Table 2 programs and synth-grid
	// configs form the corpus (0 means all).
	Table2, Grid int
	// HotPerIter is how many hot-cache hits a closed-loop iteration sends.
	HotPerIter int
	// Reps is how many times a closed-loop iteration repeats its cheap
	// steps (warm restores, incremental runs, corpus patches).
	Reps int
	// SetupReps is how many times set-up runs to report its median.
	SetupReps int
	// MinIters is the least number of closed-loop iterations per phase.
	MinIters int
	// ReplayPasses is how many times the traced run replays the layers.
	ReplayPasses int
}

var fullSize = sizeCfg{
	DeepFamilies:    6,
	DeepExpFamilies: []int{2, 4},
	WideSizes:       []int{500, 1000, 2000},
	FreshWide:       100,
	HotPerIter:      12,
	Reps:            4,
	SetupReps:       3,
	MinIters:        3,
	ReplayPasses:    3,
}

var tinySize = sizeCfg{
	DeepFamilies:    2,
	DeepExpFamilies: []int{1},
	WideSizes:       []int{20, 40, 80},
	FreshWide:       20,
	Table2:          3,
	Grid:            2,
	HotPerIter:      2,
	Reps:            1,
	SetupReps:       2,
	MinIters:        1,
	ReplayPasses:    1,
}

// envConfig configures one benchmark run.
type envConfig struct {
	// Root is the checkout root; Work is where scratch cache directories go.
	Root, Work string
	Seed       int64
	Seconds    float64
	Trace      bool
	Size       sizeCfg
	// Plant injects a wrong answer so the self-test can prove the output
	// checks count it: "edges" mutates an analysis result before it is
	// checked, "429" makes the daemon refuse the first submission.
	Plant string
}

// env is the state of one run: the counters behind attempted/failed, the
// metrics measured so far, and the span recorder of the traced run.
type env struct {
	cfg       envConfig
	rng       *rand.Rand
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	tr        *tracer
	planted   bool
	// plain holds the untraced half's end-to-end summary in a traced run.
	plain      map[string]float64
	plainPhase *phase
}

func newEnv(cfg envConfig) *env {
	e := &env{
		cfg:   cfg,
		rng:   newRand(cfg.Seed),
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	if cfg.Trace {
		e.tr = newTracer()
	}
	return e
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rockperf: "+format+"\n", args...)
}

// record counts one attempted operation and, when err is non-nil, one
// failure. Every output check reports through here.
func (e *env) record(err error) {
	e.attempted++
	if err != nil {
		e.failed++
		if e.failed <= 10 {
			e.logf("FAILED: %v", err)
		}
	}
}

// plantEdges corrupts the first edge of rep once, when the run was asked
// to plant a wrong answer.
func (e *env) plantEdges(rep *rock.Report) {
	if e.cfg.Plant != "edges" || e.planted || len(rep.Edges) == 0 {
		return
	}
	e.planted = true
	rep.Edges = append([]rock.Edge(nil), rep.Edges...)
	rep.Edges[0].Parent ^= 0x8
}

// tempDir makes a scratch directory under the run's work directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.cfg.Work, prefix)
}

// setupRepeated runs set-up SetupReps times, records the median as
// setup_s, closes all but the last state and returns it.
func setupRepeated[S any](e *env, setup func() (S, error), closeFn func(S)) (S, error) {
	var st S
	reps := e.cfg.Size.SetupReps
	if e.cfg.Trace {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			closeFn(st)
		}
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	e.e2e["setup_s"] = median(times)
	e.logf("set-up %v s (median of %d)", fmtFloats(times), reps)
	return st, nil
}

// phase is one measured loop: untraced, or traced (tr non-nil).
type phase struct {
	tr      *tracer
	samples map[string][]float64
	// rows collects obs stage walls (ms) by operation and stage name, from
	// the traced phase's observed analyses ("cold/evidence:slm", ...).
	rows map[string][]float64
	// served holds every served request of the phase.
	served []*servedReq
	group  int64
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, samples: map[string][]float64{}, rows: map[string][]float64{}}
}

func (p *phase) add(name string, v float64) { p.samples[name] = append(p.samples[name], v) }

// nextGroup returns a fresh span group id (one per iteration or request).
func (p *phase) nextGroup() int64 {
	p.group++
	return p.group
}

// observer returns the observer a traced analysis runs under (nil when
// untraced) and the trace its stage spans land on.
func (p *phase) observer() (*rock.Observer, *rock.Trace, time.Time) {
	if p.tr == nil {
		return nil, nil, time.Time{}
	}
	bus := rock.NewObserver()
	tr := rock.NewTrace()
	bus.Trace = tr
	return bus, tr, time.Now()
}

// analyze runs one rock.AnalyzeImage as operation op ("cold", "incr",
// "warm", ...) and returns the report and its wall time. In the traced
// phase the call gets a span, the program's own stage spans become its
// children, and its stage rows are kept under op.
func (p *phase) analyze(group int64, op string, img *image.Image, opts rock.Options) (*rock.Report, time.Duration, error) {
	bus, trc, epoch := p.observer()
	opts.Observer = bus
	sp := p.tr.begin(group, "rock.AnalyzeImage", -1)
	t0 := time.Now()
	rep, err := rock.AnalyzeImage(img, opts)
	d := time.Since(t0)
	p.tr.end(sp)
	if err != nil {
		return nil, d, err
	}
	if bus != nil {
		if err := p.tr.importTrace(group, sp, trc, epoch); err != nil {
			return nil, d, err
		}
		p.keepRows(op, rep.Stats)
	}
	return rep, d, nil
}

// keepRows files one analysis's stage walls under op, plus the part of
// its total the stages do not cover ("<op>/unattributed").
func (p *phase) keepRows(op string, st *rock.Stats) {
	if st == nil {
		return
	}
	var staged time.Duration
	for _, s := range st.Stages {
		p.rows[op+"/"+s.Name] = append(p.rows[op+"/"+s.Name], ms(s.Wall))
		// Provider rows aggregate work done inside the hierarchy stage.
		if !strings.HasPrefix(s.Name, "evidence:") {
			staged += s.Wall
		}
	}
	p.rows[op+"/unattributed"] = append(p.rows[op+"/unattributed"], ms(st.Total-staged))
}

// loop runs iter until the phase's time is up, at least minIters times.
// Each iteration starts from a collected heap, so one iteration's garbage
// is not charged to the next.
func loop(seconds float64, minIters int, iter func(i int) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minIters || time.Now().Before(deadline); i++ {
		runtime.GC()
		if err := iter(i); err != nil {
			return err
		}
	}
	return nil
}

// measureLoop runs iter in a closed loop for the run's seconds. Untraced,
// every iteration feeds one phase and summary turns its samples into the
// end-to-end metrics. Traced, iterations alternate between an untraced and
// a traced phase, so drift over the run falls on both alike; the
// per-layer overhead metrics are their difference and the traced phase is
// returned for the per-layer metrics.
func (e *env) measureLoop(iter func(p *phase) error, summary func(p *phase) map[string]float64) (*phase, error) {
	plain := newPhase(nil)
	var traced *phase
	minIters := e.cfg.Size.MinIters
	if e.cfg.Trace {
		traced = newPhase(e.tr)
		minIters = max(minIters, 2)
	}
	err := loop(e.cfg.Seconds, minIters, func(i int) error {
		if traced != nil && i%2 == 1 {
			return iter(traced)
		}
		return iter(plain)
	})
	if err != nil {
		return nil, err
	}
	return e.summarize(plain, traced, summary), nil
}

// summarize records the end-to-end metrics of an untraced run, or the
// overhead metrics of a traced one, and returns the phase the per-layer
// metrics come from.
func (e *env) summarize(plain, traced *phase, summary func(p *phase) map[string]float64) *phase {
	u := summary(plain)
	if traced == nil {
		for k, v := range u {
			e.e2e[k] = v
		}
		return plain
	}
	t := summary(traced)
	for _, m := range []string{"cold_ms", "incr_ms", "warm_ms", "hot_p50_ms", "miss_p50_ms"} {
		e.layer["overhead."+m] = t[m] - u[m]
	}
	e.plain, e.plainPhase = u, plain
	return traced
}
