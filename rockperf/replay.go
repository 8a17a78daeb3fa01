package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/arborescence"
	"repro/internal/core"
	"repro/internal/disasm"
	"repro/internal/image"
	"repro/internal/ir"
	"repro/internal/objtrace"
	"repro/internal/slm"
	"repro/internal/snapshot"
	"repro/internal/structural"
	"repro/internal/vtable"
	"repro/rock"
)

// replayGroup is the span group of replay pass i, far above the groups of
// the measured loop.
func replayGroup(i int) int64 { return 1<<40 + int64(i) }

// replayLayers fills the per-layer metrics of a traced run. It replays
// the pipeline layers on imgs in pipeline order, each public layer call
// under its own span; reads the stages whose inputs are core's unexported
// glue (alphabet, evidence:slm, hierarchy, snapshot-diff) from the stage
// rows the traced phase p kept; times snapshot.Decode and Encode on the
// program's own snapshot files; runs one corpus batch over imgs; and
// takes the served metrics from p's requests.
func (e *env) replayLayers(p *phase, imgs []*input, snaps []string) error {
	var fams []point
	var kern kernel
	counts := map[string]float64{}
	for pass := 0; pass < e.cfg.Size.ReplayPasses; pass++ {
		g := replayGroup(pass)
		counts = map[string]float64{}
		for _, in := range imgs {
			var pts *[]point
			if pass == 0 {
				pts = &fams
			}
			if err := e.replayImage(g, in, counts, pts, &kern); err != nil {
				return fmt.Errorf("replaying %s: %w", in.name, err)
			}
		}
		bytes := 0
		for _, path := range snaps {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			bytes += len(data)
			var s *snapshot.Snapshot
			sp := e.tr.begin(g, "snapshot.Decode", -1)
			s, err = snapshot.Decode(data)
			e.tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			sp = e.tr.begin(g, "snapshot.Encode", -1)
			_, err = s.Encode()
			e.tr.end(sp)
			if err != nil {
				return err
			}
		}
		counts["snapshot.bytes"] = float64(bytes)
	}
	for name, v := range counts {
		e.layer[name] = v
		e.tr.count(name, int64(v))
	}

	self := e.tr.selfByGroup()
	perPass := func(span string) float64 {
		var xs []float64
		for pass := 0; pass < e.cfg.Size.ReplayPasses; pass++ {
			xs = append(xs, ms(self[replayGroup(pass)][span]))
		}
		return median(xs)
	}
	perCall := func(span string) float64 {
		var xs []float64
		for _, d := range e.tr.durations(span) {
			xs = append(xs, ms(d))
		}
		return median(xs)
	}
	e.layer["image.load_ms"] = perCall("image.Load")
	e.layer["image.digest_ms"] = perCall("image.ContentDigest")
	e.layer["image.fn_digests_ms"] = perCall("image.FunctionDigests")
	for metric, span := range map[string]string{
		"disasm.all_ms":         "disasm.All",
		"vtable.discover_ms":    "vtable.Discover",
		"objtrace.extract_ms":   "objtrace.Extract",
		"structural.analyze_ms": "structural.Analyze",
		"slm.train_ms":          "slm.Train",
		"slm.dist_ms":           "slm.DistanceCalculator",
		"arborescence.solve_ms": "arborescence.EnumerateMin",
		"snapshot.decode_ms":    "snapshot.Decode",
		"snapshot.encode_ms":    "snapshot.Encode",
	} {
		e.layer[metric] = perPass(span)
	}
	e.layer["structural.admissible_frac"] = counts["structural.admissible_pairs"] / max(1, counts["structural.family_pairs"])
	e.layer["slm.dist_exponent"] = logSlope(fams)
	e.layer["slm.logprobseq_ns"] = kern.logProbSeqNS
	e.layer["slm.worddist_ns"] = kern.wordDistNS

	rows := func(op, stage string) float64 { return median(p.rows[op+"/"+stage]) }
	e.layer["evidence.slm_ms"] = rows("cold", "evidence:slm")
	e.layer["core.alphabet_ms"] = rows("cold", "alphabet")
	e.layer["core.hierarchy_ms"] = rows("cold", "hierarchy")
	e.layer["core.unattributed_ms"] = rows("cold", "unattributed")
	e.layer["core.diff_ms"] = rows("incr", "snapshot-diff")

	if err := e.replayCorpus(imgs); err != nil {
		return err
	}
	for k, v := range servedSummary(p.served) {
		if strings.HasPrefix(k, "rockd.") {
			e.layer[k] = v
		}
	}
	return nil
}

// kernel holds the hot-kernel timings, taken on the largest family seen.
type kernel struct {
	family       int
	logProbSeqNS float64
	wordDistNS   float64
}

// replayImage replays one image's pipeline under spans of group g and adds
// its counts. fams, when non-nil, receives one (family size, sweep ms)
// point per family.
func (e *env) replayImage(g int64, in *input, counts map[string]float64, fams *[]point, kern *kernel) error {
	tr := e.tr
	// The replay runs each layer as the program's default configuration
	// does.
	cfg := core.DefaultConfig()
	call := func(name string, f func()) time.Duration {
		sp := tr.begin(g, name, -1)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(sp)
		return d
	}
	var img *image.Image
	var err error
	call("image.Load", func() { img, err = image.Load(in.bytes) })
	if err != nil {
		return err
	}
	call("image.ContentDigest", func() { img.ContentDigest() })
	call("image.FunctionDigests", func() { img.FunctionDigests() })

	var fns []*ir.Function
	call("disasm.All", func() { fns, err = disasm.All(img) })
	if err != nil {
		return err
	}
	var vts []*vtable.VTable
	call("vtable.Discover", func() { vts = vtable.Discover(img, fns) })
	tcfg := cfg.Trace
	tcfg.Workers = runtime.GOMAXPROCS(0)
	var trs *objtrace.Result
	call("objtrace.Extract", func() { trs = objtrace.Extract(img, fns, vts, tcfg) })
	var sr *structural.Result
	call("structural.Analyze", func() { sr = structural.Analyze(img, fns, vts, trs, cfg.Structural) })

	tracelets, admissible, familyPairs := 0, 0, 0
	for _, tls := range trs.PerType {
		tracelets += len(tls)
	}
	for _, ps := range sr.PossibleParents {
		admissible += len(ps)
	}
	for _, fam := range sr.Families {
		familyPairs += len(fam) * (len(fam) - 1)
	}
	counts["disasm.functions"] += float64(len(fns))
	counts["vtable.types"] += float64(len(vts))
	counts["objtrace.tracelets"] += float64(tracelets)
	counts["structural.admissible_pairs"] += float64(admissible)
	counts["structural.family_pairs"] += float64(familyPairs)

	// Symbol interning, per-type word sets and the pair layout are core's
	// glue (the alphabet stage, read from the stage rows); here they only
	// build the slm and arborescence layers' inputs, the first two under
	// glue.* spans. On the first pass every family's minimum arborescence
	// weight must equal the program's, so the replay cannot drift from
	// what the program computes without failing the run.
	var want map[uint64]float64
	if fams != nil {
		res, err := core.Analyze(img, cfg)
		if err != nil {
			return err
		}
		want = map[uint64]float64{}
		for _, fr := range res.Families {
			want[fr.Types[0]] = fr.Weight
		}
	}
	var alpha int
	var seqs map[uint64][][]int
	var words map[uint64][][]int
	call("glue.encode", func() { alpha, seqs, words = encodeTracelets(vts, trs) })

	frozen := make(map[uint64]*slm.Frozen, len(vts))
	call("slm.Train", func() {
		for _, v := range vts {
			m := slm.New(cfg.SLMDepth, alpha)
			for _, s := range seqs[v.Addr] {
				m.Train(s)
			}
			frozen[v.Addr] = m.Freeze()
		}
	})
	for _, f := range frozen {
		counts["slm.trie_nodes"] += float64(f.Nodes())
	}

	for _, fam := range sr.Families {
		if len(fam) < 2 {
			continue
		}
		var fw [][]int
		call("glue.family_words", func() { fw = familyWords(fam, words) })
		scorers := make([]slm.WordScorer, len(fam))
		for i, t := range fam {
			scorers[i] = frozen[t]
		}
		var pairs [][2]uint64
		for _, c := range fam {
			for _, p := range sr.PossibleParents[c] {
				pairs = append(pairs, [2]uint64{p, c})
			}
		}
		dist := make([]float64, len(pairs))
		var root float64
		d := call("slm.DistanceCalculator", func() {
			calc := slm.NewDistanceCalculator(cfg.Metric, fw)
			root = calc.PairBound(scorers)*cfg.RootWeightFactor + 1
			for k, pc := range pairs {
				dist[k] = calc.Distance(frozen[pc[0]], frozen[pc[1]])
			}
		})
		counts["slm.family_words"] += float64(len(fw))
		counts["slm.word_evals"] += float64(len(fam) * len(fw))
		if fams != nil {
			*fams = append(*fams, point{float64(len(fam)), ms(d)})
		}

		node := map[uint64]int{}
		for i, t := range fam {
			node[t] = i + 1
		}
		edges := make([]arborescence.Edge, 0, len(fam)+len(pairs))
		for i := range fam {
			edges = append(edges, arborescence.Edge{From: 0, To: i + 1, W: root})
		}
		for k, pc := range pairs {
			edges = append(edges, arborescence.Edge{From: node[pc[0]], To: node[pc[1]], W: dist[k]})
		}
		var arbs [][]int
		var w float64
		call("arborescence.EnumerateMin", func() {
			arbs, w, _, err = arborescence.EnumerateMin(len(fam)+1, 0, edges, cfg.EnumEps, cfg.EnumLimit)
		})
		if err != nil {
			return err
		}
		if ww, ok := want[fam[0]]; want != nil && (!ok || math.Abs(w-ww) > 1e-9*math.Max(1, math.Abs(ww))) {
			return fmt.Errorf("family of %#x: replayed minimum weight %v, the program's %v", fam[0], w, ww)
		}
		counts["arborescence.co_optimal"] += float64(len(arbs))

		if fams != nil && len(fam) > kern.family {
			kern.family = len(fam)
			kern.logProbSeqNS, kern.wordDistNS = timeKernels(fam, frozen, fw)
		}
	}
	return nil
}

// encodeTracelets interns every event of the image in ascending type
// order, as core's alphabet stage does, and returns the alphabet size,
// each type's encoded tracelets, and each type's distinct encoded words.
func encodeTracelets(vts []*vtable.VTable, trs *objtrace.Result) (int, map[uint64][][]int, map[uint64][][]int) {
	types := make([]uint64, 0, len(trs.PerType))
	for t := range trs.PerType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	idx := map[objtrace.Event]int{}
	for _, t := range types {
		for _, tl := range trs.PerType[t] {
			for _, ev := range tl {
				if _, ok := idx[ev]; !ok {
					idx[ev] = len(idx)
				}
			}
		}
	}
	seqs := map[uint64][][]int{}
	words := map[uint64][][]int{}
	for _, v := range vts {
		seen := map[string]bool{}
		for _, tl := range trs.PerType[v.Addr] {
			s := make([]int, len(tl))
			for i, ev := range tl {
				s[i] = idx[ev]
			}
			seqs[v.Addr] = append(seqs[v.Addr], s)
			if k := fmt.Sprint(s); !seen[k] {
				seen[k] = true
				words[v.Addr] = append(words[v.Addr], s)
			}
		}
	}
	return max(1, len(idx)), seqs, words
}

// familyWords is the union of the family members' distinct words.
func familyWords(fam []uint64, words map[uint64][][]int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, t := range fam {
		for _, w := range words[t] {
			if k := fmt.Sprint(w); !seen[k] {
				seen[k] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// timeKernels times the two hot kernels on up to 8 of the family's frozen
// models over the family's word set: Frozen.LogProbSeq per call, and
// slm.WordDistribution per (model, word) pair.
func timeKernels(fam []uint64, frozen map[uint64]*slm.Frozen, words [][]int) (logProbSeqNS, wordDistNS float64) {
	if len(words) == 0 {
		return 0, 0
	}
	models := fam[:min(8, len(fam))]
	const budget = 20 * time.Millisecond
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		for _, t := range models {
			f := frozen[t]
			for _, w := range words {
				f.LogProbSeq(w)
			}
			calls += len(words)
		}
	}
	logProbSeqNS = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	evals := 0
	t0 = time.Now()
	for time.Since(t0) < budget {
		for _, t := range models {
			slm.WordDistribution(frozen[t], words)
			evals += len(words)
		}
	}
	wordDistNS = float64(time.Since(t0).Nanoseconds()) / float64(evals)
	return logProbSeqNS, wordDistNS
}

// replayCorpus runs imgs as one cold corpus batch into an empty cache
// directory and then a warm one, for the corpus scheduler's metrics.
func (e *env) replayCorpus(imgs []*input) error {
	dir, err := e.tempDir("replay-corpus-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := rock.CorpusOptions{Options: rock.Options{CacheDir: dir}}
	g := replayGroup(-1)
	sp := e.tr.begin(g, "rock.AnalyzeCorpus", -1)
	cold, err := rock.AnalyzeCorpus(context.Background(), images(imgs), opts)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	sp = e.tr.begin(g, "rock.AnalyzeCorpus", -1)
	warm, err := rock.AnalyzeCorpus(context.Background(), images(imgs), opts)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	var waits []float64
	for i, it := range cold.Items {
		if it.Err != nil {
			return fmt.Errorf("%s: %w", imgs[i].name, it.Err)
		}
		waits = append(waits, ms(it.Wait))
	}
	e.layer["corpus.wait_ms"] = median(waits)
	e.layer["corpus.bypass_frac"] = float64(warm.Warm) / float64(len(imgs))
	e.layer["corpus.peak_heap_mb"] = float64(cold.PeakHeap) / (1 << 20)
	return nil
}
