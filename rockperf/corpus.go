package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/image"
	"repro/rock"
)

// The corpus workload: the 19 Table 2 programs and the 30 synth-grid
// configs as one batch through rock.AnalyzeCorpus. Each iteration runs a
// cold pass into an empty cache directory and warm passes over it, then
// re-analyses 1-function patches (seeded functions) of the patch target
// against that directory (the incremental lane finds the image's
// snapshot), and serves the patches (misses) and every corpus image once
// (hot hits). The cheap steps repeat (sizeCfg.Reps).
type corpusState struct {
	imgs      []*input
	refs      []*rock.Report
	refJSON   [][]byte
	target    int      // the image patches are made to (patchTarget)
	cands     []uint64 // its patchable functions
	order     []int    // the run's seeded order of cands (nextFn)
	sent      map[uint64]bool
	golden    map[string]string
	daemonDir string
	d         *daemon
}

func (s *corpusState) close() {
	if s == nil {
		return
	}
	s.d.stop()
	os.RemoveAll(s.daemonDir)
}

func corpusSetup(e *env) (_ *corpusState, err error) {
	st := &corpusState{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.golden, err = loadGolden(e.cfg.Root); err != nil {
		return nil, err
	}
	if st.imgs, err = corpusInputs(e.cfg.Size.Table2, e.cfg.Size.Grid); err != nil {
		return nil, err
	}
	if st.daemonDir, err = e.tempDir("corpus-daemon-"); err != nil {
		return nil, err
	}
	if st.refs, err = analyzeAll(st.imgs, st.daemonDir); err != nil {
		return nil, err
	}
	for i := range st.imgs {
		js, err := reportJSON(st.refs[i])
		if err != nil {
			return nil, err
		}
		st.refJSON = append(st.refJSON, js)
	}
	if st.target, st.cands, err = patchTarget(st.imgs); err != nil {
		return nil, err
	}
	if st.d, err = startDaemon(st.daemonDir, e.cfg.Plant == "429"); err != nil {
		return nil, err
	}
	for i, in := range st.imgs {
		r := &servedReq{in: in, want: "warm", due: time.Now()}
		st.d.post(r)
		_, err := checkServed(e, r, st.refJSON[i])
		e.record(err)
	}
	return st, nil
}

// analyzeAll analyses imgs as one cold batch into cacheDir and returns
// the reports in input order.
func analyzeAll(imgs []*input, cacheDir string) ([]*rock.Report, error) {
	rep, err := rock.AnalyzeCorpus(context.Background(), images(imgs),
		rock.CorpusOptions{Options: rock.Options{CacheDir: cacheDir}})
	if err != nil {
		return nil, err
	}
	out := make([]*rock.Report, len(imgs))
	for i, it := range rep.Items {
		if it.Err != nil {
			return nil, fmt.Errorf("%s: %w", imgs[i].name, it.Err)
		}
		out[i] = it.Report
	}
	return out, nil
}

func runCorpus(e *env) error {
	st, err := setupRepeated(e, func() (*corpusState, error) { return corpusSetup(e) }, (*corpusState).close)
	if err != nil {
		return err
	}
	defer st.close()
	checkTable2(e, st.imgs, st.refs, st.golden)
	p, err := e.measureLoop(func(p *phase) error { return st.iterate(e, p) }, closedSummary)
	if err != nil || !e.cfg.Trace {
		return err
	}
	exp, err := coldExponent(e, st.imgs)
	if err != nil {
		return err
	}
	e.layer["core.cold_exponent"] = exp
	return e.replayLayers(p, st.imgs, snapPaths(st.daemonDir, st.imgs))
}

func (st *corpusState) iterate(e *env, p *phase) error {
	g := p.nextGroup()
	dir, err := e.tempDir("corpus-pass-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	imgs := images(st.imgs)
	opts := rock.CorpusOptions{Options: rock.Options{CacheDir: dir}}

	cold, d, err := p.analyzeCorpus(g, "cold", imgs, opts)
	if err != nil {
		return err
	}
	p.add("images_per_s", float64(len(imgs))/d.Seconds())
	var f1s []float64
	for i, it := range cold.Items {
		err := it.Err
		if err == nil {
			e.plantEdges(it.Report)
			var f1 float64
			if f1, err = checkCorpusReport(st.imgs[i], it.Report, st.refs[i]); err == nil {
				f1s = append(f1s, f1)
			}
		}
		e.record(err)
	}
	p.add("edge_f1", mean(f1s))

	for k := 0; k < e.cfg.Size.Reps; k++ {
		warm, d, err := p.analyzeCorpus(g, "warm", imgs, opts)
		if err != nil {
			return err
		}
		p.add("warm_ms", ms(d))
		for i, it := range warm.Items {
			err := it.Err
			switch {
			case err != nil:
			case !it.Warm:
				err = fmt.Errorf("%s: warm pass analysed the image instead of restoring it", st.imgs[i].name)
			case !sameReport(it.Report, st.refs[i]):
				err = fmt.Errorf("%s: warm report differs from the reference analysis", st.imgs[i].name)
			}
			e.record(err)
		}
	}

	// Patches of the target, each analysed cold (cold_ms, and the reference
	// the others are checked against), re-analysed against the pass's
	// directory and then served once (a miss).
	var reqs []*servedReq
	var refs [][]byte
	used := map[uint64]bool{}
	for k := 0; k < e.cfg.Size.Reps; k++ {
		// A patch repeated within the iteration would find its own
		// snapshot in dir: a warm restore, not an incremental run.
		fn := nextFn(e.rng, &st.order, st.cands)
		for used[fn] && len(used) < len(st.cands) {
			fn = nextFn(e.rng, &st.order, st.cands)
		}
		used[fn] = true
		patched, err := patchInput(st.imgs[st.target], fn)
		if err != nil {
			return err
		}
		ref, d, err := p.analyze(g, "cold-image", patched.img, rock.Options{})
		if err != nil {
			e.record(err)
			continue
		}
		p.add("cold_ms", ms(d))
		p.lane(e, g, "incr", patched, ref, rock.Options{CacheDir: dir})
		js, err := reportJSON(ref)
		if err != nil {
			return err
		}
		reqs = append(reqs, &servedReq{in: patched, want: patchRung(&st.sent, fn)})
		refs = append(refs, js)
	}
	// The patches once each (misses), then every corpus image (hot hits).
	for i, in := range st.imgs {
		reqs, refs = append(reqs, &servedReq{in: in, want: "hot"}), append(refs, st.refJSON[i])
	}
	p.serveAll(e, st.d, g, reqs, refs)
	return pruneSnapshots(st.daemonDir, snapNames(st.daemonDir, st.imgs)...)
}

// analyzeCorpus runs one rock.AnalyzeCorpus pass as operation op. In the
// traced phase the pass gets a span with the program's per-image stage
// spans under it, and the images' stage rows are summed under op.
func (p *phase) analyzeCorpus(group int64, op string, imgs []*image.Image, opts rock.CorpusOptions) (*rock.CorpusReport, time.Duration, error) {
	_, trc, epoch := p.observer()
	opts.Trace = trc
	sp := p.tr.begin(group, "rock.AnalyzeCorpus", -1)
	t0 := time.Now()
	rep, err := rock.AnalyzeCorpus(context.Background(), imgs, opts)
	d := time.Since(t0)
	p.tr.end(sp)
	if err != nil {
		return nil, d, err
	}
	if trc != nil {
		if err := p.tr.importTrace(group, sp, trc, epoch); err != nil {
			return nil, d, err
		}
		sum := &rock.Stats{}
		for _, it := range rep.Items {
			sum.Merge(it.Stats)
		}
		p.keepRows(op, sum)
	}
	return rep, d, nil
}

func images(ins []*input) []*image.Image {
	out := make([]*image.Image, len(ins))
	for i, in := range ins {
		out[i] = in.img
	}
	return out
}

// snapPaths returns the paths of the snapshots in dir that belong to imgs.
func snapPaths(dir string, imgs []*input) []string {
	names := snapNames(dir, imgs)
	for i, n := range names {
		names[i] = dir + string(os.PathSeparator) + n
	}
	return names
}

// coldExponent fits the cold-time exponent over the images of a corpus:
// each image analysed alone, cold, against its type count.
func coldExponent(e *env, imgs []*input) (float64, error) {
	var pts []point
	for _, in := range imgs {
		t0 := time.Now()
		rep, err := rock.AnalyzeImage(in.img, rock.Options{})
		e.record(err)
		if err != nil {
			continue
		}
		pts = append(pts, point{float64(len(rep.Types)), ms(time.Since(t0))})
	}
	return logSlope(pts), nil
}

// patchTarget picks the image 1-function patches are made to: the one with
// the most patchable functions (the first on a tie). Patching one fixed
// image keeps the incremental lane's cost independent of the seed, which
// only chooses the function.
func patchTarget(imgs []*input) (int, []uint64, error) {
	best, cands := -1, []uint64(nil)
	for i, in := range imgs {
		if c := bench.PatchableFunctions(in.img); len(c) > len(cands) {
			best, cands = i, c
		}
	}
	if best < 0 {
		return 0, nil, fmt.Errorf("no image has a patchable function")
	}
	return best, cands, nil
}

// nextFn returns the next function of a seeded permutation of cands, so a
// run patches each function once before it repeats any: a repeated patch
// would be a warm restore or a hot hit, not a re-analysis.
func nextFn(rng *rand.Rand, order *[]int, cands []uint64) uint64 {
	if len(*order) == 0 {
		*order = rng.Perm(len(cands))
	}
	i := (*order)[0]
	*order = (*order)[1:]
	return cands[i]
}

// patchRung returns the rung that must answer the patch of fn: the
// incremental one the first time the daemon sees it, the hot cache after
// (once a run has used every function, nextFn repeats them).
func patchRung(sent *map[uint64]bool, fn uint64) string {
	if *sent == nil {
		*sent = map[uint64]bool{}
	}
	if (*sent)[fn] {
		return "hot"
	}
	(*sent)[fn] = true
	return "incremental"
}
