package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/snapshot"
	"repro/rock"
)

// The deep workload: the 663-type -incr base image. Each iteration
// patches one seeded function, analyses the patched image cold, then
// incrementally against the base snapshot built in set-up (never a
// snapshot an earlier iteration wrote), restores it warm from the
// snapshot the incremental run wrote, and serves it: once as a miss (the
// daemon's incremental rung) and then as hot-cache hits. The cheap lanes
// repeat (sizeCfg.Reps) so their medians rest on as many samples as the
// cold one's.
type deepState struct {
	base      *input
	cands     []uint64
	order     []int // the run's seeded order of cands (nextFn)
	sent      map[uint64]bool
	baseSnap  string
	baseDir   string
	daemonDir string
	d         *daemon
	baseRef   []byte
	types     int
	last      *input
}

func (s *deepState) close() {
	if s == nil {
		return
	}
	s.d.stop()
	os.RemoveAll(s.baseDir)
	os.RemoveAll(s.daemonDir)
}

func deepSetup(e *env) (_ *deepState, err error) {
	st := &deepState{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.base, err = deepInput(e.cfg.Size.DeepFamilies); err != nil {
		return nil, err
	}
	if st.cands = bench.PatchableFunctions(st.base.img); len(st.cands) == 0 {
		return nil, fmt.Errorf("deep image has no patchable function")
	}
	if st.baseDir, err = e.tempDir("deep-base-"); err != nil {
		return nil, err
	}
	rep, err := rock.AnalyzeImage(st.base.img, rock.Options{CacheDir: st.baseDir})
	if err != nil {
		return nil, err
	}
	if st.baseSnap, err = onlySnapshot(st.baseDir); err != nil {
		return nil, err
	}
	if st.daemonDir, err = e.tempDir("deep-daemon-"); err != nil {
		return nil, err
	}
	if err := copyFile(st.baseSnap, filepath.Join(st.daemonDir, filepath.Base(st.baseSnap))); err != nil {
		return nil, err
	}
	st.types = len(rep.Types)
	if st.baseRef, err = reportJSON(rep); err != nil {
		return nil, err
	}
	if st.d, err = startDaemon(st.daemonDir, e.cfg.Plant == "429"); err != nil {
		return nil, err
	}
	// One submission of the base image makes its later ones hot hits.
	r := &servedReq{in: st.base, want: "warm", due: time.Now()}
	st.d.post(r)
	_, err = checkServed(e, r, st.baseRef)
	e.record(err)
	return st, nil
}

func runDeep(e *env) error {
	st, err := setupRepeated(e, func() (*deepState, error) { return deepSetup(e) }, (*deepState).close)
	if err != nil {
		return err
	}
	defer st.close()
	p, err := e.measureLoop(func(p *phase) error { return st.iterate(e, p) }, closedSummary)
	if err != nil || !e.cfg.Trace {
		return err
	}
	exp, err := deepColdExponent(e, st.types)
	if err != nil {
		return err
	}
	e.layer["core.cold_exponent"] = exp
	return e.replayLayers(p, []*input{st.last}, []string{st.baseSnap})
}

func (st *deepState) iterate(e *env, p *phase) error {
	g := p.nextGroup()
	fn := nextFn(e.rng, &st.order, st.cands)
	patched, err := patchInput(st.base, fn)
	if err != nil {
		return err
	}
	st.last = patched
	cold, d, err := p.analyze(g, "cold", patched.img, rock.Options{})
	if err != nil {
		e.record(err)
		return nil
	}
	f1, err := edgeF1(cold, patched.meta)
	e.record(err)
	p.add("cold_ms", ms(d))
	p.add("images_per_s", 1/d.Seconds())
	p.add("edge_f1", f1)

	// Each incremental run gets an empty cache directory, so it diffs
	// against the base snapshot and writes the snapshot the warm restores
	// read; it costs about 7 times a warm restore, so it repeats less.
	var dir string
	for k := 0; k < max(1, e.cfg.Size.Reps/2); k++ {
		if dir, err = e.tempDir("deep-iter-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		p.lane(e, g, "incr", patched, cold, rock.Options{IncrementalFrom: st.baseSnap, CacheDir: dir})
	}
	for k := 0; k < e.cfg.Size.Reps; k++ {
		p.lane(e, g, "warm", patched, cold, rock.Options{CacheDir: dir})
	}

	ref, err := reportJSON(cold)
	if err != nil {
		return err
	}
	// The patch once (a miss), then hot hits of the patch and the base.
	reqs := []*servedReq{{in: patched, want: patchRung(&st.sent, fn)}}
	refs := [][]byte{ref}
	for k := 0; k < e.cfg.Size.HotPerIter; k++ {
		if k%2 == 0 {
			reqs, refs = append(reqs, &servedReq{in: patched, want: "hot"}), append(refs, ref)
		} else {
			reqs, refs = append(reqs, &servedReq{in: st.base, want: "hot"}), append(refs, st.baseRef)
		}
	}
	p.serveAll(e, st.d, g, reqs, refs)
	// Keep the daemon's store at the base snapshot alone, so every
	// iteration's miss diffs against the same prior.
	return pruneSnapshots(st.daemonDir, filepath.Base(st.baseSnap))
}

// lane runs one incremental ("incr") or warm ("warm") analysis of in,
// records its wall time under op_ms, and checks its result against the
// cold analysis of the same image.
func (p *phase) lane(e *env, g int64, op string, in *input, cold *rock.Report, opts rock.Options) {
	rep, d, err := p.analyze(g, op, in.img, opts)
	if err == nil {
		e.plantEdges(rep)
		switch {
		case op == "incr" && !rep.Incremental:
			err = fmt.Errorf("%s: the incremental lane did not engage", in.name)
		case op == "warm" && rep.SnapshotReuse != snapshot.LevelHierarchy:
			err = fmt.Errorf("%s: warm run reused level %d", in.name, rep.SnapshotReuse)
		case !sameReport(rep, cold):
			err = fmt.Errorf("%s: %s result differs from the cold analysis", in.name, op)
		}
		p.add(op+"_ms", ms(d))
	}
	e.record(err)
}

// serveAll sends reqs one after another (closed loop), each timed from
// when it is sent, and then checks each response against refs. The
// checks run after the last request, and the first request starts from a
// collected heap, so neither the checks' garbage nor an earlier step's is
// charged to a request.
func (p *phase) serveAll(e *env, d *daemon, g int64, reqs []*servedReq, refs [][]byte) {
	runtime.GC()
	for _, r := range reqs {
		r.due = time.Now()
		p.post(d, g, r)
	}
	for i, r := range reqs {
		_, err := checkServed(e, r, refs[i])
		e.record(err)
	}
}

// post sends one closed-loop request under a span and keeps it.
func (p *phase) post(d *daemon, g int64, r *servedReq) {
	sp := p.tr.begin(g, "rockd.POST", -1)
	d.post(r)
	p.tr.end(sp)
	p.served = append(p.served, r)
}

// closedSummary turns a closed-loop phase's samples into the end-to-end
// metrics.
func closedSummary(p *phase) map[string]float64 {
	out := map[string]float64{
		"cold_ms":      median(p.samples["cold_ms"]),
		"incr_ms":      median(p.samples["incr_ms"]),
		"warm_ms":      median(p.samples["warm_ms"]),
		"images_per_s": median(p.samples["images_per_s"]),
		"edge_f1":      mean(p.samples["edge_f1"]),
	}
	s := servedSummary(p.served)
	for _, k := range []string{"hot_p50_ms", "hot_p90_ms", "miss_p50_ms"} {
		out[k] = s[k]
	}
	return out
}

// deepColdExponent fits the cold-time exponent of the deep generator (cold
// wall time against type count) over its smaller family counts and the
// untraced cold_ms of the full image, which has types types.
func deepColdExponent(e *env, types int) (float64, error) {
	pts := []point{{float64(types), e.plain["cold_ms"]}}
	for _, fams := range e.cfg.Size.DeepExpFamilies {
		in, err := deepInput(fams)
		if err != nil {
			return 0, err
		}
		var walls []float64
		n := 0
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			rep, err := rock.AnalyzeImage(in.img, rock.Options{})
			e.record(err)
			if err != nil {
				continue
			}
			walls = append(walls, ms(time.Since(t0)))
			n = len(rep.Types)
		}
		pts = append(pts, point{float64(n), median(walls)})
	}
	return logSlope(pts), nil
}

// onlySnapshot returns the single snapshot file in dir.
func onlySnapshot(dir string) (string, error) {
	snaps, err := filepath.Glob(filepath.Join(dir, "*.rsnap"))
	if err != nil || len(snaps) != 1 {
		return "", fmt.Errorf("expected one snapshot in %s, found %d (%v)", dir, len(snaps), err)
	}
	return snaps[0], nil
}

// pruneSnapshots removes every snapshot in dir except keep.
func pruneSnapshots(dir string, keep ...string) error {
	snaps, err := filepath.Glob(filepath.Join(dir, "*.rsnap"))
	if err != nil {
		return err
	}
	kept := map[string]bool{}
	for _, k := range keep {
		kept[k] = true
	}
	for _, s := range snaps {
		if !kept[filepath.Base(s)] {
			if err := os.Remove(s); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}
