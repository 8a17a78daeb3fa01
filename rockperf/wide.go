package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/snapshot"
	"repro/rock"
)

// The wide workload: one wide family (the -scale generator, seed 101) at
// three sizes, all analysed cold every iteration; cold_ms is the largest
// size. The generator emits no patchable function, so the incremental
// lane re-analyses the unchanged largest image against its own snapshot
// (every function's digest hits). Each iteration also restores the
// largest image warm and serves a never-seen wide image (the daemon's
// cold rung) followed by hot hits of the three sizes. The cheap lanes
// repeat (sizeCfg.Reps).
type wideState struct {
	imgs      []*input
	refs      []*rock.Report
	refJSON   [][]byte
	snap      string
	daemonDir string
	d         *daemon
	fresh     int
}

func (s *wideState) close() {
	if s == nil {
		return
	}
	s.d.stop()
	os.RemoveAll(s.daemonDir)
}

func wideSetup(e *env) (_ *wideState, err error) {
	st := &wideState{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.daemonDir, err = e.tempDir("wide-daemon-"); err != nil {
		return nil, err
	}
	for _, n := range e.cfg.Size.WideSizes {
		in, err := wideInput(n, 101)
		if err != nil {
			return nil, err
		}
		rep, err := rock.AnalyzeImage(in.img, rock.Options{CacheDir: st.daemonDir})
		if err != nil {
			return nil, err
		}
		js, err := reportJSON(rep)
		if err != nil {
			return nil, err
		}
		st.imgs = append(st.imgs, in)
		st.refs = append(st.refs, rep)
		st.refJSON = append(st.refJSON, js)
	}
	largest := st.imgs[len(st.imgs)-1].img.ContentDigest()
	snaps, err := filepath.Glob(filepath.Join(st.daemonDir, "*.rsnap"))
	if err != nil {
		return nil, err
	}
	for _, s := range snaps {
		if k, err := snapshot.ReadKey(s); err == nil && k.Digest == largest {
			st.snap = s
		}
	}
	if st.snap == "" {
		return nil, fmt.Errorf("no snapshot of the largest wide image")
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

func runWide(e *env) error {
	st, err := setupRepeated(e, func() (*wideState, error) { return wideSetup(e) }, (*wideState).close)
	if err != nil {
		return err
	}
	defer st.close()
	p, err := e.measureLoop(func(p *phase) error { return st.iterate(e, p) }, closedSummary)
	if err != nil || !e.cfg.Trace {
		return err
	}
	var pts []point
	for i, in := range st.imgs {
		pts = append(pts, point{float64(len(st.refs[i].Types)), median(e.plainPhase.samples["size:"+in.name])})
	}
	e.layer["core.cold_exponent"] = logSlope(pts)
	var snaps []string
	if snaps, err = filepath.Glob(filepath.Join(st.daemonDir, "*.rsnap")); err != nil {
		return err
	}
	return e.replayLayers(p, st.imgs, snaps)
}

func (st *wideState) iterate(e *env, p *phase) error {
	g := p.nextGroup()
	var total time.Duration
	var f1s []float64
	var largest *rock.Report
	for i, in := range st.imgs {
		// The largest size is the workload's cold operation.
		op := "cold-smaller"
		if i == len(st.imgs)-1 {
			op = "cold"
		}
		rep, d, err := p.analyze(g, op, in.img, rock.Options{})
		if err == nil {
			e.plantEdges(rep)
			if !sameReport(rep, st.refs[i]) {
				err = fmt.Errorf("%s: cold analysis differs from the set-up analysis", in.name)
			}
		}
		var f1 float64
		if err == nil {
			f1, err = edgeF1(rep, in.meta)
		}
		e.record(err)
		if err != nil {
			continue
		}
		total += d
		f1s = append(f1s, f1)
		p.add("size:"+in.name, ms(d))
		if i == len(st.imgs)-1 {
			largest = rep
			p.add("cold_ms", ms(d))
		}
	}
	p.add("images_per_s", float64(len(st.imgs))/total.Seconds())
	p.add("edge_f1", mean(f1s))
	if largest == nil {
		return nil
	}
	big := st.imgs[len(st.imgs)-1]
	for k := 0; k < e.cfg.Size.Reps; k++ {
		p.lane(e, g, "incr", big, largest, rock.Options{IncrementalFrom: st.snap})
	}
	for k := 0; k < e.cfg.Size.Reps; k++ {
		p.lane(e, g, "warm", big, largest, rock.Options{CacheDir: st.daemonDir})
	}

	fresh, err := wideInput(e.cfg.Size.FreshWide, freshSeed(e.cfg.Seed, st.fresh))
	if err != nil {
		return err
	}
	st.fresh++
	ref, err := rock.AnalyzeImage(fresh.img, rock.Options{})
	if err != nil {
		e.record(err)
		return nil
	}
	js, err := reportJSON(ref)
	if err != nil {
		return err
	}
	// The fresh image once (a miss), then hot hits of the three sizes.
	reqs := []*servedReq{{in: fresh, want: "cold"}}
	refs := [][]byte{js}
	for k := 0; k < e.cfg.Size.HotPerIter; k++ {
		i := k % len(st.imgs)
		reqs, refs = append(reqs, &servedReq{in: st.imgs[i], want: "hot"}), append(refs, st.refJSON[i])
	}
	p.serveAll(e, st.d, g, reqs, refs)
	return pruneSnapshots(st.daemonDir, snapNames(st.daemonDir, st.imgs)...)
}

// snapNames returns the file names of the snapshots in dir that belong to
// one of imgs.
func snapNames(dir string, imgs []*input) []string {
	want := map[[32]byte]bool{}
	for _, in := range imgs {
		want[in.img.ContentDigest()] = true
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.rsnap")) // the pattern is well-formed
	var out []string
	for _, s := range snaps {
		if k, err := snapshot.ReadKey(s); err == nil && want[k.Digest] {
			out = append(out, filepath.Base(s))
		}
	}
	return out
}
