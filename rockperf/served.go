package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/rockd"
	"repro/rock"
)

// daemon is an in-process rockd serving on a loopback listener.
type daemon struct {
	srv    *rockd.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

// startDaemon starts rockd with a snapshot store in cacheDir and
// Workers = nproc. With refuseFirst the first submission is answered 429
// before it reaches the daemon (the self-test's planted refusal).
func startDaemon(cacheDir string, refuseFirst bool) (*daemon, error) {
	srv, err := rockd.New(rockd.Config{Analysis: rock.Options{CacheDir: cacheDir}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if refuseFirst {
		var refused atomic.Bool
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && refused.CompareAndSwap(false, true) {
				http.Error(w, "planted refusal", http.StatusTooManyRequests)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	d := &daemon{
		srv: srv,
		hs:  &http.Server{Handler: h},
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: runtime.GOMAXPROCS(0),
			MaxConnsPerHost:     runtime.GOMAXPROCS(0),
		}},
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for in-flight requests and the
// daemon's flights, and returns once the serving goroutine has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a straggler past the timeout is cut by Close below
	<-d.done
	d.srv.Close()
	d.client.CloseIdleConnections()
}

// servedReq is one submission and its outcome. want is the rung that must
// answer it: "hot", "warm", "incremental" or "cold".
type servedReq struct {
	in   *input
	want string
	due  time.Time
	end  time.Time

	status int
	resp   rockd.Response
	err    error
}

// latency is the request's latency from its due time.
func (r *servedReq) latency() float64 { return ms(r.end.Sub(r.due)) }

// post submits r's image to /v1/analyze and fills in the outcome.
func (d *daemon) post(r *servedReq) {
	resp, err := d.client.Post(d.url+"/v1/analyze", "application/octet-stream", bytes.NewReader(r.in.bytes))
	if err != nil {
		r.end = time.Now()
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode
	body, err := io.ReadAll(resp.Body)
	// The response is complete once read; decoding it is the client's work.
	r.end = time.Now()
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("%s: HTTP %d: %s", r.in.name, resp.StatusCode, bytes.TrimSpace(body))
		return
	}
	if err := json.Unmarshal(body, &r.resp); err != nil {
		r.err = fmt.Errorf("%s: decoding response: %w", r.in.name, err)
	}
}

// checkServed checks that the rung r expects answered it and that the
// served report equals the reference analysis (ref is reportJSON of a
// direct rock.AnalyzeImage of the same image), and returns the served
// report.
func checkServed(e *env, r *servedReq, ref []byte) (*rock.Report, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.resp.Source != r.want {
		return nil, fmt.Errorf("%s: answered by the %q rung, want %q", r.in.name, r.resp.Source, r.want)
	}
	rep, got, err := servedReport(r.resp.Report)
	if err != nil {
		return nil, err
	}
	e.plantEdges(rep)
	if got, err = reportJSON(rep); err != nil {
		return nil, err
	}
	if !bytes.Equal(got, ref) {
		return nil, fmt.Errorf("%s: served %s report differs from the direct analysis", r.in.name, r.resp.Source)
	}
	return rep, nil
}

// servedSummary derives the served metrics of a phase's requests. A
// latency with no request behind it is NaN, which fails the run.
func servedSummary(reqs []*servedReq) map[string]float64 {
	lat := map[string][]float64{}
	var queue, analysis []float64
	n, rejected := 0, 0
	for _, r := range reqs {
		n++
		if r.status == http.StatusTooManyRequests || r.status >= 500 {
			rejected++
		}
		if r.err != nil {
			continue
		}
		src := r.resp.Source
		lat[src] = append(lat[src], r.latency())
		if src == "incremental" || src == "cold" {
			lat["miss"] = append(lat["miss"], r.latency())
			queue = append(queue, float64(r.resp.QueueWaitNS)/1e6)
			analysis = append(analysis, float64(r.resp.AnalysisNS)/1e6)
		}
	}
	frac := func(k string) float64 { return float64(len(lat[k])) / float64(max(1, n)) }
	return map[string]float64{
		"hot_p50_ms":          pct(lat["hot"], 0.50),
		"hot_p90_ms":          pct(lat["hot"], 0.90),
		"miss_p50_ms":         pct(lat["miss"], 0.50),
		"rockd.hot_frac":      frac("hot"),
		"rockd.warm_frac":     frac("warm"),
		"rockd.incr_frac":     frac("incremental"),
		"rockd.cold_frac":     frac("cold"),
		"rockd.queue_wait_ms": median(queue),
		"rockd.analysis_ms":   median(analysis),
		"rockd.rejected_frac": float64(rejected) / float64(max(1, n)),
	}
}
