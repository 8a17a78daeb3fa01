package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/rock"
)

// span is one recorded interval. Spans of one iteration or request share
// Group; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps the traced run's spans and counts in memory until the run
// writes them out. A nil tracer records nothing, so untraced code paths
// call the same methods for free.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(group int64, name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Group: group, Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// count adds n to a named count recorded at a layer boundary.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// importTrace adds the stage spans the program drew on trc (its own
// chrome-trace output) as children of span parent. Spans on one lane nest
// by containment; fan-out helper spans are left out, since they overlap
// the stage that spawned them.
func (t *tracer) importTrace(group int64, parent int, trc *rock.Trace, epoch time.Time) error {
	if t == nil {
		return nil
	}
	var buf bytes.Buffer
	if _, err := trc.WriteTo(&buf); err != nil {
		return err
	}
	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Tid  int     `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		return fmt.Errorf("decoding the program's trace: %w", err)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	off := epoch.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	stacks := map[int][]int{}
	for _, ev := range events {
		if ev.Cat == "fanout" {
			continue
		}
		start := off + int64(ev.Ts*1e3)
		end := start + int64(ev.Dur*1e3)
		st := stacks[ev.Tid]
		for len(st) > 0 && t.spans[st[len(st)-1]].End <= start {
			st = st[:len(st)-1]
		}
		p := parent
		if len(st) > 0 {
			p = st[len(st)-1]
		}
		t.spans = append(t.spans, span{Group: group, Name: "stage:" + ev.Name, Start: start, End: end, Parent: p})
		stacks[ev.Tid] = append(st, len(t.spans)-1)
	}
	return nil
}

// selfTimes returns every span's self time: its duration minus the part
// of it that its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, cur := int64(0), s.Start
		for _, v := range ivs {
			a := max(v.a, cur)
			if v.b > a {
				covered += v.b - a
				cur = v.b
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByGroup sums self times per (group, span name).
func (t *tracer) selfByGroup() map[int64]map[string]time.Duration {
	self := t.selfTimes()
	out := map[int64]map[string]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if out[s.Group] == nil {
			out[s.Group] = map[string]time.Duration{}
		}
		out[s.Group][s.Name] += self[i]
	}
	return out
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// writeFile writes the spans, their self times and the counts as JSON.
func (t *tracer) writeFile(path string) error {
	self := t.selfTimes()
	t.mu.Lock()
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	doc := struct {
		Spans  []out            `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{Counts: t.counts}
	for i, s := range t.spans {
		doc.Spans = append(doc.Spans, out{span: s, SelfNS: self[i].Nanoseconds()})
	}
	t.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
