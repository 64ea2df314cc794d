package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program: an HTTP
// request or an in-process call into a module's public function.
// Children of a span name it as their parent; a root has parent 0.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Past maxSpans per
// name it keeps counting durations but stops storing spans, so an
// embedded run of millions of calls stays small.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	kept  map[string]int
	agg   map[string]*spanAgg
}

const maxSpans = 20000

type spanAgg struct {
	n, totalNs int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), kept: map[string]int{}, agg: map[string]*spanAgg{}}
}

// child returns a tracer for one goroutine's hot loop: same clock,
// its own id range and lock, folded back in with merge.
func (t *tracer) child(k int) *tracer {
	c := newTracer()
	c.t0 = t.t0
	c.nextID.Store(int64(k+1) << 40)
	return c
}

// merge folds a child's spans and totals into t.
func (t *tracer) merge(c *tracer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range c.spans {
		if t.kept[s.Name] < maxSpans {
			t.kept[s.Name]++
			t.spans = append(t.spans, s)
		}
	}
	for name, a := range c.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.n += a.n
		b.totalNs += a.totalNs
	}
}

// start opens a span; call end on the result.
func (t *tracer) start(name string, parent int64) *openSpan {
	return &openSpan{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()}}
}

type openSpan struct {
	t *tracer
	s span
}

func (o *openSpan) end() { o.t.add(o.s, time.Since(o.t.t0).Nanoseconds()) }

// record adds a finished span measured by the caller.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name, StartNs: start.Sub(t.t0).Nanoseconds()}
	t.add(s, end.Sub(t.t0).Nanoseconds())
	return s.ID
}

func (t *tracer) add(s span, endNs int64) {
	s.EndNs = endNs
	t.mu.Lock()
	a := t.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		t.agg[s.Name] = a
	}
	a.n++
	a.totalNs += s.EndNs - s.StartNs
	if t.kept[s.Name] < maxSpans {
		t.kept[s.Name]++
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// meanMs is the mean duration of every span named name, in
// milliseconds; NaN when there is none.
func (t *tracer) meanMs(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil || a.n == 0 {
		return nan
	}
	return float64(a.totalNs) / float64(a.n) / 1e6
}

// selfTimes gives, per span name, the summed self time of the stored
// spans: each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartNs < ch[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, c := range ch {
			lo, hi := max(c.StartNs, reach), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.EndNs - s.StartNs - covered
	}
	return out
}

// write saves the stored spans and per-name totals as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type nameSummary struct {
		Count   int64 `json:"count"`
		TotalNs int64 `json:"total_ns"`
		Stored  int   `json:"stored"`
		SelfNs  int64 `json:"stored_self_ns"`
	}
	self := selfTimes(t.spans)
	sum := make(map[string]nameSummary, len(t.agg))
	for name, a := range t.agg {
		sum[name] = nameSummary{a.n, a.totalNs, t.kept[name], self[name]}
	}
	b, err := json.Marshal(struct {
		Summary map[string]nameSummary `json:"summary"`
		Spans   []span                 `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
