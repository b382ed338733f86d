package main

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/llm/provider"
)

// span is one traced interval. Times are offsets from the recorder's
// origin; parent is an index into the recorder's spans (-1 = top
// level) and cell identifies the experiment cell the span belongs to
// (-1 = none).
type span struct {
	name       string
	start, end time.Duration
	parent     int
	cell       int
	value      float64 // span-specific payload (modelled LLM seconds)
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	cells int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name string, parent, cell int) int {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: t, end: -1, parent: parent, cell: cell})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id].end = t
	r.mu.Unlock()
}

// add records an interval timed elsewhere (event stamps of the job
// service), clamped to the recorder's clock.
func (r *recorder) add(name string, start, end time.Time, parent, cell int) {
	s, e := start.Sub(r.origin), end.Sub(r.origin)
	if e < s {
		e = s
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, start: s, end: e, parent: parent, cell: cell})
	r.mu.Unlock()
}

func (r *recorder) setValue(id int, v float64) {
	r.mu.Lock()
	r.spans[id].value = v
	r.mu.Unlock()
}

// newCell allocates a cell identifier.
func (r *recorder) newCell() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells++
	return r.cells - 1
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
	value float64
}

// summarize computes per-name totals. A span's self time is its
// duration minus the part of its interval its children cover (the
// union of their intervals, so parallel children are not counted
// twice). It also returns the summed duration of top-level spans.
func (r *recorder) summarize() (map[string]*spanStat, time.Duration) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	stats := map[string]*spanStat{}
	var top time.Duration
	for i, s := range spans {
		if s.end < 0 {
			continue // never closed: the run ended inside it
		}
		d := s.end - s.start
		st := stats[s.name]
		if st == nil {
			st = &spanStat{}
			stats[s.name] = st
		}
		st.count++
		st.total += d
		st.self += d - covered(spans, children[i], s.start, s.end)
		st.value += s.value
		if s.parent < 0 {
			top += d
		}
	}
	return stats, top
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if e < 0 {
			continue
		}
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var cs, ce time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > ce {
			if ce > cs {
				sum += ce - cs
			}
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	if ce > cs {
		sum += ce - cs
	}
	return sum
}

// spanCtx rides the context handed to core.Machine.Step so the LLM
// middleware can parent its spans.
type spanCtx struct{ parent, cell int }

type spanKey struct{}

func withSpan(ctx context.Context, parent, cell int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{parent, cell})
}

// llmTracer is the benchmark's provider middleware: one llm.<op> span
// per call (carrying the modelled latency) and a copy of every
// generated artefact for the front-end replay. One tracer serves one
// cell, so captured artefacts need no locking beyond the session's own
// sequencing.
type llmTracer struct {
	rec  *recorder
	code []capturedCode
}

type capturedCode struct {
	op   provider.Op
	text string
}

func (t *llmTracer) Name() string { return "perfbench-trace" }

func (t *llmTracer) Wrap(next provider.DoFunc) provider.DoFunc {
	return func(ctx context.Context, req *provider.Request) (provider.Response, error) {
		sc, ok := ctx.Value(spanKey{}).(spanCtx)
		if !ok {
			sc = spanCtx{-1, -1}
		}
		id := t.rec.begin("llm."+req.Op.String(), sc.parent, sc.cell)
		resp, err := next(ctx, req)
		t.rec.end(id)
		t.rec.setValue(id, resp.Latency)
		if err == nil && resp.Code != "" {
			t.code = append(t.code, capturedCode{req.Op, resp.Code})
		}
		return resp, err
	}
}
