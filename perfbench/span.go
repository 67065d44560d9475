package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one pass share the pass's trace ID; Parent links a
// span to the span that caused it (0 for the pass's root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// layer is the span name's first dot-separated element, e.g. "fleet"
// for "fleet.StepEpoch".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the pass ends. A nil *tracer is
// disarmed: begin returns a no-op handle, so untraced passes run the
// same code with no recording.
type tracer struct {
	trace string
	epoch time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(trace string) *tracer {
	return &tracer{trace: trace, epoch: time.Now()}
}

// spanHandle is an open span; end closes it.
type spanHandle struct {
	t  *tracer
	id int
	sp span
}

// begin opens a span named name under parent (0 for a root span).
func (t *tracer) begin(name string, parent int) *spanHandle {
	if t == nil {
		return &spanHandle{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &spanHandle{t: t, id: id, sp: span{
		Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// end closes the span and returns its duration (zero when disarmed).
func (h *spanHandle) end() time.Duration {
	if h.t == nil {
		return 0
	}
	h.sp.End = int64(time.Since(h.t.epoch))
	h.t.mu.Lock()
	h.t.spans = append(h.t.spans, h.sp)
	h.t.mu.Unlock()
	return h.sp.dur()
}

// record adds a span whose interval was measured elsewhere, e.g. by
// the HTTP middleware that wraps a member's handlers.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.spans = append(t.spans, span{
		Trace: t.trace, ID: t.next, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	t.mu.Unlock()
}

// all returns the recorded spans ordered by start.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfTimes sums each layer's self time in seconds: a span's duration
// minus the part of its interval that its child spans cover. Children
// may overlap (concurrent member steps), so coverage is the union of
// their intervals clipped to the parent's.
func selfTimes(spans []span) map[string]float64 {
	type key struct {
		trace string
		id    int
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		kids := children[key{s.Trace, s.ID}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range kids {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.layer()] += time.Duration(s.End - s.Start - covered).Seconds()
	}
	return out
}
