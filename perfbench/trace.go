package main

import (
	"sort"
	"sync"
	"time"
)

// Spans are recorded only here, around the benchmark's calls into each
// layer's public functions; nothing inside the program is instrumented.

// span is one timed call into a layer.
type span struct {
	Name string
	// Start and End are offsets from the tracer's epoch.
	Start, End time.Duration
	// Parent is the index of the span that caused this one, -1 at a root.
	Parent int
	// Op identifies the operation the span belongs to.
	Op int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s, spans, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.a < reach {
			v.a = reach
		}
		if v.b > v.a {
			total += v.b - v.a
			reach = v.b
		}
	}
	return total
}

// layerTimes holds the self times, in milliseconds, of the spans of each
// name, in recording order.
type layerTimes map[string][]float64

func selfByName(spans []span) layerTimes {
	self := selfTimes(spans)
	out := layerTimes{}
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], ms(self[i]))
	}
	return out
}

// layerSummary is one span name's totals, for the run record.
type layerSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) map[string]layerSummary {
	self := selfTimes(spans)
	out := map[string]layerSummary{}
	for i, s := range spans {
		l := out[s.Name]
		l.Count++
		l.TotalMS += ms(s.End - s.Start)
		l.SelfMS += ms(self[i])
		out[s.Name] = l
	}
	return out
}
