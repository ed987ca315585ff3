package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0},  // overlaps a: counts once
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0}, // clipped to the parent's end
		{Name: "d", Start: 25 * ms, End: 45 * ms, Parent: 2},  // grandchild: b's time, not op's
		{Name: "other", Start: 0, End: 100 * ms, Parent: -1},  // a root without children
	}
	want := []time.Duration{50 * ms, 20 * ms, 10 * ms, 30 * ms, 20 * ms, 100 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	sum := summarizeSpans(spans)
	if l := sum["op"]; l.Count != 1 || l.TotalMS != 100 || l.SelfMS != 50 {
		t.Errorf("op summary = %+v", l)
	}
}

func TestTracerRecordsParentAndOp(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("layer", root, 7)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Errorf("child %+v is not inside its parent %+v", spans[1], spans[0])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", -1, 1)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestTracerFromManyGoroutines(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.end(tr.begin("layer", root, 1))
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 801 {
		t.Fatalf("recorded %d spans, want 801", len(spans))
	}
	if self := selfTimes(spans)[0]; self < 0 || self > spans[0].End-spans[0].Start {
		t.Errorf("root self time %v outside [0, %v]", self, spans[0].End-spans[0].Start)
	}
}
