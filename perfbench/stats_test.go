package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {19, 0}, {20, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && samplesBeyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%v", c.n, samplesBeyond(c.n, p), p*100)
		}
	}
}

func TestEveryWorkloadHasATail(t *testing.T) {
	want := map[string]float64{"table1": 0.75, "optimize": 0.75, "diagnose": 0.9, "serve": 0.99}
	for name, w := range workloads {
		if got := w.tailPct(); got != want[name] {
			t.Errorf("%s: tail at p%v after %d ops, want p%v", name, got*100, w.tailOps, want[name]*100)
		}
	}
}

func TestFailedOpsCountAndMissEveryLimit(t *testing.T) {
	var samples []sample
	for i := 0; i < 36; i++ {
		samples = append(samples, sample{class: "hit", elapsed: time.Duration(i+1) * time.Millisecond})
	}
	// A shed and an error: both fail, and both read slower than any op.
	samples = append(samples, sample{class: "hit", failed: true}, sample{class: "cold", failed: true})
	s := summarize(samples, 0.95, cost{wall: 2 * time.Second, cpu: 3 * time.Second})
	if s.Attempted != 38 || s.Failed != 2 {
		t.Fatalf("attempted/failed = %d/%d, want 38/2", s.Attempted, s.Failed)
	}
	if want := 2.0 / 38; s.FailRatio != want {
		t.Errorf("fail ratio = %v, want %v", s.FailRatio, want)
	}
	if s.OpsPerS != 18 {
		t.Errorf("ops/s = %v, want 18 completed ops per second", s.OpsPerS)
	}
	if want := 3000.0 / 36; s.CPUMSPerOp != want {
		t.Errorf("CPU per op = %v ms, want %v: the phase's CPU time over the completed ops", s.CPUMSPerOp, want)
	}
	if !math.IsInf(s.TailMS, 1) {
		t.Errorf("p95 with 2 of 38 failed = %v, want +Inf", s.TailMS)
	}
	if s.P50MS != 19 {
		t.Errorf("p50 = %v, want 19", s.P50MS)
	}
	if !s.TailShort {
		t.Error("38 samples leave fewer than 10 beyond p95; the summary should say so")
	}
	hits := latenciesMS(samples, "hit")
	if len(hits) != 37 || !math.IsInf(hits[36], 1) {
		t.Errorf("hit class should hold 37 samples ending with the failed one, got %d", len(hits))
	}
}

func TestRefusedAnswersFailTheOp(t *testing.T) {
	for _, c := range []struct {
		status  int
		refused bool
	}{{http.StatusTooManyRequests, true}, {http.StatusServiceUnavailable, true}, {http.StatusInternalServerError, false}} {
		err := answerErr(c.status, http.StatusOK, []byte(`{"error":"shed"}`), nil)
		if err == nil {
			t.Errorf("HTTP %d should fail the op", c.status)
		}
		if got := errors.As(err, new(refusal)); got != c.refused {
			t.Errorf("HTTP %d: refusal = %t, want %t", c.status, got, c.refused)
		}
	}
	if err := answerErr(http.StatusAccepted, http.StatusAccepted, nil, nil); err != nil {
		t.Errorf("expected status failed the op: %v", err)
	}
}

// scripted is a workload whose ops fail as a script says.
type scripted struct{ errs []error }

func (w scripted) op(id opID) (string, time.Duration, error) {
	time.Sleep(50 * time.Microsecond)
	if err := w.errs[id.index%len(w.errs)]; err != nil {
		return "", 0, err
	}
	return "", time.Millisecond, nil
}
func (scripted) layers([]sample, []span) (map[string]float64, error) { return nil, nil }
func (scripted) details() any                                        { return nil }
func (scripted) close()                                              {}

func TestOnlyRefusalsLeaveTheRunCorrect(t *testing.T) {
	for _, c := range []struct {
		name    string
		err     error
		correct bool
	}{
		{"shed", refusal{http.StatusTooManyRequests}, true},
		{"backstop", fmt.Errorf("submit: %w", refusal{http.StatusServiceUnavailable}), true},
		{"program error", errors.New("no full-coverage candidate"), false},
		{"server error", answerErr(http.StatusInternalServerError, http.StatusOK, nil, nil), false},
	} {
		b := &bench{}
		samples, spent := b.phase(scripted{[]error{nil, nil, nil, c.err}}, 1, phaseMain, 20*time.Millisecond)
		s := summarize(samples, 0.5, spent)
		if s.Attempted < 4 || s.Failed != s.Attempted/4 {
			t.Errorf("%s: attempted/failed = %d/%d, want every fourth op failed", c.name, s.Attempted, s.Failed)
		}
		if got := len(b.wrongs()) == 0; got != c.correct {
			t.Errorf("%s: run correct = %t, want %t", c.name, got, c.correct)
		}
	}
}

func TestMetricMap(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	m, err := metricMap(defs, map[string]float64{"a_ms": math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if m["a_ms"].Value != math.MaxFloat64 || m["a_ms"].Unit != "ms" {
		t.Errorf("infinite latency = %+v, want the largest float in ms", m["a_ms"])
	}
	if v, ok := m["b"]; !ok || v.Value != 0 {
		t.Errorf("unmeasured metric = %+v, %t; want 0", v, ok)
	}
	if _, err := metricMap(defs, map[string]float64{"c": 1}); err == nil {
		t.Error("an undeclared metric should be an error")
	}
}

func TestTraceOverheadComparesTheSameOps(t *testing.T) {
	ms := time.Millisecond
	untraced := []sample{
		{id: opID{phaseMain, 0, 0}, elapsed: 10 * ms},
		{id: opID{phaseMain, 0, 1}, elapsed: 30 * ms},
		{id: opID{phaseMain, 0, 2}, elapsed: 500 * ms}, // not repeated traced
		{id: opID{phaseMain, 1, 0}, elapsed: 20 * ms},
	}
	traced := []sample{
		{id: opID{phaseTraced, 0, 0}, elapsed: 11 * ms},
		{id: opID{phaseTraced, 0, 1}, elapsed: 33 * ms},
		{id: opID{phaseTraced, 1, 0}, elapsed: 22 * ms},
		{id: opID{phaseTraced, 1, 1}, elapsed: 900 * ms}, // not run untraced
		{id: opID{phaseTraced, 1, 2}, failed: true},
	}
	if got := traceOverhead(untraced, traced); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("overhead = %v, want 0.1 over the three ops both halves ran", got)
	}
}
