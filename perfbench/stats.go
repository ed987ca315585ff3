package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it may
// be reported as the tail.
const minBeyond = 10

// sample is one timed operation of a closed-loop client.
type sample struct {
	id      opID
	class   string
	elapsed time.Duration
	// failed marks an op that errored or was refused. It counts in the
	// failure ratio and as missing every latency limit.
	failed bool
}

// summary is the end-to-end view of one timed phase.
type summary struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	OpsPerS   float64 `json:"ops_per_s"`
	// CPUMSPerOp is the process's CPU time over the phase per completed op.
	CPUMSPerOp float64 `json:"cpu_ms_per_op"`
	P50MS      float64 `json:"p50_ms"`
	TailMS     float64 `json:"tail_ms"`
	TailPct    float64 `json:"tail_percentile"`
	// TailShort is set when fewer than minBeyond samples lie beyond TailPct.
	TailShort bool `json:"tail_short,omitempty"`
}

// samplesBeyond is how many of n sorted samples lie above the p-quantile
// picked by nearest rank.
func samplesBeyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-quantile among n samples. The
// small epsilon keeps p·n from rounding up past an exact integer.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-quantile of an ascending slice; NaN
// when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile is the highest ladder percentile with at least minBeyond
// of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// latenciesMS returns the latencies of the samples of one class ("" for
// all) in milliseconds, ascending. A failed op reads +Inf, so it misses
// every latency limit.
func latenciesMS(samples []sample, class string) []float64 {
	var out []float64
	for _, s := range samples {
		if class != "" && s.class != class {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.elapsed))
	}
	sort.Float64s(out)
	return out
}

// summarize reduces a timed phase of the given wall time to its end-to-end
// figures, reporting the tail at the workload's fixed percentile.
func summarize(samples []sample, tailPct float64, c cost) summary {
	s := summary{Attempted: len(samples), TailPct: tailPct}
	for _, x := range samples {
		if x.failed {
			s.Failed++
		}
	}
	if s.Attempted > 0 {
		s.FailRatio = float64(s.Failed) / float64(s.Attempted)
	}
	if done := s.Attempted - s.Failed; done > 0 && c.wall > 0 {
		s.OpsPerS = float64(done) / c.wall.Seconds()
		s.CPUMSPerOp = ms(c.cpu) / float64(done)
	}
	lat := latenciesMS(samples, "")
	s.P50MS = percentile(lat, 0.5)
	s.TailMS = percentile(lat, tailPct)
	s.TailShort = samplesBeyond(len(lat), tailPct) < minBeyond
	return s
}

// traceOverhead compares the ops that both halves of a traced run
// completed, so the halves' different op counts do not count as overhead:
// their total traced latency over their total untraced latency, minus 1.
func traceOverhead(untraced, traced []sample) float64 {
	type op struct{ client, index int }
	base := map[op]time.Duration{}
	for _, s := range untraced {
		if !s.failed {
			base[op{s.id.client, s.id.index}] = s.elapsed
		}
	}
	var u, t time.Duration
	for _, s := range traced {
		if b, ok := base[op{s.id.client, s.id.index}]; ok && !s.failed {
			u += b
			t += s.elapsed
		}
	}
	return ratio(float64(t), float64(u)) - 1
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of the values, NaN when there are none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
