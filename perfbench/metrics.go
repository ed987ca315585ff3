package main

import (
	"fmt"
	"math"
)

// metric is one measured value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints. Times are the
// process's CPU time, which the host's other guests do not move; the wall
// clock figures are in the run record.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_live_mb", "MB"},
}

// metricMap attaches units to measured values. Every listed metric is
// present: a layer the workload bypasses, or a class no op fell into, reads
// 0. A value JSON cannot carry (an infinite tail after failures) is
// reported as the largest float.
func metricMap(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) {
			v = 0
		}
		if math.IsInf(v, 0) {
			v = math.Copysign(math.MaxFloat64, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	for k := range values {
		if !hasMetric(defs, k) {
			return nil, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return out, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// perLayer lists the metrics a traced run prints, grouped by the layer
// that owns them. README.md gives each metric's definition and the
// end-to-end metric the layer should move.
var perLayer = []metricDef{
	{"faultlist.enumerate_ms", "ms"},

	{"core.generate_ms.abl", "ms"},
	{"core.generate_ms.rabl", "ms"},
	{"core.generate_ms.abl1", "ms"},
	{"core.simulations.abl", "count"},
	{"core.simulations.rabl", "count"},
	{"core.simulations.abl1", "count"},

	{"sim.compile_ms", "ms"},
	{"sim.simulate_ms", "ms"},
	{"sim.scenarios_per_s", "1/s"},

	{"optimize.run_ms.list1", "ms"},
	{"optimize.run_ms.list2", "ms"},
	{"optimize.evaluations.list1", "count"},
	{"optimize.evaluations.list2", "count"},
	{"optimize.evals_per_s", "1/s"},
	{"optimize.improved_ratio", "ratio"},

	{"oracle.certify_ms.list1", "ms"},
	{"oracle.certify_ms.list2", "ms"},

	{"diagnose.localize_ms", "ms"},
	{"diagnose.next_test_ms", "ms"},
	{"diagnose.rounds", "count"},
	{"diagnose.candidates_round1", "count"},
	{"diagnose.signatures_per_s", "1/s"},
	{"diagnose.localized_ratio", "ratio"},

	{"service.handler_ms.hit_list1", "ms"},
	{"service.handler_ms.hit_list2", "ms"},
	{"service.handler_ms.simulate_list1", "ms"},
	{"service.handler_ms.simulate_list2", "ms"},
	{"service.handler_ms.cold_submit", "ms"},
	{"service.handler_ms.poll", "ms"},
	{"service.net_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_run_ms", "ms"},
	{"service.polls_per_cold", "count"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.hit_p50_ms.list1", "ms"},
	{"service.hit_p50_ms.list2", "ms"},
	{"service.hit_tail_ms.list1", "ms"},
	{"service.hit_tail_ms.list2", "ms"},
	{"service.hit_1client_ms.list1", "ms"},
	{"service.hit_1client_ms.list2", "ms"},
	{"service.allocs_per_hit.list1", "count"},
	{"service.allocs_per_hit.list2", "count"},

	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"bench.trace_overhead", "ratio"},
}
