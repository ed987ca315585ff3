package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the benchmark's
// runners read, in step with the metrics and workloads the code prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", got, want)
	}
	for _, c := range []struct {
		section string
		json    []jsonMetric
		code    []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code prints %d", c.section, len(c.json), len(c.code))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)",
					c.section, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
