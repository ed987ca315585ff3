package main

import (
	"fmt"
	"strings"
	"time"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// table1 repeats the paper's Table 1 the way cmd/table1 does: three
// generated rows, then the published tests' coverage on three lists. It has
// no random input; the seed is recorded and unused.
type table1 struct {
	b                    *bench
	list1, list2, simple []linked.Fault
	// tests, durations and cpu keep what each row produced, per op.
	tests       map[string]string
	durations   map[string][]float64
	cpu         map[string][]float64
	simulations map[string]int
}

// table1Row is one generated row with the paper's published figures.
type table1Row struct {
	key, algorithm string
	list           int // 1 or 2
	aggressive     bool
	wantLength     int // this repository's generator, in n
	paperLength    int
	paperSeconds   float64
}

var table1Rows = []table1Row{
	{"abl", "ABL", 1, false, 25, 37, 1.03},
	{"rabl", "RABL", 1, true, 25, 35, 1.35},
	{"abl1", "ABL1", 2, false, 7, 9, 0.98},
}

// publishedCoverage is what cmd/table1 prints for the published tests:
// detected faults of List #1 (594), List #2 (18) and the simple list (48).
var publishedCoverage = []struct {
	test     march.Test
	detected [3]int
}{
	{march.MarchSL, [3]int{594, 18, 48}},
	{march.MarchLF1, [3]int{260, 17, 25}},
	{march.March43N, [3]int{594, 18, 48}},
	{march.MarchABL, [3]int{588, 18, 48}},
	{march.MarchRABL, [3]int{563, 18, 48}},
	{march.MarchABL1, [3]int{112, 18, 10}},
	{march.MarchCMinus, [3]int{420, 12, 32}},
	{march.MarchSS, [3]int{552, 18, 48}},
}

func setupTable1(b *bench) (workload, error) {
	return &table1{
		b:           b,
		list1:       b.list("list1", faultlist.List1),
		list2:       b.list("list2", faultlist.List2),
		simple:      b.list("simple", faultlist.SimpleStatic),
		tests:       map[string]string{},
		durations:   map[string][]float64{},
		cpu:         map[string][]float64{},
		simulations: map[string]int{},
	}, nil
}

func (t *table1) op(id opID) (string, time.Duration, error) {
	start := time.Now()
	tr := t.b.tracer()
	key := id.key()
	root := tr.begin("table1.op", -1, key)
	defer tr.end(root)
	for _, r := range table1Rows {
		faults := t.list1
		if r.list == 2 {
			faults = t.list2
		}
		sp := tr.begin("core.generate."+r.key, root, key)
		watch := startWatch()
		res, err := core.Generate(faults, core.Options{Name: "March " + r.algorithm + "-repro", Aggressive: r.aggressive})
		spent := watch.elapsed()
		tr.end(sp)
		if err != nil {
			return "", 0, fmt.Errorf("generate %s: %w", r.key, err)
		}
		if got := res.Test.Length(); got != r.wantLength {
			return "", 0, fmt.Errorf("%s: generated %dn, want %dn", r.key, got, r.wantLength)
		}
		if res.Report.Detected() != len(faults) || res.Report.Total() != len(faults) {
			return "", 0, fmt.Errorf("%s: coverage %d/%d, want %d/%d", r.key,
				res.Report.Detected(), res.Report.Total(), len(faults), len(faults))
		}
		got := res.Test.String()
		if prev, ok := t.tests[r.key]; !ok {
			t.tests[r.key] = got
		} else if got != prev {
			return "", 0, fmt.Errorf("%s: generated %s, earlier op generated %s", r.key, got, prev)
		}
		t.durations[r.key] = append(t.durations[r.key], ms(res.Stats.Duration))
		t.cpu[r.key] = append(t.cpu[r.key], ms(spent.cpu))
		t.simulations[r.key] = res.Stats.Simulations
	}
	lists := [3][]linked.Fault{t.list1, t.list2, t.simple}
	for _, pc := range publishedCoverage {
		sp := tr.begin("sim.compile", root, key)
		sched, err := sim.NewSchedule(pc.test, sim.DefaultConfig())
		tr.end(sp)
		if err != nil {
			return "", 0, fmt.Errorf("compile %s: %w", pc.test.Name, err)
		}
		for i, faults := range lists {
			sp := tr.begin("sim.simulate", root, key)
			rep := sched.Simulate(faults)
			tr.end(sp)
			if err := rep.Err(); err != nil {
				return "", 0, fmt.Errorf("simulate %s: %w", pc.test.Name, err)
			}
			if rep.Detected() != pc.detected[i] || rep.Total() != len(faults) {
				return "", 0, fmt.Errorf("%s on list %d: %d/%d, want %d/%d", pc.test.Name, i,
					rep.Detected(), rep.Total(), pc.detected[i], len(faults))
			}
		}
	}
	return "", time.Since(start), nil
}

func (t *table1) layers(_ []sample, spans []span) (map[string]float64, error) {
	self := selfByName(spans)
	ops := float64(len(self["table1.op"]))
	out := map[string]float64{
		"sim.compile_ms":  sum(self["sim.compile"]) / ops,
		"sim.simulate_ms": sum(self["sim.simulate"]) / ops,
	}
	for _, r := range table1Rows {
		out["core.generate_ms."+r.key] = median(self["core.generate."+r.key])
		out["core.simulations."+r.key] = float64(t.simulations[r.key])
	}
	// Scenarios per simulate call, counted outside the timed spans: every
	// op simulates each published test once per list.
	scenarios := 0
	for _, pc := range publishedCoverage {
		sched, err := sim.NewSchedule(pc.test, sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, faults := range [][]linked.Fault{t.list1, t.list2, t.simple} {
			for _, f := range faults {
				n, err := sched.ScenarioCount(f)
				if err != nil {
					return nil, err
				}
				scenarios += n
			}
		}
	}
	out["sim.scenarios_per_s"] = float64(scenarios) * ops / (sum(self["sim.simulate"]) / 1000)
	return out, nil
}

// table1Detail compares one generated row with the paper, whose times are
// CPU times.
type table1Detail struct {
	Row            string  `json:"row"`
	Test           string  `json:"test"`
	Length         int     `json:"length_n"`
	PaperLength    int     `json:"paper_length_n"`
	GenerateMS     float64 `json:"generate_ms_median"`
	GenerateCPUMS  float64 `json:"generate_cpu_ms_median"`
	PaperMS        float64 `json:"paper_ms"`
	SimulationsRun int     `json:"simulations"`
}

// table1Details is the paper comparison; it prints as a text table too.
type table1Details []table1Detail

func (d table1Details) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %9s %7s %13s %17s %8s\n", "row", "length", "paper", "generate_ms", "generate_cpu_ms", "paper_ms")
	for _, r := range d {
		fmt.Fprintf(&sb, "%-5s %8dn %6dn %13.1f %17.1f %8.0f\n", r.Row, r.Length, r.PaperLength, r.GenerateMS, r.GenerateCPUMS, r.PaperMS)
	}
	return sb.String()
}

func (t *table1) details() any {
	var out table1Details
	for _, r := range table1Rows {
		out = append(out, table1Detail{
			Row:            r.algorithm,
			Test:           t.tests[r.key],
			Length:         r.wantLength,
			PaperLength:    r.paperLength,
			GenerateMS:     median(t.durations[r.key]),
			GenerateCPUMS:  median(t.cpu[r.key]),
			PaperMS:        r.paperSeconds * 1000,
			SimulationsRun: t.simulations[r.key],
		})
	}
	return out
}

func (t *table1) close() {}
