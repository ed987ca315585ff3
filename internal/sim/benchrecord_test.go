package sim

import (
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// benchRecord names the file TestBenchRecord writes; make bench-sim runs
//
//	go test -count=1 -v -run '^TestBenchRecord$' ./internal/sim -args -benchrecord FILE
//
// A relative FILE resolves against this package's directory.
var benchRecord = flag.String("benchrecord", "", "write the simulator throughput record (BENCH_sim.json) to `FILE`")

type benchEntry struct {
	Name            string  `json:"name"`
	Test            string  `json:"test"`
	List            string  `json:"list"`
	Faults          int     `json:"faults"`
	Scenarios       int     `json:"scenarios"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	// SpeedupVsScalar is the lane engine's throughput ratio over the
	// scalar compiled schedule on the same workload; only the lanes
	// section fills it.
	SpeedupVsScalar float64 `json:"speedup_vs_scalar,omitempty"`
}

// benchFile is the record; its header carries the fields BENCH_gen.json
// does, so a reader knows what machine and which code each number is from.
type benchFile struct {
	Generated  string       `json:"generated"`
	Commit     string       `json:"commit"`
	GoVersion  string       `json:"go_version"`
	NProc      int          `json:"nproc"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Reps       int          `json:"reps"`
	Clock      string       `json:"clock"`
	Config     string       `json:"config"`
	Note       string       `json:"note"`
	Baseline   []benchEntry `json:"baseline"`
	Current    []benchEntry `json:"current"`
	// Lanes holds the same workloads under the default engine choice;
	// Current is pinned to the scalar compiled schedule, so the three
	// sections record the full history: per-scenario baseline → compiled
	// schedule → compiled schedule × 48 lanes.
	Lanes []benchEntry `json:"lanes"`
}

// baselineBenchSim holds the measurements of the per-scenario simulator
// before the compiled-schedule layer (commit "growth seed", Intel Xeon
// 2.10 GHz, go1.22, -benchtime 3x). Scenario counts are filled in at
// runtime — the scenario space is unchanged by the schedule.
var baselineBenchSim = []benchEntry{
	{Name: "Simulate", Test: "March SL", List: "List1", NsPerOp: 156986337, AllocsPerOp: 357452, BytesPerOp: 11416445},
	{Name: "Simulate", Test: "March ABL", List: "List1", NsPerOp: 131679418, AllocsPerOp: 375568, BytesPerOp: 12010349},
	{Name: "Simulate", Test: "March LF1", List: "List2", NsPerOp: 200520, AllocsPerOp: 1251, BytesPerOp: 37853},
	{Name: "DetectsFault", Test: "March SL", List: "LF3-pair", NsPerOp: 690716, AllocsPerOp: 1165, BytesPerOp: 37080},
}

// TestBenchRecord regenerates BENCH_sim.json: every baseline workload is
// measured on the scalar compiled schedule (current) and under the default
// engine choice (lanes) by the BenchmarkSimulate and
// BenchmarkDetectsFaultScheduled bodies. It skips unless -benchrecord names
// the output file.
func TestBenchRecord(t *testing.T) {
	if *benchRecord == "" {
		t.Skip("no -benchrecord FILE given")
	}
	lists := map[string][]linked.Fault{
		"List1":    faultlist.List1(),
		"List2":    faultlist.List2(),
		"LF3-pair": {benchLF3(t)},
	}
	tests := map[string]march.Test{
		"March SL":  march.MarchSL,
		"March ABL": march.MarchABL,
		"March LF1": march.MarchLF1,
	}

	measure := func(e benchEntry, cfg Config) benchEntry {
		mt, faults := tests[e.Test], lists[e.List]
		body := func(b *testing.B) { benchSimulate(b, mt, faults, cfg) }
		if e.Name == "DetectsFault" {
			body = func(b *testing.B) { benchDetectsFault(b, cfg) }
		}
		r := testing.Benchmark(body)
		if r.N == 0 {
			t.Fatalf("%s %s/%s: benchmark failed", e.Name, e.Test, e.List)
		}
		e.NsPerOp = r.NsPerOp()
		e.AllocsPerOp = r.AllocsPerOp()
		e.BytesPerOp = r.AllocedBytesPerOp()
		e.ScenariosPerSec = float64(e.Scenarios) / (float64(e.NsPerOp) / 1e9)
		return e
	}

	out := benchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Commit:     benchCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       1,
		Clock:      "wall time per op of one testing.Benchmark run (about 1 s) per entry",
		Config:     "sim.DefaultConfig(): 4 cells, exhaustive ⇕ expansion",
		Note: "baseline = per-scenario simulator before the compiled-schedule layer; " +
			"current = compiled schedule with lanes disabled; lanes = default bit-parallel engine; " +
			"scenarios/sec = scenarios / (ns_per_op / 1e9)",
	}
	for _, e := range baselineBenchSim {
		e.Faults = len(lists[e.List])
		e.Scenarios = scenarioSpace(t, tests[e.Test], lists[e.List])
		e.ScenariosPerSec = float64(e.Scenarios) / (float64(e.NsPerOp) / 1e9)
		out.Baseline = append(out.Baseline, e)

		cur := measure(e, forceScalar(DefaultConfig()))
		out.Current = append(out.Current, cur)
		ln := measure(e, DefaultConfig())
		ln.SpeedupVsScalar = float64(cur.NsPerOp) / float64(ln.NsPerOp)
		out.Lanes = append(out.Lanes, ln)

		t.Logf("%-12s %-10s %-8s scalar %12d ns/op (baseline %12d, %.1fx), lanes %12d ns/op (%.1fx over scalar)",
			cur.Name, cur.Test, cur.List, cur.NsPerOp, e.NsPerOp,
			float64(e.NsPerOp)/float64(cur.NsPerOp), ln.NsPerOp, ln.SpeedupVsScalar)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchRecord, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote", *benchRecord)
}

// benchCommit names the code the record measures: the checkout's HEAD, and
// a note when the working tree differs from it.
func benchCommit() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(head))
	if dirty, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(dirty) > 0 {
		commit += " + working tree"
	}
	return commit
}
