package marchgen_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"marchgen"
)

// TestBenchGen writes BENCH_gen.json (make bench-gen): the CPU time of the
// three Table-1 generation rows and of one optimizer op (OPT), on one P and
// at GOMAXPROCS, for this checkout and for a base commit, next to each
// other. It skips unless -benchgen names the output file; with -benchgen -
// it prints one sample of each row its subtest selects (-test.run
// '^TestBenchGen$/^ABL1$') instead, which is how the record runs each
// binary.
//
// The base commit is checked out with git archive into a temporary
// directory, this file is copied in, and its test binary is built there, so
// the base needs only the marchgen API this file uses. The two binaries run
// alternately, one sample of each row per round, so a change in the host's
// load falls on both alike. Every sample runs in a process of its own, so
// no row inherits the scheduler state an earlier row left behind. A sample
// times a batch of its row's runs at each P count, in process CPU time
// after an untimed warm-up and a collection, and reports the mean of one.
var (
	benchGen     = flag.String("benchgen", "", "write the generation CPU-time record to `FILE` (- prints one sample)")
	benchGenBase = flag.String("benchgen-base", "HEAD", "base `COMMIT` the record measures next to this checkout")
)

// benchGenRounds is the number of samples per binary.
const benchGenRounds = 11

// benchGenRow is one row of the record. setup prepares its inputs and
// returns run, the work one sample times, which reports what it made: a
// rendering and a simulation count, which every sample of both sides must
// agree on. batch is the number of runs a sample times: ABL1 generates in
// well under a millisecond, too short for the process clock to resolve one
// run's quartiles.
type benchGenRow struct {
	row   string
	batch int
	setup func() (run func() (string, int, error), err error)
}

var benchGenRows = []benchGenRow{
	generateRow("ABL", "list1", marchgen.Options{Name: "ABL-repro"}, 1),
	generateRow("RABL", "list1", marchgen.Options{Name: "RABL-repro", Aggressive: true}, 1),
	generateRow("ABL1", "list2", marchgen.Options{Name: "ABL1-repro"}, 200),
	{row: "OPT", batch: 1, setup: optimizeOp},
}

// generateRow is the row of one generation of the named fault list.
func generateRow(row, list string, opts marchgen.Options, batch int) benchGenRow {
	return benchGenRow{row: row, batch: batch, setup: func() (func() (string, int, error), error) {
		faults, err := marchgen.FaultListByName(list)
		if err != nil {
			return nil, err
		}
		return func() (string, int, error) {
			res, err := marchgen.Generate(faults, opts)
			return res.Test.String(), res.Stats.Simulations, err
		}, nil
	}}
}

// optimizeOp is the OPT row: perfbench's optimize op, March SL on List #1
// at a budget of 1000 and then March ABL1 on List #2 at the default budget,
// each with rng seed 1. It renders the winners with their move-trace hashes
// and counts the coverage evaluations, so equal rows took equal search
// paths.
func optimizeOp() (func() (string, int, error), error) {
	type task struct {
		faults []marchgen.Fault
		seed   string
		budget int
	}
	tasks := []task{{marchgen.List1(), "March SL", 1000}, {marchgen.List2(), "March ABL1", 0}}
	return func() (string, int, error) {
		var winners []string
		evaluations := 0
		for _, tk := range tasks {
			seed, ok := marchgen.MarchByName(tk.seed)
			if !ok {
				return "", 0, fmt.Errorf("no library test %q", tk.seed)
			}
			res, err := marchgen.Optimize(tk.faults, marchgen.OptimizeOptions{Seed: 1, Budget: tk.budget, SeedTest: &seed})
			if err != nil {
				return "", 0, err
			}
			winners = append(winners, fmt.Sprintf("%s [%s]", res.Test, res.Test.Prov.MoveTrace))
			evaluations += res.Stats.Evaluations
		}
		return strings.Join(winners, "; "), evaluations, nil
	}, nil
}

// genSample is one run of some rows: a sample process times one, a round
// collects every row.
type genSample struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Rows       []genSampleRow `json:"rows"`
}

type genSampleRow struct {
	Row         string  `json:"row"`
	Batch       int     `json:"batch"`
	Test        string  `json:"test"`
	Simulations int     `json:"simulations"`
	CPUMs1P     float64 `json:"cpu_ms_1p"`
	CPUMsMaxP   float64 `json:"cpu_ms_gomaxprocs"`
}

// genSpread is the median and quartiles of one row's CPU times.
type genSpread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type genRecordRow struct {
	Row         string    `json:"row"`
	Batch       int       `json:"batch"`
	Test        string    `json:"test"`
	Simulations int       `json:"simulations"`
	CPUMs1P     genSpread `json:"cpu_ms_1p"`
	CPUMsMaxP   genSpread `json:"cpu_ms_gomaxprocs"`
}

type genSide struct {
	Commit string         `json:"commit"`
	Rows   []genRecordRow `json:"rows"`
}

type genRecord struct {
	Generated  string  `json:"generated"`
	Note       string  `json:"note"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Reps       int     `json:"reps"`
	Clock      string  `json:"clock"`
	Parent     genSide `json:"parent"`
	Change     genSide `json:"change"`
	// Identical reports that both sides generated the same tests with the
	// same Stats.Simulations.
	Identical bool `json:"identical"`
}

func TestBenchGen(t *testing.T) {
	switch *benchGen {
	case "":
		t.Skip("no -benchgen FILE given")
	case "-":
		for i, row := range benchGenRows {
			t.Run(row.row, func(t *testing.T) {
				s, err := benchGenSample(i)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
					t.Fatal(err)
				}
			})
		}
		return
	}

	root, err := os.Getwd() // the package directory: the root of the checkout
	if err != nil {
		t.Fatal(err)
	}
	base, err := gitOutput(root, "rev-parse", "--verify", *benchGenBase+"^{commit}")
	if err != nil {
		t.Fatal(err)
	}
	head, err := gitOutput(root, "rev-parse", "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	change := head
	if dirty, err := gitOutput(root, "status", "--porcelain", "--untracked-files=no"); err == nil && dirty != "" {
		change = head + " + working tree"
	}
	baseBin, err := buildBase(t.TempDir(), root, base)
	if err != nil {
		t.Fatal(err)
	}

	var parents, changes []genSample
	for r := 0; r < benchGenRounds; r++ {
		var p, c genSample
		for _, row := range benchGenRows {
			if err := runSample(baseBin, row.row, &p); err != nil {
				t.Fatalf("base sample: %v", err)
			}
			if err := runSample(os.Args[0], row.row, &c); err != nil {
				t.Fatalf("change sample: %v", err)
			}
		}
		parents, changes = append(parents, p), append(changes, c)
		t.Logf("round %d: base %s / change %s", r+1, sampleLine(p), sampleLine(c))
	}

	rec := genRecord{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Note:       "CPU ms of one core.Generate per Table-1 row (ABL1: the mean over a batch of generations) and of one perfbench optimize op (OPT: March SL x List #1 at budget 1000, then March ABL1 x List #2, rng seed 1; test holds the winners and move-trace hashes, simulations the coverage evaluations), process user+system time, median and quartiles over reps; base and change run alternately, each row in a fresh process",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: changes[0].GOMAXPROCS,
		Reps:       benchGenRounds,
		Clock:      "process CPU time, user+system (getrusage RUSAGE_SELF)",
		Parent:     genSide{Commit: base, Rows: summarize(t, parents)},
		Change:     genSide{Commit: change, Rows: summarize(t, changes)},
		Identical:  true,
	}
	for i, p := range rec.Parent.Rows {
		c := rec.Change.Rows[i]
		if p.Test != c.Test || p.Simulations != c.Simulations {
			rec.Identical = false
			t.Errorf("%s: base generated %s with %d simulations, change %s with %d",
				p.Row, p.Test, p.Simulations, c.Test, c.Simulations)
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchGen, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchGenSample times a batch of row i's runs on one P and at the
// process's GOMAXPROCS.
func benchGenSample(i int) (genSample, error) {
	procs := runtime.GOMAXPROCS(0)
	s := genSample{GOMAXPROCS: procs}
	row := benchGenRows[i]
	run, err := row.setup()
	if err != nil {
		return s, err
	}
	if _, _, err := run(); err != nil { // warm-up
		return s, err
	}
	out := genSampleRow{Row: row.row, Batch: row.batch}
	for _, p := range []int{1, procs} {
		runtime.GOMAXPROCS(p)
		runtime.GC()
		start := processCPU()
		for r := 0; r < row.batch; r++ {
			if out.Test, out.Simulations, err = run(); err != nil {
				return s, err
			}
		}
		ms := float64(processCPU()-start) / float64(time.Millisecond) / float64(row.batch)
		if p == 1 {
			out.CPUMs1P = ms
		} else {
			out.CPUMsMaxP = ms
		}
	}
	runtime.GOMAXPROCS(procs)
	if procs == 1 {
		out.CPUMsMaxP = out.CPUMs1P
	}
	s.Rows = append(s.Rows, out)
	return s, nil
}

// processCPU is the CPU time the process has used so far, user and system.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// buildBase checks the base commit out into dir, copies this file in and
// builds the base's test binary.
func buildBase(dir, root, commit string) (string, error) {
	src := filepath.Join(dir, "src")
	if err := os.Mkdir(src, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", commit)
	archive.Dir = root
	tar := exec.Command("tar", "-x", "-C", src)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	tar.Stdin = pipe
	if err := tar.Start(); err != nil {
		return "", err
	}
	if err := archive.Run(); err != nil {
		return "", fmt.Errorf("git archive %s: %v", commit, err)
	}
	if err := tar.Wait(); err != nil {
		return "", fmt.Errorf("untar %s: %v", commit, err)
	}
	self, err := os.ReadFile(filepath.Join(root, "benchgen_test.go"))
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(src, "benchgen_test.go"), self, 0o644); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "base.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Dir = src
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build base %s: %v\n%s", commit, err, out)
	}
	return bin, nil
}

// runSample runs a test binary built with this file for one sample of the
// row and adds it to s.
func runSample(bin, row string, s *genSample) error {
	cmd := exec.Command(bin, "-test.run", "^TestBenchGen$/^"+row+"$", "-test.count", "1", "-benchgen", "-")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%v\n%s%s", err, out, stderr.Bytes())
	}
	// The sample is the first line; the test framework's PASS follows.
	line, _, _ := bytes.Cut(out, []byte("\n"))
	var one genSample
	if err := json.Unmarshal(line, &one); err != nil {
		return fmt.Errorf("sample %q: %v", line, err)
	}
	s.GOMAXPROCS, s.Rows = one.GOMAXPROCS, append(s.Rows, one.Rows...)
	return nil
}

// summarize folds samples into one record row per Table-1 row.
func summarize(t *testing.T, samples []genSample) []genRecordRow {
	var rows []genRecordRow
	for i, first := range samples[0].Rows {
		var one, maxP []float64
		for _, s := range samples {
			r := s.Rows[i]
			if r.Test != first.Test || r.Simulations != first.Simulations {
				t.Errorf("%s: samples disagree: %s (%d) and %s (%d)", first.Row, first.Test, first.Simulations, r.Test, r.Simulations)
			}
			one, maxP = append(one, r.CPUMs1P), append(maxP, r.CPUMsMaxP)
		}
		rows = append(rows, genRecordRow{
			Row: first.Row, Batch: first.Batch, Test: first.Test, Simulations: first.Simulations,
			CPUMs1P: spread(one), CPUMsMaxP: spread(maxP),
		})
	}
	return rows
}

// spread returns the median and the quartiles, interpolating between
// order statistics.
func spread(xs []float64) genSpread {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	at := func(q float64) float64 {
		pos := q * float64(len(xs)-1)
		lo := int(pos)
		if lo+1 >= len(xs) {
			return xs[lo]
		}
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return genSpread{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}
}

func sampleLine(s genSample) string {
	var parts []string
	for _, r := range s.Rows {
		parts = append(parts, fmt.Sprintf("%s %.1f/%.1f ms", r.Row, r.CPUMs1P, r.CPUMsMaxP))
	}
	return strings.Join(parts, ", ")
}

func gitOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %v", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
