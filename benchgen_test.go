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
// three Table-1 generation rows, on one P and at GOMAXPROCS, for this
// checkout and for a base commit, next to each other. It skips unless
// -benchgen names the output file; with -benchgen - it prints one sample
// instead, which is how the record runs each binary.
//
// The base commit is checked out with git archive into a temporary
// directory, this file is copied in, and its test binary is built there, so
// the base needs only the marchgen API this file uses. The two binaries run
// alternately, one sample each per round, so a change in the host's load
// falls on both alike. A sample times one generation of every row at each
// P count, in process CPU time after an untimed warm-up and a collection.
var (
	benchGen     = flag.String("benchgen", "", "write the generation CPU-time record to `FILE` (- prints one sample)")
	benchGenBase = flag.String("benchgen-base", "HEAD", "base `COMMIT` the record measures next to this checkout")
)

// benchGenRounds is the number of samples per binary.
const benchGenRounds = 11

var benchGenRows = []struct {
	row, list string
	opts      marchgen.Options
}{
	{"ABL", "list1", marchgen.Options{Name: "ABL-repro"}},
	{"RABL", "list1", marchgen.Options{Name: "RABL-repro", Aggressive: true}},
	{"ABL1", "list2", marchgen.Options{Name: "ABL1-repro"}},
}

// genSample is one run of every row.
type genSample struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	Rows       []genSampleRow `json:"rows"`
}

type genSampleRow struct {
	Row         string  `json:"row"`
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
		s, err := benchGenSample()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			t.Fatal(err)
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
		p, err := runSample(baseBin)
		if err != nil {
			t.Fatalf("base sample: %v", err)
		}
		c, err := runSample(os.Args[0])
		if err != nil {
			t.Fatalf("change sample: %v", err)
		}
		parents, changes = append(parents, p), append(changes, c)
		t.Logf("round %d: base %s / change %s", r+1, sampleLine(p), sampleLine(c))
	}

	rec := genRecord{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Note:       "CPU ms of one core.Generate per Table-1 row (process user+system time), median and quartiles over reps; base and change run alternately, in fresh processes",
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

// benchGenSample times one generation of every row on one P and at the
// process's GOMAXPROCS.
func benchGenSample() (genSample, error) {
	procs := runtime.GOMAXPROCS(0)
	s := genSample{GOMAXPROCS: procs}
	for _, row := range benchGenRows {
		faults, err := marchgen.FaultListByName(row.list)
		if err != nil {
			return s, err
		}
		if _, err := marchgen.Generate(faults, row.opts); err != nil { // warm-up
			return s, err
		}
		out := genSampleRow{Row: row.row}
		for _, p := range []int{1, procs} {
			runtime.GOMAXPROCS(p)
			runtime.GC()
			start := processCPU()
			res, err := marchgen.Generate(faults, row.opts)
			ms := float64(processCPU()-start) / float64(time.Millisecond)
			if err != nil {
				return s, err
			}
			out.Test, out.Simulations = res.Test.String(), res.Stats.Simulations
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
	}
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

// runSample runs a test binary built with this file for one sample.
func runSample(bin string) (genSample, error) {
	var s genSample
	cmd := exec.Command(bin, "-test.run", "^TestBenchGen$", "-test.count", "1", "-benchgen", "-")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("%v\n%s%s", err, out, stderr.Bytes())
	}
	// The sample is the first line; the test framework's PASS follows.
	line, _, _ := bytes.Cut(out, []byte("\n"))
	if err := json.Unmarshal(line, &s); err != nil {
		return s, fmt.Errorf("sample %q: %v", line, err)
	}
	return s, nil
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
			Row: first.Row, Test: first.Test, Simulations: first.Simulations,
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
