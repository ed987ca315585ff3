package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"marchgen/internal/linked"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so a few slow starts do not decide it.
const setupReps = 5

// Phases of a run. An op's input depends on its client and index, not on
// its phase, so the untraced and traced phases of a traced run do the same
// work; inputs that must be unique per request (cold generate names)
// include the phase.
const (
	phaseWarm = iota
	phaseMain
	phaseTraced
)

// opID identifies one operation: client -1 is the untimed warm-up.
type opID struct{ phase, client, index int }

// key packs the op identity into a span operation id.
func (id opID) key() int64 {
	return int64(id.phase)<<48 | int64(id.client+1)<<32 | int64(id.index)
}

// spec describes a workload: how to set it up, how many closed-loop
// clients drive it and how many Ps it runs on.
type spec struct {
	// tailOps is the op count the tail percentile is chosen for: the run
	// record reports the tail at the highest percentile that leaves ten
	// samples beyond it at that count, and flags a run that falls short.
	tailOps int
	clients int
	// procs is the run's GOMAXPROCS; 0 keeps the default, one per CPU.
	procs int
	setup func(b *bench) (workload, error)
}

func (s spec) tailPct() float64 { return tailPercentile(s.tailOps) }

// optimize and diagnose run on one P, so the work an op does does not
// depend on timing. On two, optimize's many short early-abort coverage
// scans each fan out to two workers, whose work past a miss and whose
// scheduler spinning grow when the host takes a virtual CPU away, and
// diagnose, which starts no goroutine, gains only the GC's idle mark
// workers. Their CPU time per op rose by 15% and 70% in such periods.
var workloads = map[string]spec{
	"table1":   {tailOps: 40, clients: 1, setup: setupTable1},              // p75
	"optimize": {tailOps: 40, clients: 1, procs: 1, setup: setupOptimize},  // p75
	"diagnose": {tailOps: 100, clients: 1, procs: 1, setup: setupDiagnose}, // p90
	"serve":    {tailOps: 1000, clients: 2, setup: setupServe},             // p99
}

// workload is one set-up instance of a workload.
type workload interface {
	// op runs one operation and returns its class and the time that counts
	// as its latency. An error marks the op failed. A refusal only fails the
	// op; any other error, from a check of the output or from the program
	// itself, is a wrong output and fails the run.
	op(id opID) (class string, elapsed time.Duration, err error)
	// layers computes the per-layer metrics from the untraced and traced
	// phases of a traced run.
	layers(untraced []sample, spans []span) (map[string]float64, error)
	// details hands over what the run record keeps about the ops. The
	// workload drops its own reference, so the live heap measured after the
	// record is written is the program's, not the benchmark's.
	details() any
	close()
}

// bench is the state one run shares with its workload.
type bench struct {
	seed int64
	root string
	tr   atomic.Pointer[tracer]
	// untimed is CPU time, in nanoseconds, that ops spend outside their
	// timed region (diagnose's device under test); a phase leaves it out of
	// its CPU time. Only single-client workloads add to it.
	untimed atomic.Int64

	mu    sync.Mutex
	wrong []string // the first wrong outputs
}

// opSeed is the seed an op's input is drawn from: the workload seed,
// except for the warm-up op, whose input is fixed so that set-up does the
// same work under every seed.
func (b *bench) opSeed(id opID) int64 {
	if id.client < 0 {
		return 0
	}
	return b.seed
}

// tracer returns the active tracer; nil while tracing is off.
func (b *bench) tracer() *tracer { return b.tr.Load() }

// refusal is an answer the service gives instead of doing the work: an
// admission shed (429) or the engine's backstop (503). It fails the op but
// is not a wrong output.
type refusal struct{ status int }

func (r refusal) Error() string { return fmt.Sprintf("refused: HTTP %d", r.status) }

// fail accounts for an op's error: unless it is a refusal, it is a wrong
// output, and the run is incorrect.
func (b *bench) fail(err error) {
	if errors.As(err, new(refusal)) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.wrong) < 20 {
		b.wrong = append(b.wrong, err.Error())
	}
}

// list enumerates a fault list inside a faultlist span.
func (b *bench) list(name string, enumerate func() []linked.Fault) []linked.Fault {
	tr := b.tracer()
	id := tr.begin("faultlist."+name, -1, 0)
	defer tr.end(id)
	return enumerate()
}

// tempDir makes a temporary directory inside the checkout's build directory.
func (b *bench) tempDir(prefix string) (string, error) {
	dir := filepath.Join(b.root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, prefix+"-")
}

// record is the run record printed before the result line.
type record struct {
	Envelope envelope `json:"envelope"`
	Summary  summary  `json:"summary"`
	// SetupS holds each set-up's CPU time, SetupWallS its wall time.
	SetupS     []float64               `json:"setup_s"`
	SetupWallS []float64               `json:"setup_wall_s"`
	Untraced   *summary                `json:"untraced,omitempty"`
	Spans      map[string]layerSummary `json:"spans,omitempty"`
	Details    any                     `json:"details"`
	Wrong      []string                `json:"wrong,omitempty"`
}

// execute sets the workload up, runs its timed phase (untraced, then traced
// when trace is set), writes the run record to out and returns the result.
func (b *bench) execute(name string, s spec, d time.Duration, trace bool, out io.Writer) (result, error) {
	if s.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.procs))
	}
	env, err := newEnvelope(b, name, s, d, trace)
	if err != nil {
		return result{}, err
	}
	rec := &record{Envelope: env}
	setupTr := (*tracer)(nil)
	if trace {
		setupTr = newTracer()
	}
	b.tr.Store(setupTr)
	var w workload
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		watch := startWatch()
		if w, err = s.setup(b); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		if _, _, err := w.op(opID{phaseWarm, -1, 0}); err != nil {
			w.close()
			return result{}, fmt.Errorf("warm-up op: %w", err)
		}
		c := watch.elapsed()
		rec.SetupS = append(rec.SetupS, c.cpu.Seconds())
		rec.SetupWallS = append(rec.SetupWallS, c.wall.Seconds())
	}
	defer w.close()
	b.tr.Store(nil)

	if !trace {
		samples, c := b.phase(w, s.clients, phaseMain, d)
		rec.Summary = summarize(samples, s.tailPct(), c)
		values := map[string]float64{
			"setup_s":       median(rec.SetupS),
			"cpu_ms_per_op": rec.Summary.CPUMSPerOp,
		}
		res := result{Attempted: rec.Summary.Attempted, Failed: rec.Summary.Failed}
		if err := b.writeRecord(out, rec, w); err != nil {
			return result{}, err
		}
		// The record and its per-op details are out, so the live heap is
		// what the program keeps. Two cycles: the runtime drops sync.Pool
		// contents within two, so a pool's momentary contents do not count.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		values["heap_live_mb"] = float64(m.HeapAlloc) / (1 << 20)
		res.Correct = len(b.wrongs()) == 0
		res.Metrics, err = metricMap(endToEnd, values)
		return res, err
	}

	// Traced run: the same op sequence untraced, then traced, each for
	// half the time.
	half := d / 2
	untraced, c := b.phase(w, s.clients, phaseMain, half)
	u := summarize(untraced, s.tailPct(), c)
	rec.Untraced = &u

	tr := newTracer()
	b.tr.Store(tr)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, c := b.phase(w, s.clients, phaseTraced, half)
	runtime.ReadMemStats(&m1)
	rec.Summary = summarize(traced, s.tailPct(), c)
	spans := tr.snapshot()

	values, err := w.layers(untraced, spans)
	if err != nil {
		return result{}, err
	}
	b.tr.Store(nil)
	ops := float64(len(traced))
	for name, xs := range selfByName(setupTr.snapshot()) {
		if strings.HasPrefix(name, "faultlist.") {
			values["faultlist.enumerate_ms"] += sum(xs) / setupReps
		}
	}
	values["runtime.alloc_bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	values["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / ops
	values["runtime.peak_rss_mb"] = peakRSSMB()
	values["bench.trace_overhead"] = traceOverhead(untraced, traced)
	rec.Spans = summarizeSpans(spans)
	res := result{
		Correct:   true,
		Attempted: u.Attempted + rec.Summary.Attempted,
		Failed:    u.Failed + rec.Summary.Failed,
	}
	if err := b.writeRecord(out, rec, w); err != nil {
		return result{}, err
	}
	res.Correct = len(b.wrongs()) == 0
	res.Metrics, err = metricMap(perLayer, values)
	return res, err
}

// writeRecord completes the run record with the workload's per-op details
// and writes it, after the details' text form when they have one.
func (b *bench) writeRecord(out io.Writer, rec *record, w workload) error {
	rec.Envelope.Ops = rec.Summary.Attempted
	rec.Details = w.details()
	rec.Wrong = b.wrongs()
	if text, ok := rec.Details.(fmt.Stringer); ok {
		if _, err := fmt.Fprint(out, text); err != nil {
			return err
		}
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func (b *bench) wrongs() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.wrong...)
}

// phase drives the workload closed-loop from the given number of clients
// until d has passed, and returns the samples and what the phase cost.
func (b *bench) phase(w workload, clients, phase int, d time.Duration) ([]sample, cost) {
	b.untimed.Store(0)
	watch := startWatch()
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(watch.wall) < d; i++ {
				id := opID{phase, c, i}
				class, elapsed, err := w.op(id)
				if err != nil {
					b.fail(err)
				}
				per[c] = append(per[c], sample{id: id, class: class, elapsed: elapsed, failed: err != nil})
			}
		}(c)
	}
	wg.Wait()
	c := watch.elapsed()
	c.cpu -= time.Duration(b.untimed.Load())
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, c
}

// cost is how long a stretch of the run took by the wall clock and in the
// process's CPU time.
type cost struct{ wall, cpu time.Duration }

// stopwatch reads the wall clock and the process's CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) elapsed() cost { return cost{time.Since(s.wall), processCPU() - s.cpu} }

// processCPU is the CPU time the process has used so far, user and system,
// summed over its threads. It leaves out time the process waits for a CPU
// and time the host gives a virtual CPU to other guests (steal).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
