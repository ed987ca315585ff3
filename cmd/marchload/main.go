// Command marchload is the repo-native load harness for marchd: it drives
// a mixed workload (cache-hit generates, cold generates, simulations,
// verifications) at a configurable concurrency and mix, measures per-class
// latency percentiles and shed/error counts, and evaluates SLO gates on
// the result — exit status 1 means a gate failed, so `make load-test` can
// pin the overload contract in CI.
//
// Two ways to point it at a server:
//
//	marchload -selfserve -duration 5s -concurrency 8
//	marchload -addr http://127.0.0.1:8080 -duration 30s
//
// -selfserve starts an in-process marchd (sized by -workers/-queue/
// -admit-target/-admit-interval) on a loopback port, which makes the
// harness self-contained for CI: no daemon management, no port juggling.
//
// The report lands as JSON (BENCH_serve.json by convention, see -out):
// per-class p50/p99/p999, request totals, shed counts, healthz samples
// observed during the run, and allocs-per-cached-hit derived from the
// server's /metrics runtime sample across -alloc-sample back-to-back hits.
//
// Gates (all optional; violated gates are listed in the report):
//
//	-max-shed N                fail when total 429 sheds exceed N
//	-min-shed N                fail when total 429 sheds fall below N
//	                           (the overload run proves shedding happens)
//	-min-class-success SPEC    per-class success-ratio floors, e.g.
//	                           "cachehit=0.99,simulate=0.9"
//	-max-cached-p99-ratio R    with -baseline FILE: fail when this run's
//	                           cachehit p99 exceeds R × the baseline's,
//	                           below a -cached-p99-floor absolute grace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"marchgen/internal/service"
)

const (
	exitOK    = 0
	exitGate  = 1
	exitUsage = 2
	exitSetup = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// harnessConfig is the parsed flag set.
type harnessConfig struct {
	addr        string
	selfserve   bool
	workers     int
	queue       int
	admitTarget time.Duration
	admitIvl    time.Duration

	duration    time.Duration
	concurrency int
	mix         map[string]int
	mixSpec     string
	coldList    string
	opTimeout   time.Duration
	seed        int64

	out         string
	baseline    string
	allocSample int

	maxShed         int64
	minShed         int64
	minClassSuccess map[string]float64
	maxCachedRatio  float64
	cachedFloor     time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg harnessConfig
	fs.StringVar(&cfg.addr, "addr", "", "target marchd base URL (empty with -selfserve)")
	fs.BoolVar(&cfg.selfserve, "selfserve", false, "start an in-process marchd on a loopback port")
	fs.IntVar(&cfg.workers, "workers", 2, "selfserve: generation worker pool size")
	fs.IntVar(&cfg.queue, "queue", 8, "selfserve: generate queue budget (marchd -queue)")
	fs.DurationVar(&cfg.admitTarget, "admit-target", 50*time.Millisecond, "selfserve: CoDel queue-wait target")
	fs.DurationVar(&cfg.admitIvl, "admit-interval", 250*time.Millisecond, "selfserve: CoDel observation interval")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "how long to drive load")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "concurrent load workers")
	fs.StringVar(&cfg.mixSpec, "mix", "cachehit=8,cold=1,simulate=2,verify=1", "workload mix as class=weight pairs")
	fs.StringVar(&cfg.coldList, "cold-list", "list1", "fault list the cold-generate class requests")
	fs.DurationVar(&cfg.opTimeout, "op-timeout", 10*time.Second, "per-operation deadline (submit + poll)")
	fs.Int64Var(&cfg.seed, "seed", 1, "rng seed for the workload mix")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report here (e.g. BENCH_serve.json)")
	fs.StringVar(&cfg.baseline, "baseline", "", "baseline report for the cached-p99 ratio gate")
	fs.IntVar(&cfg.allocSample, "alloc-sample", 0, "sample allocs-per-cached-hit over N back-to-back hits")
	fs.Int64Var(&cfg.maxShed, "max-shed", -1, "gate: fail when total sheds exceed this (-1 disables)")
	fs.Int64Var(&cfg.minShed, "min-shed", -1, "gate: fail when total sheds fall below this (-1 disables)")
	minSuccessSpec := fs.String("min-class-success", "", "gate: per-class success-ratio floors, e.g. \"cachehit=0.99\"")
	fs.Float64Var(&cfg.maxCachedRatio, "max-cached-p99-ratio", 0, "gate: cachehit p99 vs -baseline ratio cap (0 disables)")
	fs.DurationVar(&cfg.cachedFloor, "cached-p99-floor", 25*time.Millisecond, "absolute cachehit-p99 grace below which the ratio gate passes")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	var err error
	if cfg.mix, err = parseMix(cfg.mixSpec); err != nil {
		fmt.Fprintf(stderr, "marchload: %v\n", err)
		return exitUsage
	}
	if cfg.minClassSuccess, err = parseClassFloors(*minSuccessSpec); err != nil {
		fmt.Fprintf(stderr, "marchload: %v\n", err)
		return exitUsage
	}
	if cfg.addr == "" && !cfg.selfserve {
		fmt.Fprintln(stderr, "marchload: set -addr or -selfserve")
		return exitUsage
	}
	if cfg.addr != "" && cfg.selfserve {
		fmt.Fprintln(stderr, "marchload: -addr and -selfserve are mutually exclusive")
		return exitUsage
	}

	var shutdown func()
	if cfg.selfserve {
		addr, stop, err := startSelfserve(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "marchload: selfserve: %v\n", err)
			return exitSetup
		}
		cfg.addr = addr
		shutdown = stop
	}
	cfg.addr = strings.TrimRight(cfg.addr, "/")
	if shutdown != nil {
		defer shutdown()
	}

	report, err := drive(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "marchload: %v\n", err)
		return exitSetup
	}
	report.evaluateGates(cfg)

	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "marchload: encode report: %v\n", err)
		return exitSetup
	}
	doc = append(doc, '\n')
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, doc, 0o644); err != nil {
			fmt.Fprintf(stderr, "marchload: %v\n", err)
			return exitSetup
		}
	}
	stdout.Write(doc)
	for _, g := range report.Gates {
		if !g.OK {
			fmt.Fprintf(stderr, "marchload: gate failed: %s: %s\n", g.Name, g.Detail)
		}
	}
	for _, g := range report.Gates {
		if !g.OK {
			return exitGate
		}
	}
	return exitOK
}

// startSelfserve boots an in-process marchd on a loopback port and returns
// its base URL plus a shutdown func.
func startSelfserve(cfg harnessConfig) (string, func(), error) {
	dataDir, err := os.MkdirTemp("", "marchload-*")
	if err != nil {
		return "", nil, err
	}
	svc := service.New(service.Config{
		Workers:       cfg.workers,
		QueueDepth:    cfg.queue,
		AdmitTarget:   cfg.admitTarget,
		AdmitInterval: cfg.admitIvl,
		DataDir:       dataDir,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dataDir)
		return "", nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		svc.Shutdown(ctx)
		os.RemoveAll(dataDir)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// parseMix parses "cachehit=8,cold=1,simulate=2,verify=1" into weights.
func parseMix(spec string) (map[string]int, error) {
	mix := make(map[string]int)
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -mix entry %q: want class=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q: want a non-negative integer", val)
		}
		switch name {
		case classCacheHit, classCold, classSimulate, classVerify:
		default:
			return nil, fmt.Errorf("unknown -mix class %q (want %s|%s|%s|%s)",
				name, classCacheHit, classCold, classSimulate, classVerify)
		}
		mix[name] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("-mix %q selects no work: all weights are zero", spec)
	}
	return mix, nil
}

// parseClassFloors parses "cachehit=0.99,simulate=0.9".
func parseClassFloors(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	floors := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -min-class-success entry %q: want class=ratio", part)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("bad -min-class-success ratio %q: want 0..1", val)
		}
		floors[name] = f
	}
	return floors, nil
}

// percentile returns the p-th percentile (0..1) of sorted latencies.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// summarize renders one class's latency sample into the report form.
func summarize(latMS []float64) classReport {
	var r classReport
	if len(latMS) == 0 {
		return r
	}
	sort.Float64s(latMS)
	var sum float64
	for _, v := range latMS {
		sum += v
	}
	r.P50ms = percentile(latMS, 0.50)
	r.P99ms = percentile(latMS, 0.99)
	r.P999ms = percentile(latMS, 0.999)
	r.MeanMS = sum / float64(len(latMS))
	return r
}
