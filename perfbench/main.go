// Command perfbench is the repository's benchmark. It builds nothing
// itself; run.sh builds it from the checkout's source and runs it:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// Each run sets the workload up several times, then drives it closed-loop
// for --seconds and checks every output. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it runs the timed phase once untraced
// and once traced, and prints the per-layer metrics and the tracing
// overhead. The last line of standard output is the result object; the
// line before it is the run record (envelope, span totals, per-op details).
//
// Exit codes: 0 result printed and correct, 1 result printed but an output
// was wrong, 2 usage, set-up or traced-run error (no result).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same op sequence")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{seed: *seed, root: root}
	res, err := b.execute(*name, spec, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	for _, w := range b.wrongs() {
		fmt.Fprintln(stderr, "perfbench: wrong output:", w)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
