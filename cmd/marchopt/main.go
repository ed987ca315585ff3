// Command marchopt runs the search-based march-test optimizer: starting
// from a known full-coverage test (a library test, an explicit sequence, or
// one generated on the spot), it searches element-level edits for a shorter
// test with the same coverage, and certifies the winner against the
// independent reference oracle before reporting it.
//
// Usage:
//
//	marchopt -list list2                          # optimize a generated seed
//	marchopt -list list2 -seed-test "March ABL1"  # optimize a library test
//	marchopt -list list1 -budget 5000 -seed 7     # bigger search, other rng
//	marchopt -list list2 -spec "c(w0) c(r0,w1) c(r1,w0)" -name "Mine"
//	marchopt -list list2 -bist-cells 1024         # break length ties by BIST cost
//
// Exit codes (for CI optimization gates):
//
//	0  optimization succeeded (winner certified at full coverage)
//	1  search, certification or output error
//	2  usage error (bad flags, unknown fault list or seed test)
//	3  no improvement: the winner matches the seed's length (still certified)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"marchgen"
	"marchgen/internal/buildinfo"
)

// Exit codes of the marchopt command.
const (
	exitOK        = 0 // optimization improved on the seed
	exitErr       = 1 // search, certification or output errors
	exitUsage     = 2 // flag / fault-list / seed errors
	exitNoImprove = 3 // certified winner, but no shorter than the seed
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listName  = fs.String("list", "list2", "target fault list (list1, list2, simple, simple1, ...)")
		name      = fs.String("name", "March OPT", "name for the optimized test")
		seedTest  = fs.String("seed-test", "", "start from this library test (by name) instead of generating a seed")
		spec      = fs.String("spec", "", "start from this march sequence (conventional or ASCII notation)")
		seed      = fs.Int64("seed", 1, "rng seed; equal seeds reproduce the run bit-for-bit")
		budget    = fs.Int("budget", 2000, "candidate coverage-evaluation budget")
		beam      = fs.Int("beam", 4, "beam width (candidates kept per iteration)")
		restarts  = fs.Int("restarts", 3, "annealing restarts")
		bistCells = fs.Int("bist-cells", 0, "break length ties by BIST cycle cost on a memory of this many cells (0 = off)")
		ascii     = fs.Bool("ascii", false, "print tests with ASCII order markers instead of arrows")
		asJSON    = fs.Bool("json", false, "emit the winner, seed and statistics as JSON")
		quiet     = fs.Bool("quiet", false, "suppress the per-iteration progress line")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "marchopt")
		return exitOK
	}
	if *seedTest != "" && *spec != "" {
		fmt.Fprintln(stderr, "marchopt: -seed-test and -spec are mutually exclusive")
		return exitUsage
	}

	faults, err := marchgen.FaultListByName(*listName)
	if err != nil {
		fmt.Fprintln(stderr, "marchopt:", err)
		return exitUsage
	}

	opts := marchgen.OptimizeOptions{
		Name:      *name,
		Seed:      *seed,
		Budget:    *budget,
		BeamWidth: *beam,
		Restarts:  *restarts,
		BISTCells: *bistCells,
	}
	switch {
	case *seedTest != "":
		t, ok := marchgen.MarchByName(*seedTest)
		if !ok {
			fmt.Fprintf(stderr, "marchopt: unknown library test %q\n", *seedTest)
			return exitUsage
		}
		opts.SeedTest = &t
	case *spec != "":
		t, err := marchgen.ParseMarch(*name+" seed", *spec)
		if err != nil {
			fmt.Fprintln(stderr, "marchopt:", err)
			return exitUsage
		}
		opts.SeedTest = &t
	}
	if !*quiet && !*asJSON {
		lastBest := -1
		opts.OnProgress = func(p marchgen.OptimizeProgress) {
			if p.BestLength != lastBest {
				fmt.Fprintf(stdout, "  restart %d, %d evaluations: best %dn (T=%.2f)\n",
					p.Restart, p.Evaluations, p.BestLength, p.Temperature)
				lastBest = p.BestLength
			}
		}
	}

	res, err := marchgen.Optimize(faults, opts)
	if err != nil {
		fmt.Fprintln(stderr, "marchopt:", err)
		return exitErr
	}

	if *asJSON {
		out := struct {
			Test        marchgen.March  `json:"test"`
			Seed        marchgen.March  `json:"seed"`
			Report      marchgen.Report `json:"report"`
			Evaluations int             `json:"evaluations"`
			Improved    bool            `json:"improved"`
			Seconds     float64         `json:"search_seconds"`
		}{res.Test, res.Seed, res.Report, res.Stats.Evaluations, res.Stats.Improved, res.Stats.Duration.Seconds()}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "marchopt:", err)
			return exitErr
		}
	} else {
		render := marchgen.March.String
		if *ascii {
			render = marchgen.March.ASCII
		}
		fmt.Fprintf(stdout, "seed: %s (%s)\n  %s\n", res.Seed.Name, res.Seed.Complexity(), render(res.Seed))
		fmt.Fprintf(stdout, "winner: %s (%s, fault list %s)\n  %s\n",
			res.Test.Name, res.Test.Complexity(), *listName, render(res.Test))
		fmt.Fprintf(stdout, "coverage: %d/%d faults (certified, oracle agreed)\n",
			res.Report.Detected(), res.Report.Total())
		fmt.Fprintf(stdout, "search: %d evaluations, %d accepted, %d restart(s), %.3f s, move trace %s\n",
			res.Stats.Evaluations, res.Stats.Accepted, res.Stats.Restarts,
			res.Stats.Duration.Seconds(), res.Test.Prov.MoveTrace)
	}
	if !res.Stats.Improved {
		if !*asJSON {
			fmt.Fprintf(stdout, "no improvement over the %dn seed\n", res.Seed.Length())
		}
		return exitNoImprove
	}
	return exitOK
}
