// Command marchsim fault-simulates a march test against a fault list: the
// standalone interface to the memory fault simulator (the paper's reference
// [13]).
//
// Usage:
//
//	marchsim -march "March SL" -list list1
//	marchsim -spec "c(w0) ^(r0,w1) v(r1,w0)" -list simple -missed 10
//
// Exit codes (for CI certification gates):
//
//	0  the march test detects every fault in the list
//	1  the simulation ran but at least one fault is missed
//	2  usage error (bad flags, unknown march test or fault list,
//	   inconsistent march test)
//	3  simulation or output error
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"marchgen"
	"marchgen/internal/buildinfo"
)

// Exit codes of the marchsim command.
const (
	exitFull  = 0 // full coverage
	exitMiss  = 1 // at least one missed fault
	exitUsage = 2 // flag / march / fault-list errors
	exitSim   = 3 // simulation or output errors
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		marchName = fs.String("march", "", "library march test to simulate (see -tests)")
		spec      = fs.String("spec", "", "march test in notation form, e.g. \"c(w0) ^(r0,w1) v(r1,w0)\"")
		listName  = fs.String("list", "list1", "fault list (list1, list2, simple, simple1, simple2, realistic1, realistic2, dynamic, dynamic1, dynamic2)")
		missed    = fs.Int("missed", 5, "print up to this many missed faults with witnesses")
		listTests = fs.Bool("tests", false, "list the library march tests and exit")
		asJSON    = fs.Bool("json", false, "emit the full report as JSON")
		bistCells = fs.Int("bist", 0, "also print the BIST cost estimate for a memory of this many cells")
		width     = fs.Int("width", 0, "also grade the test on the intra-word faults of a w-bit word (0/1 = bit-oriented)")
		ports     = fs.Int("ports", 0, "port count: 2 also grades the lifted test on the two-port weak-fault catalog")
		trace     = fs.Bool("trace", false, "for each missed fault printed, also replay its witness scenario step by step")
		version   = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *version {
		buildinfo.Fprint(stdout, "marchsim")
		return exitFull
	}

	if *listTests {
		for _, t := range marchgen.Library() {
			note := ""
			if t.Reconstructed {
				note = "  [reconstructed sequence]"
			}
			fmt.Fprintf(stdout, "%-16s %4s  %s%s\n", t.Name, t.Complexity(), t.Source, note)
		}
		return exitFull
	}

	var (
		test marchgen.March
		err  error
	)
	switch {
	case *spec != "":
		name := *marchName
		if name == "" {
			name = "custom"
		}
		test, err = marchgen.ParseMarch(name, *spec)
		if err != nil {
			fmt.Fprintln(stderr, "marchsim:", err)
			return exitUsage
		}
	case *marchName != "":
		var ok bool
		test, ok = marchgen.MarchByName(*marchName)
		if !ok {
			fmt.Fprintf(stderr, "marchsim: unknown march test %q (use -tests to list)\n", *marchName)
			return exitUsage
		}
	default:
		fmt.Fprintln(stderr, "marchsim: need -march or -spec")
		return exitUsage
	}

	if err := test.CheckConsistency(); err != nil {
		fmt.Fprintln(stderr, "marchsim: inconsistent march test:", err)
		return exitUsage
	}

	faults, err := marchgen.FaultListByName(*listName)
	if err != nil {
		fmt.Fprintln(stderr, "marchsim:", err)
		return exitUsage
	}

	r := marchgen.Simulate(test, faults)
	if err := r.Err(); err != nil {
		fmt.Fprintln(stderr, "marchsim:", err)
		return exitSim
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintln(stderr, "marchsim:", err)
			return exitSim
		}
		if !r.Full() {
			return exitMiss
		}
		return exitFull
	}
	fmt.Fprintln(stdout, r.Summary())
	if *bistCells > 0 {
		fmt.Fprintf(stdout, "BIST estimate (%d cells): %s\n", *bistCells, marchgen.EstimateBIST(test, *bistCells, 1000))
	}
	if *width > 1 {
		wr, err := marchgen.EvaluateWord(context.Background(), test, *width, false)
		if err != nil {
			fmt.Fprintln(stderr, "marchsim:", err)
			return exitSim
		}
		fmt.Fprintf(stdout, "word (w=%d, %d backgrounds): %d/%d intra-word faults detected\n",
			wr.Width, wr.Backgrounds, wr.Detected, wr.Faults)
	}
	if *ports > 1 {
		mr, err := marchgen.EvaluateMport(context.Background(), test, *ports)
		if err != nil {
			fmt.Fprintln(stderr, "marchsim:", err)
			return exitSim
		}
		fmt.Fprintf(stdout, "mport (2 ports): lifted test detects %d/%d weak faults\n",
			mr.LiftedDetected, mr.Faults)
	}
	for i, m := range r.Missed() {
		if i >= *missed {
			fmt.Fprintf(stdout, "  ... and %d more missed faults\n", len(r.Missed())-i)
			break
		}
		fmt.Fprintf(stdout, "  missed %s  (undetected at %s)\n", m.Fault.ID(), m.Witness)
		if *trace && m.Witness != nil {
			if err := marchgen.TraceWitness(stdout, test, m.Fault, *m.Witness); err != nil {
				fmt.Fprintln(stderr, "marchsim: trace:", err)
			}
		}
	}
	if !r.Full() {
		return exitMiss
	}
	return exitFull
}
