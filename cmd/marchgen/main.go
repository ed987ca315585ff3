// Command marchgen generates a march test for a target fault list and
// certifies it with the fault simulator — the end-to-end flow of the paper.
//
// Usage:
//
//	marchgen -list list2
//	marchgen -list list1 -aggressive -name "March MINE"
//	marchgen -list list1 -kinds        # per-kind coverage breakdown
//	marchgen -list list2 -verify       # cross-check with the reference oracle
//
// Exit codes (for CI generation gates):
//
//	0  generation succeeded (full coverage certified)
//	1  generation, verification or output error
//	2  usage error (bad flags, unknown fault list or order constraint)
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

// Exit codes of the marchgen command.
const (
	exitOK    = 0 // generation succeeded
	exitErr   = 1 // generation, verification or output errors
	exitUsage = 2 // flag / fault-list / order errors
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("marchgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listName   = fs.String("list", "list2", "target fault list (list1, list2, simple, simple1, simple2, realistic1, realistic2, dynamic, dynamic1, dynamic2)")
		name       = fs.String("name", "March GEN", "name for the generated test")
		aggressive = fs.Bool("aggressive", false, "enable the deeper minimization passes (the March RABL profile)")
		orders     = fs.String("orders", "free", "address-order constraint: free, up (all-increasing) or down (all-decreasing)")
		kinds      = fs.Bool("kinds", false, "print per-kind coverage breakdown")
		ascii      = fs.Bool("ascii", false, "print the test with ASCII order markers instead of arrows")
		verify     = fs.Bool("verify", false, "cross-check the certification with the independent reference oracle")
		width      = fs.Int("width", 0, "word width in bits: also grade the test on the intra-word faults of a w-bit word (0/1 = bit-oriented)")
		transp     = fs.Bool("transparent", false, "with -width > 1, also derive and grade the transparent in-field variant")
		ports      = fs.Int("ports", 0, "port count: 2 also grades the lifted test on the two-port weak-fault catalog (0/1 = single-port)")
		asJSON     = fs.Bool("json", false, "emit the generated test and its certification report as JSON")
		version    = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "marchgen")
		return exitOK
	}

	faults, err := marchgen.FaultListByName(*listName)
	if err != nil {
		fmt.Fprintln(stderr, "marchgen:", err)
		return exitUsage
	}

	constraint, err := marchgen.ParseOrderConstraint(*orders)
	if err != nil {
		fmt.Fprintf(stderr, "marchgen: invalid -orders %q (want free, up or down)\n", *orders)
		return exitUsage
	}

	opts := marchgen.Options{
		Name: *name, Aggressive: *aggressive, Orders: constraint, CertifyWithOracle: *verify,
		Width: *width, Transparent: *transp, Ports: *ports,
	}
	res, err := marchgen.Generate(faults, opts)
	if err != nil {
		fmt.Fprintln(stderr, "marchgen:", err)
		return exitErr
	}

	if *asJSON {
		// Options travel in their canonical encoding (stable field order,
		// defaults filled in) — the same form the marchd API and its result
		// cache use.
		out := struct {
			Test    marchgen.March        `json:"test"`
			Report  marchgen.Report       `json:"report"`
			Options marchgen.Options      `json:"options"`
			Word    *marchgen.WordResult  `json:"word,omitempty"`
			Mport   *marchgen.MportResult `json:"mport,omitempty"`
			Seconds float64               `json:"generation_seconds"`
		}{res.Test, res.Report, opts, res.Word, res.Mport, res.Stats.Duration.Seconds()}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "marchgen:", err)
			return exitErr
		}
		return exitOK
	}

	rendered := res.Test.String()
	if *ascii {
		rendered = res.Test.ASCII()
	}
	fmt.Fprintf(stdout, "%s (%s, fault list %s)\n", res.Test.Name, res.Test.Complexity(), *listName)
	fmt.Fprintf(stdout, "  %s\n", rendered)
	fmt.Fprintf(stdout, "coverage: %d/%d faults (%.1f%%)\n", res.Report.Detected(), res.Report.Total(), res.Report.Coverage())
	if *verify {
		fmt.Fprintln(stdout, "oracle cross-check: agreed on every fault")
	}
	if res.Word != nil {
		fmt.Fprintf(stdout, "word (w=%d, %d backgrounds): %d/%d intra-word faults detected\n",
			res.Word.Width, res.Word.Backgrounds, res.Word.Detected, res.Word.Faults)
		if res.Word.Transparent {
			fmt.Fprintf(stdout, "  transparent variant: %s  (%d/%d detected)\n",
				res.Word.TransparentTest, res.Word.TransparentDetected, res.Word.Faults)
		}
	}
	if res.Mport != nil {
		fmt.Fprintf(stdout, "mport (2 ports): lifted test detects %d/%d weak faults; dedicated %s (%d pairs, %d/%d)\n",
			res.Mport.LiftedDetected, res.Mport.Faults, res.Mport.Test,
			res.Mport.TestLength, res.Mport.TestDetected, res.Mport.Faults)
	}
	if *kinds {
		for _, k := range res.Report.ByKind() {
			fmt.Fprintf(stdout, "  %s\n", k)
		}
	}
	fmt.Fprintf(stdout, "generation: %.3f s, %d candidate simulations, %d ops before minimization\n",
		res.Stats.Duration.Seconds(), res.Stats.Simulations, res.Stats.LengthBeforeMinimize)
	return exitOK
}
