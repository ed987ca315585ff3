// Command experiments regenerates every experiment in EXPERIMENTS.md beyond
// Table 1 (cmd/table1 handles that one): the coverage matrix of the march
// library over all fault lists, the dynamic-fault extension, the
// order-constrained generation trade-off with its BIST costs, the two-port
// prototype, and the defect-coverage matrix. The fault simulator's
// throughput record (BENCH_sim.json) is written by internal/sim's
// TestBenchRecord (make bench-sim).
//
// Usage:
//
//	experiments                    # everything (minutes)
//	experiments -quick             # skip the generation-heavy sections
//	experiments -bench-opt FILE    # only run the march optimizer against
//	                               # the Table 1 baselines (see BENCH_opt.json)
//
// Exit codes:
//
//	0  every requested section rendered
//	1  generation, simulation or output error
//	2  usage error (bad flags)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"marchgen"
	"marchgen/internal/af"
	"marchgen/internal/bist"
	"marchgen/internal/buildinfo"
	"marchgen/internal/defect"
	"marchgen/internal/diagnose"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/mport"
	"marchgen/internal/report"
	"marchgen/internal/sim"
	"marchgen/internal/word"
)

// Exit codes of the experiments command.
const (
	exitOK    = 0 // every requested section rendered
	exitErr   = 1 // generation / simulation / output errors
	exitUsage = 2 // flag errors
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process plumbing factored out so tests can drive
// the command end to end and assert on its exit code and output.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "skip the generation-heavy sections")
	benchOpt := fs.String("bench-opt", "", "run the march optimizer against the Table 1 baselines and write the results to `FILE`, then exit")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *version {
		buildinfo.Fprint(stdout, "experiments")
		return exitOK
	}

	if *benchOpt != "" {
		fmt.Fprintln(stdout, "== March optimizer vs Table 1 baselines (37n / 35n / 9n) ==")
		if err := runBenchOpt(*benchOpt, stdout); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return exitErr
		}
		return exitOK
	}

	if err := runAll(stdout, *quick); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return exitErr
	}
	return exitOK
}

// runAll renders every section of EXPERIMENTS.md to w, in order.
func runAll(w io.Writer, quick bool) error {
	cfg := sim.DefaultConfig()
	list1 := faultlist.List1()
	list2 := faultlist.List2()
	simple := faultlist.SimpleStatic()
	dynamic := faultlist.Dynamic()

	// Section 1: library coverage matrix.
	fmt.Fprintln(w, "== March library coverage (detected / total) ==")
	cov := &report.Table{Header: []string{"March Test", "O(n)", "Simple(48)", "List2(18)", "List1(594)", "Dynamic(66)"}}
	for _, m := range march.Lib() {
		rs := sim.Simulate(m, simple, cfg)
		r2 := sim.Simulate(m, list2, cfg)
		r1 := sim.Simulate(m, list1, cfg)
		rd := sim.Simulate(m, dynamic, cfg)
		if err := firstErr(rs, r2, r1, rd); err != nil {
			return err
		}
		cov.AddRow(m.Name, m.Complexity(),
			fmt.Sprint(rs.Detected()), fmt.Sprint(r2.Detected()),
			fmt.Sprint(r1.Detected()), fmt.Sprint(rd.Detected()))
	}
	if err := cov.Render(w); err != nil {
		return err
	}

	// Section 2: BIST costs of the comparison tests.
	fmt.Fprintln(w, "\n== BIST cost (1024 cells, 1000 cycles per delay) ==")
	bt := &report.Table{Header: []string{"March Test", "Cycles", "Elements", "Order switches", "Single order"}}
	for _, m := range []march.Test{march.MarchSL, march.MarchABL, march.MarchRABL, march.MarchABL1, march.MarchG} {
		c := bist.Estimate(m, 1024, 1000)
		bt.AddRow(m.Name, fmt.Sprint(c.Cycles), fmt.Sprint(c.Elements),
			fmt.Sprint(c.OrderSwitches), fmt.Sprint(c.SingleOrder))
	}
	if err := bt.Render(w); err != nil {
		return err
	}

	// Section 3: defect coverage matrix.
	fmt.Fprintln(w, "\n== Defect class coverage ==")
	dt := &report.Table{Header: []string{"Defect", "FPs", "MATS+", "March C-", "March SS", "March G", "March SL"}}
	refs := []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchSS, march.MarchG, march.MarchSL}
	for _, k := range defect.Kinds() {
		d := defect.Defect{Kind: k}
		faults, err := d.Faults()
		if err != nil {
			return err
		}
		row := []string{d.String(), fmt.Sprint(len(faults))}
		for _, m := range refs {
			r := sim.Simulate(m, faults, cfg)
			if err := r.Err(); err != nil {
				return err
			}
			mark := "-"
			if r.Full() {
				mark = "full"
			} else if r.Detected() > 0 {
				mark = fmt.Sprintf("%d/%d", r.Detected(), r.Total())
			}
			row = append(row, mark)
		}
		dt.AddRow(row...)
	}
	if err := dt.Render(w); err != nil {
		return err
	}

	// Section 3b: word-oriented backgrounds.
	fmt.Fprintln(w, "\n== Word-oriented memories (4-bit words, intra-word couplings) ==")
	testable := word.TestableIntraWordFaults(4)
	bgsAll, err := word.Backgrounds(4)
	if err != nil {
		return err
	}
	solid := []word.Background{word.Solid(4)}
	wt := &report.Table{Header: []string{"March Test", "Solid bg", "Standard set"}}
	for _, m := range []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchSS} {
		dS, err := word.Coverage(m, testable, solid)
		if err != nil {
			return err
		}
		dA, err := word.Coverage(m, testable, bgsAll)
		if err != nil {
			return err
		}
		wt.AddRow(m.Name, fmt.Sprintf("%d/%d", dS, len(testable)), fmt.Sprintf("%d/%d", dA, len(testable)))
	}
	if err := wt.Render(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "(%d transition-write intra-word disturbs are march-untestable; see EXPERIMENTS.md §10)\n",
		len(word.IntraWordFaults(4))-len(testable))

	// Section 3b2: address decoder faults.
	fmt.Fprintln(w, "\n== Address decoder faults (40 instances on 4 cells) ==")
	afFaults := af.All(4)
	for _, m := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchLF1, march.MarchABL1} {
		got, err := af.Coverage(m, afFaults, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s (%4s): %d/%d\n", m.Name, m.Complexity(), got, len(afFaults))
	}

	// Section 3c: diagnosis resolution.
	fmt.Fprintln(w, "\n== Diagnosis resolution (syndrome dictionaries, 4 cells) ==")
	for _, m := range []march.Test{march.MATSPlus, march.MarchSS} {
		d, err := diagnose.Build(m, faultlist.SimpleSingleCell(), sim.Config{Size: 4})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-9s %s\n", m.Name, d.Resolution())
	}

	// Section 4: two-port prototype (single-port blindness).
	fmt.Fprintln(w, "\n== Two-port weak faults (Section 7 multi-port extension) ==")
	cat := mport.Catalog()
	fmt.Fprintf(w, "catalog: %d faults (6 same-cell double-read + 32 weak coupled concurrent)\n", len(cat))
	for _, sp := range []march.Test{march.MarchCMinus, march.MarchSL} {
		lifted, err := mport.Lift(sp)
		if err != nil {
			return err
		}
		r, err := mport.Simulate(lifted, cat)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-10s via one port: %d/%d detected\n", sp.Name, r.Detected, r.Total)
	}

	if quick {
		fmt.Fprintln(w, "\n(-quick: generation sections skipped)")
		return nil
	}

	// Section 5: dynamic-fault generation.
	fmt.Fprintln(w, "\n== Dynamic fault generation (ETS'05 companion scope) ==")
	dres, err := marchgen.Generate(dynamic, marchgen.Options{Name: "March DYN"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %s: %s, %d/%d certified (March RAW at 26n reaches %d/66)\n",
		dres.Test.Complexity(), shorten(dres.Test.String(), 70),
		dres.Report.Detected(), dres.Report.Total(),
		sim.Simulate(march.MarchRAW, dynamic, cfg).Detected())

	// Section 6: order-constrained generation.
	fmt.Fprintln(w, "\n== Order-constrained generation (Section 7 future work) ==")
	upL2, err := marchgen.Generate(list2, marchgen.Options{Name: "UP-L2", Orders: marchgen.OrderUpOnly})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "all-⇑ for List #2: %s at %d/%d\n", upL2.Test.Complexity(), upL2.Report.Detected(), upL2.Report.Total())
	if _, err := marchgen.Generate(list1, marchgen.Options{Name: "UP-L1", Orders: marchgen.OrderUpOnly}); err != nil {
		fmt.Fprintf(w, "all-⇑ for List #1 refuses, as proved: %v\n", err)
	} else {
		fmt.Fprintln(w, "all-⇑ for List #1 unexpectedly succeeded — EXPERIMENTS.md finding changed!")
	}

	// Section 7: two-port generation.
	fmt.Fprintln(w, "\n== Two-port generation ==")
	t2, r2p, err := mport.Generate(cat, mport.Options{Name: "March 2P"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %s: %d elements, %d/%d certified\n", t2.Complexity(), len(t2.Elems), r2p.Detected, r2p.Total)

	// Section 8: the grand union.
	fmt.Fprintln(w, "\n== Unified generation (linked + simple + dynamic, 708 faults) ==")
	all := append(append([]linked.Fault{}, list1...), append(simple, dynamic...)...)
	ures, err := marchgen.Generate(all, marchgen.Options{Name: "March ALL"})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "generated %s at %d/%d certified in %.1f s\n",
		ures.Test.Complexity(), ures.Report.Detected(), ures.Report.Total(), ures.Stats.Duration.Seconds())
	return nil
}

func firstErr(rs ...sim.Report) error {
	for _, r := range rs {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}

func shorten(s string, n int) string {
	r := []rune(s)
	if len(r) <= n {
		return s
	}
	return string(r[:n]) + "..."
}
