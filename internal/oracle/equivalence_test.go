package oracle

import (
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// TestOracleSimEquivalence pins the two independent simulators bit-identical
// — detection verdict, missed set, witness trace — across the full built-in
// fault-list library, both address-order regimes (exhaustive ⇕ expansion and
// the canonical ⇕→⇑ resolution) and memory sizes 3, 4 and 5. Size 3 also
// exercises the agreement of the error paths: three-cell faults cannot be
// placed there, and both sides must say so.
func TestOracleSimEquivalence(t *testing.T) {
	// A cheap and an expensive library test: MATS+ exercises every order
	// kind in 5n; March SL is the long linked-fault workhorse. The random
	// streams cover op shapes (double waits, repeated reads, back-to-back
	// write-read pairs) no library test has.
	tests := []march.Test{march.MATSPlus, march.MarchSL}
	tests = append(tests, RandomTests(7, 2)...)

	for _, name := range faultlist.Names() {
		faults, ok := faultlist.ByName(name)
		if !ok {
			t.Fatalf("ByName(%q): unknown list", name)
		}
		for _, size := range []int{3, 4, 5} {
			for _, exhaustive := range []bool{true, false} {
				cfg := sim.Config{Size: size, ExhaustiveOrders: exhaustive}
				for _, mt := range tests {
					if testing.Short() && (size == 5 && len(faults) > 100) {
						continue // the big lists at size 5 dominate -short runs
					}
					t.Run(fmt.Sprintf("%s/n%d/exh=%t/%s", name, size, exhaustive, mt.Name), func(t *testing.T) {
						diffs := CrossCheck(mt, faults, cfg)
						for _, d := range diffs {
							t.Errorf("divergence: %s", d)
						}
					})
				}
			}
		}
	}
}

// TestCrossCheckSeesDivergence proves the harness is not vacuous: verdicts
// doctored on one side must surface as diffs.
func TestCrossCheckSeesDivergence(t *testing.T) {
	a := []sim.Verdict{
		{Fault: "f1", Detected: true},
		{Fault: "f2", Detected: false, Witness: "cells@0 init=0 orders=^"},
		{Fault: "f3", Err: "boom"},
	}
	identical := sim.DiffVerdicts(a, a)
	if len(identical) != 0 {
		t.Fatalf("identical verdicts diffed: %v", identical)
	}

	b := append([]sim.Verdict(nil), a...)
	b[0].Detected = false
	b[1].Witness = "cells@1 init=0 orders=^"
	b[2].Err = "" // one side errors, the other does not
	diffs := sim.DiffVerdicts(a, b)
	if len(diffs) != 3 {
		t.Fatalf("want 3 diffs, got %d: %v", len(diffs), diffs)
	}
	wantFields := map[string]bool{"detected": true, "witness": true, "error": true}
	for _, d := range diffs {
		if !wantFields[d.Field] {
			t.Errorf("unexpected diff field %q in %s", d.Field, d)
		}
	}

	if diffs := sim.DiffVerdicts(a, a[:2]); len(diffs) != 1 || diffs[0].Field != "count" {
		t.Errorf("length mismatch not reported: %v", diffs)
	}
}

// TestCrossCheckReportDiffsTheReportInHand: CrossCheckReport judges the
// report it is given rather than simulating the test with sim again, so it
// agrees with CrossCheck on sim's own report and sees a verdict doctored in
// that report.
func TestCrossCheckReportDiffsTheReportInHand(t *testing.T) {
	faults := faultlist.List2()
	cfg := sim.DefaultConfig()
	rep := sim.Simulate(march.MarchLF1, faults, cfg)
	if got, want := CrossCheckReport(rep, faults, cfg), CrossCheck(march.MarchLF1, faults, cfg); len(got) != 0 || len(want) != 0 {
		t.Fatalf("CrossCheckReport %v, CrossCheck %v: want agreement", got, want)
	}
	rep.Results = append([]sim.Result(nil), rep.Results...)
	rep.Results[0].Detected = !rep.Results[0].Detected
	diffs := CrossCheckReport(rep, faults, cfg)
	if len(diffs) == 0 || diffs[0].Fault != faults[0].ID() {
		t.Fatalf("doctored verdict of %s not reported: %v", faults[0].ID(), diffs)
	}
}
