package sim_test

import (
	"fmt"
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// The tests in this file pin the simulator to internal/oracle, the
// independent reference (DESIGN.md §11): this package's one implementation
// of the fault semantics — verdicts, witnesses, traces — against the oracle's
// Mealy automaton. They live in package sim_test because the oracle imports
// sim; export_test.go lends them the unexported pieces they need.

// assertMatchesOracle checks one (test, fault, configuration) triple: the
// compiled schedule must return the oracle's verdict and witness scenario,
// or fail where the oracle fails.
func assertMatchesOracle(t *testing.T, label string, sched *sim.Schedule, f linked.Fault) {
	t.Helper()
	det, wit, err := sched.DetectsFault(f)
	got := sim.Result{Fault: f, Detected: det, Witness: wit, Err: err}.Verdict()
	oDet, oWit, oErr := oracle.Detects(sched.Test(), f, oracle.ConfigFromSim(sched.Config()))
	want := oracle.Result{Fault: f, Detected: oDet, Witness: oWit, Err: oErr}.Verdict()
	for _, d := range sim.DiffVerdicts([]sim.Verdict{got}, []sim.Verdict{want}) {
		t.Fatalf("%s: schedule and oracle diverge: %s", label, d)
	}
}

func mustSchedule(t *testing.T, mt march.Test, cfg sim.Config) *sim.Schedule {
	t.Helper()
	sched, err := sim.NewSchedule(mt, cfg)
	if err != nil {
		t.Fatalf("%s: NewSchedule: %v", mt.Name, err)
	}
	return sched
}

// TestScheduleMatchesReference pins the compiled schedule to the oracle:
// for every library march test and every shipped fault list, the same
// verdict and the same witness scenario under the exhaustive and the lazy
// order configurations, at 4 and 5 cells, and with the lane engine off.
func TestScheduleMatchesReference(t *testing.T) {
	lists := []struct {
		name   string
		faults []linked.Fault
		short  bool // run even with -short
	}{
		{"List2", faultlist.List2(), true},
		{"SimpleStatic", faultlist.SimpleStatic(), true},
		{"Dynamic", faultlist.Dynamic(), true},
		{"List1", faultlist.List1(), false},
	}
	configs := []struct {
		name string
		cfg  sim.Config
	}{
		{"exhaustive", sim.DefaultConfig()},
		{"lazy", sim.Config{Size: 4}},
		{"size5", sim.Config{Size: 5, ExhaustiveOrders: true}},
		{"scalar", sim.ForceScalar(sim.DefaultConfig())},
	}
	for _, lc := range lists {
		for _, cc := range configs {
			if !lc.short && (testing.Short() || cc.name == "size5") {
				continue // List1 × full library is the expensive cell; cover it once
			}
			t.Run(lc.name+"/"+cc.name, func(t *testing.T) {
				for _, mt := range march.Lib() {
					sched := mustSchedule(t, mt, cc.cfg)
					for _, f := range lc.faults {
						assertMatchesOracle(t, fmt.Sprintf("%s vs %s", mt.Name, f.ID()), sched, f)
					}
				}
			})
		}
	}
}

// manyBindingsFault builds a hand-made single-cell fault with six bound
// primitives — more than any taxonomy fault (and more than the fixed-size
// scratch arrays the simulator used to carry). It deliberately bypasses
// Validate: the simulator must size its buffers from the fault, not from an
// assumed maximum.
func manyBindingsFault() linked.Fault {
	fps := []string{
		"<0w1/1/->",   // TF up
		"<1w0/0/->",   // TF down ... kept harmless: F equals the written value
		"<0r0/0/1>",   // IRF-style misread
		"<1r1/1/0>",   // IRF-style misread, other polarity
		"<0w1r1/0/0>", // dynamic write-read pair
		"<1/0/->",     // state fault
	}
	f := linked.Fault{Kind: linked.Simple, Cells: 1}
	for _, s := range fps {
		f.FPs = append(f.FPs, linked.Binding{FP: fp.MustParseFP(s), A: -1, V: 0})
	}
	return f
}

// TestManyBindingsNoPanic is the regression test for the fixed-size
// armed/matched arrays: a fault binding more than four primitives must
// simulate (it used to panic with an index out of range), and agree with
// the oracle on it.
func TestManyBindingsNoPanic(t *testing.T) {
	f := manyBindingsFault()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		assertMatchesOracle(t, mt.Name+" vs many-bindings fault", mustSchedule(t, mt, sim.DefaultConfig()), f)
	}
}

// TestNoAggressorStateConditionInert pins the settleCtx/waitCtx guard: a
// hand-built two-cell primitive bound without an aggressor but carrying a
// binary aggressor condition can never be sensitized (the condition is
// compared against VX). Both engines must agree with the oracle instead of
// indexing faulty[-1].
func TestNoAggressorStateConditionInert(t *testing.T) {
	faults := []linked.Fault{
		// State-triggered (exercises the settleCtx guard).
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0/1/->"), A: -1, V: 0},
		}},
		// Wait-sensitized (exercises the waitCtx guard; March RAW has no t
		// ops, so pair it with a test that would run waitCtx if any did).
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0t/1/->"), A: -1, V: 0},
		}},
		// Op-triggered, for completeness of the inert-binding handling.
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<1;0w1/0/->"), A: -1, V: 0},
		}},
	}
	for _, cfg := range []sim.Config{sim.DefaultConfig(), sim.ForceScalar(sim.DefaultConfig())} {
		for _, mt := range []march.Test{march.MATSPlus, march.MarchSL} {
			sched := mustSchedule(t, mt, cfg)
			for _, f := range faults {
				assertMatchesOracle(t, fmt.Sprintf("%s vs inert %s (%+v)", mt.Name, f.ID(), cfg), sched, f)
			}
		}
	}
}

// TestFourCellFaultUncached is the boundary test for the class-table bound:
// a 4-cell static fault must degrade to the uncached per-placement path (its
// ranks would not fit the class table) and still agree with the oracle —
// instead of silently corrupting the memoization like an unchecked 64-entry
// array would.
func TestFourCellFaultUncached(t *testing.T) {
	f := sim.FourCellFault()
	if sim.CanClassCache(f) {
		t.Fatalf("canClassCache accepted a %d-cell fault", f.Cells)
	}
	for _, cfg := range []sim.Config{
		{Size: 5, ExhaustiveOrders: true},
		sim.ForceScalar(sim.Config{Size: 6, ExhaustiveOrders: true}),
	} {
		for _, mt := range []march.Test{march.MATSPlus, march.MarchLF1} {
			assertMatchesOracle(t, fmt.Sprintf("%s vs 4-cell fault (size=%d)", mt.Name, cfg.Size), mustSchedule(t, mt, cfg), f)
		}
	}
}

// placements returns every injective placement of k fault cells on a
// memory of size cells, in ascending depth-first order.
func placements(k, size int) [][]int {
	if k == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, pl := range placements(k-1, size) {
		for a := 0; a < size; a++ {
			if !slices.Contains(pl, a) {
				out = append(out, append(slices.Clip(pl), a))
			}
		}
	}
	return out
}

// TestTraceAgreesWithSimulator pins TraceScenario to the oracle: for every
// library test, every List #2 and dynamic fault and the eq. (12) linked
// fault (without -short, the simple faults too), in every placement and
// initial background on 4 cells, with ⇕ run upward (without -short,
// downward too), the steps the trace marks detected are exactly the
// oracle's failing reads, and the trace detects iff there are any. Driving
// runSteps one step at a time must carry the armed back-to-back sequences
// of the dynamic faults across steps.
func TestTraceAgreesWithSimulator(t *testing.T) {
	lf, err := linked.NewLF2aa(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<1w0;1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	faults := append(faultlist.List2(), lf)
	faults = append(faults, faultlist.Dynamic()...)
	anyOrders := []march.AddrOrder{march.Up}
	if !testing.Short() {
		faults = append(faults, faultlist.SimpleStatic()...)
		anyOrders = append(anyOrders, march.Down)
	}
	cfg := sim.DefaultConfig()
	traces := 0
	for _, mt := range march.Lib() {
		for _, anyOrder := range anyOrders {
			orders := make([]march.AddrOrder, len(mt.Elems))
			for i, e := range mt.Elems {
				orders[i] = e.Order
				if orders[i] == march.Any {
					orders[i] = anyOrder
				}
			}
			for _, f := range faults {
				for _, pl := range placements(f.Cells, cfg.Size) {
					for bits := 0; bits < 1<<f.Cells; bits++ {
						init := make([]fp.Value, f.Cells)
						for c := range init {
							init[c] = fp.ValueOf(uint8(bits>>c) & 1)
						}
						s := sim.Scenario{Placement: pl, Init: init, Orders: orders}
						tr, err := sim.TraceScenario(mt, f, s, cfg)
						if err != nil {
							t.Fatal(err)
						}
						var got, want []string
						for _, st := range tr.Steps {
							if st.Detected {
								got = append(got, fmt.Sprintf("M%d#%d@%d", st.Element, st.OpIndex, st.Addr))
							}
						}
						err = oracle.FailingReads(mt, f, oracle.Scenario(s), oracle.ConfigFromSim(cfg), func(elem, opIdx, addr int) {
							want = append(want, fmt.Sprintf("M%d#%d@%d", elem, opIdx, addr))
						})
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) || tr.Detected != (len(want) > 0) {
							t.Fatalf("%s vs %s at %s: trace detected=%v at %v, oracle fails %v",
								mt.Name, f.ID(), s, tr.Detected, got, want)
						}
						traces++
					}
				}
			}
		}
	}
	t.Logf("%d traces agree", traces)
}
