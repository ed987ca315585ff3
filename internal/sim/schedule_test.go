package sim

import (
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// referenceDetects is the uncompiled reference implementation of
// DetectsFault: the naive scenario enumeration (forEachScenario) driving the
// two-memory lockstep machine (machine.run). The compiled schedule must
// reproduce its verdicts — and witnesses — bit for bit.
func referenceDetects(t march.Test, f linked.Fault, cfg Config) (bool, *Scenario, error) {
	m := newMachine(cfg.size())
	detected := true
	var witness *Scenario
	err := forEachScenario(t, f, cfg, func(sc Scenario) bool {
		if !m.run(t, f, sc, cfg.size()) {
			detected = false
			witness = cloneScenario(sc)
			return false
		}
		return true
	})
	if err != nil {
		return false, nil, err
	}
	return detected, witness, nil
}

func assertSameOutcome(t *testing.T, label string, refDet, schedDet bool, refWit, schedWit *Scenario, refErr, schedErr error) {
	t.Helper()
	if (refErr != nil) != (schedErr != nil) {
		t.Fatalf("%s: reference err=%v, schedule err=%v", label, refErr, schedErr)
	}
	if refErr != nil {
		return
	}
	if refDet != schedDet {
		t.Fatalf("%s: reference detected=%v, schedule detected=%v", label, refDet, schedDet)
	}
	if (refWit == nil) != (schedWit == nil) {
		t.Fatalf("%s: reference witness=%v, schedule witness=%v", label, refWit, schedWit)
	}
	if refWit != nil && refWit.String() != schedWit.String() {
		t.Fatalf("%s: witness mismatch:\n  reference: %s\n  schedule:  %s", label, refWit, schedWit)
	}
}

// TestScheduleMatchesReference pins the tentpole's correctness contract:
// for every library march test and every shipped fault list, the compiled
// schedule produces the same verdict and the same witness scenario as the
// uncompiled reference path, under both the exhaustive and the lazy order
// configurations.
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
		cfg  Config
	}{
		{"exhaustive", DefaultConfig()},
		{"lazy", Config{Size: 4}},
		{"size5", Config{Size: 5, ExhaustiveOrders: true}},
		{"scalar", Config{Size: 4, ExhaustiveOrders: true, scalar: true}},
	}
	for _, lc := range lists {
		for _, cc := range configs {
			if !lc.short && (testing.Short() || cc.name == "size5") {
				continue // List1 × full library is the expensive cell; cover it once
			}
			t.Run(lc.name+"/"+cc.name, func(t *testing.T) {
				for _, mt := range march.Lib() {
					sched, err := NewSchedule(mt, cc.cfg)
					if err != nil {
						t.Fatalf("%s: NewSchedule: %v", mt.Name, err)
					}
					for _, f := range lc.faults {
						refDet, refWit, refErr := referenceDetects(mt, f, cc.cfg)
						schedDet, schedWit, schedErr := sched.DetectsFault(f)
						assertSameOutcome(t, fmt.Sprintf("%s vs %s", mt.Name, f.ID()),
							refDet, schedDet, refWit, schedWit, refErr, schedErr)
					}
				}
			})
		}
	}
}

// TestScheduleScenarioCount checks ScenarioCount against the reference
// enumeration's actual cardinality.
func TestScheduleScenarioCount(t *testing.T) {
	cfg := DefaultConfig()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		sched, err := NewSchedule(mt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faultlist.List2() {
			want := 0
			if err := forEachScenario(mt, f, cfg, func(Scenario) bool { want++; return true }); err != nil {
				t.Fatal(err)
			}
			got, err := sched.ScenarioCount(f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s vs %s: ScenarioCount=%d, reference enumerates %d", mt.Name, f.ID(), got, want)
			}
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
// simulate (it used to panic with an index out of range), and the compiled
// path must agree with the reference path on it.
func TestManyBindingsNoPanic(t *testing.T) {
	f := manyBindingsFault()
	cfg := DefaultConfig()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		refDet, refWit, refErr := referenceDetects(mt, f, cfg)
		schedDet, schedWit, schedErr := DetectsFault(mt, f, cfg)
		assertSameOutcome(t, mt.Name+" vs many-bindings fault",
			refDet, schedDet, refWit, schedWit, refErr, schedErr)
	}
}

// TestFullCoverageDeterministic pins the parallel scan's contract: whatever
// Config.Workers is, the reported miss is the one the sequential fault-list
// scan hits first.
func TestFullCoverageDeterministic(t *testing.T) {
	faults := faultlist.List1()
	test := march.MarchSS // misses part of List1, so there is a miss to race for

	seqCfg := DefaultConfig()
	seqCfg.Workers = 1
	full, seqMiss, err := FullCoverage(test, faults, seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	if full || seqMiss == nil {
		t.Fatalf("%s unexpectedly covers List1", test.Name)
	}

	for _, workers := range []int{2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		for rep := 0; rep < 3; rep++ {
			full, miss, err := FullCoverage(test, faults, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if full || miss == nil {
				t.Fatalf("workers=%d rep=%d: got full coverage, want miss", workers, rep)
			}
			if miss.ID() != seqMiss.ID() {
				t.Fatalf("workers=%d rep=%d: missed %s, sequential scan misses %s first",
					workers, rep, miss.ID(), seqMiss.ID())
			}
		}
	}
}

// TestEmptyFaultList pins the aligned empty-list semantics: FullCoverage is
// vacuously true, Simulate returns an empty report, and that report counts
// as Full — the three agree that no fault escapes an empty list.
func TestEmptyFaultList(t *testing.T) {
	cfg := DefaultConfig()
	full, miss, err := FullCoverage(march.MarchSL, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !full || miss != nil {
		t.Fatalf("FullCoverage(empty) = (%v, %v), want (true, nil)", full, miss)
	}
	r := Simulate(march.MarchSL, nil, cfg)
	if r.Total() != 0 || r.Err() != nil {
		t.Fatalf("Simulate(empty) returned %d results, err %v", r.Total(), r.Err())
	}
	if !r.Full() {
		t.Fatal("Simulate(empty).Full() = false, want vacuous true")
	}
}

// TestSimulateMatchesDetectsFault checks the worker fan-out returns the same
// per-fault outcomes as one-at-a-time calls, in fault-list order.
func TestSimulateMatchesDetectsFault(t *testing.T) {
	faults := faultlist.List2()
	cfg := DefaultConfig()
	cfg.Workers = 4
	r := Simulate(march.MarchABL1, faults, cfg)
	if got := r.Total(); got != len(faults) {
		t.Fatalf("Total() = %d, want %d", got, len(faults))
	}
	for i, res := range r.Results {
		if res.Fault.ID() != faults[i].ID() {
			t.Fatalf("result %d is %s, want %s (order must match the list)", i, res.Fault.ID(), faults[i].ID())
		}
		det, wit, err := DetectsFault(march.MarchABL1, faults[i], cfg)
		if err != nil || res.Err != nil {
			t.Fatalf("unexpected error: %v / %v", err, res.Err)
		}
		if det != res.Detected {
			t.Fatalf("fault %s: Simulate says %v, DetectsFault says %v", faults[i].ID(), res.Detected, det)
		}
		if (wit == nil) != (res.Witness == nil) || (wit != nil && wit.String() != res.Witness.String()) {
			t.Fatalf("fault %s: witness mismatch", faults[i].ID())
		}
	}
}

// TestFailingReads: the syndrome run goes past the first detection — a
// state fault pulling cell 1 from 0 to 1 fails every r0 March C− applies
// there — and refuses every scenario the simulator cannot place.
func TestFailingReads(t *testing.T) {
	sf, err := linked.NewSimple(fp.MustParseFP("<0/1/->"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSchedule(march.MarchCMinus, Config{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	record := func(elem, opIdx, addr int) { got = append(got, fmt.Sprintf("M%d#%d@%d", elem, opIdx, addr)) }
	if err := s.FailingReads(sf, []int{1}, []fp.Value{fp.V0}, record); err != nil {
		t.Fatal(err)
	}
	if want := "[M1#0@1 M3#0@1 M5#0@1]"; fmt.Sprint(got) != want {
		t.Fatalf("failing reads %v, want %s", got, want)
	}

	tiny, err := NewSchedule(march.MarchCMinus, Config{Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name      string
		s         *Schedule
		placement []int
		init      []fp.Value
	}{
		{"placement arity", s, []int{0, 1}, []fp.Value{fp.V0}},
		{"init arity", s, []int{1}, nil},
		{"address outside the memory", s, []int{4}, []fp.Value{fp.V0}},
		{"no bystander", tiny, []int{0}, []fp.Value{fp.V0}},
	} {
		if err := bad.s.FailingReads(sf, bad.placement, bad.init, record); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
}
