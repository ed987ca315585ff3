package sim

import (
	"fmt"
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// assertSameOutcome compares two simulations of one (test, fault) pair:
// error presence, verdict and witness scenario.
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

// TestScheduleScenarioCount checks ScenarioCount against a brute-force
// count: every tuple of fault-cell addresses whose entries are distinct,
// times the initial values, times the order combinations.
func TestScheduleScenarioCount(t *testing.T) {
	cfg := DefaultConfig()
	for _, mt := range []march.Test{march.MATSPlus, march.MarchSL, march.MarchRAW} {
		sched, err := NewSchedule(mt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		combos, err := orderCombinations(mt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faultlist.List2() {
			placements := 0
			tuples := 1
			for c := 0; c < f.Cells; c++ {
				tuples *= cfg.Size
			}
			for code := 0; code < tuples; code++ {
				seen := map[int]bool{}
				for c, rest := 0, code; c < f.Cells; c, rest = c+1, rest/cfg.Size {
					seen[rest%cfg.Size] = true
				}
				if len(seen) == f.Cells {
					placements++
				}
			}
			want := placements << f.Cells * len(combos)
			got, err := sched.ScenarioCount(f)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s vs %s: ScenarioCount=%d, brute force counts %d", mt.Name, f.ID(), got, want)
			}
		}
	}
}

// TestFullCoverageDeterministic pins the from-scratch coverage scan's
// contract: Covers on a checkpoint of the empty test resumes the whole test
// from boundary 0, and at any GOMAXPROCS it ends where the sequential
// fault-list scan does, at the same first miss. A fault that fails to
// simulate, right before or right after that miss, fails the build of the
// test's checkpoint with its own error at any GOMAXPROCS.
func TestFullCoverageDeterministic(t *testing.T) {
	list := faultlist.List1()
	test := march.MarchSS // misses part of List1, so there is a miss to race for

	schedule := func(mt march.Test) *Schedule {
		s, err := NewSchedule(mt, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	empty, sched := schedule(march.Test{Name: "empty"}), schedule(test)
	aboveGate(t, sched, list) // the resume from boundary 0 walks all of test
	cp, err := empty.Checkpoint(list)
	if err != nil {
		t.Fatal(err)
	}
	full, first, err := cp.Covers(test)
	if err != nil {
		t.Fatal(err)
	}
	if full {
		t.Fatalf("%s unexpectedly covers List1", test.Name)
	}

	bad := faultlist.List2()[0] // victim index out of range: an error, not a verdict
	bad.FPs = append([]linked.Binding(nil), bad.FPs...)
	bad.FPs[0].V = bad.Cells
	wantErr := validateBindings(bad)
	for _, procs := range fanOutProcs {
		setProcs(t, procs)
		for rep := 0; rep < 3; rep++ {
			cp, err := empty.Checkpoint(list)
			if err != nil {
				t.Fatal(err)
			}
			full, miss, err := cp.Covers(test)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d rep=%d: %v", procs, rep, err)
			}
			if full || miss != first {
				t.Fatalf("GOMAXPROCS %d rep=%d: got (%v, %d), the sequential scan misses faults[%d] (%s) first",
					procs, rep, full, miss, first, list[first].ID())
			}
			for _, c := range []struct {
				name string
				at   int
			}{{"error before the first miss", first}, {"error after the first miss", first + 1}} {
				_, err := sched.Checkpoint(slices.Insert(slices.Clone(list), c.at, bad))
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s GOMAXPROCS %d rep=%d: got %v, want the bad fault's error %q",
						c.name, procs, rep, err, wantErr)
				}
			}
		}
	}
}

// TestEmptyFaultList pins the aligned empty-list semantics: a checkpoint of
// no faults covers every test, Simulate returns an empty report, and that
// report counts as Full — they agree that no fault escapes an empty list.
func TestEmptyFaultList(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewSchedule(march.MarchSL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, test := range []march.Test{march.MarchSL, march.MarchSS, {Name: "empty"}} {
		full, first, err := cp.Covers(test)
		if err != nil || !full || first != 0 {
			t.Fatalf("Covers(%s) over no faults = (%v, %d, %v), want (true, 0, nil)", test.Name, full, first, err)
		}
	}
	r := Simulate(march.MarchSL, nil, cfg)
	if r.Total() != 0 || r.Err() != nil {
		t.Fatalf("Simulate(empty) returned %d results, err %v", r.Total(), r.Err())
	}
	if !r.Full() {
		t.Fatal("Simulate(empty).Full() = false, want vacuous true")
	}
}

// TestSimulateMatchesDetectsFault checks Simulate returns the same per-fault
// outcomes as one-at-a-time calls, in fault-list order.
func TestSimulateMatchesDetectsFault(t *testing.T) {
	faults := faultlist.List2()
	cfg := DefaultConfig()
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
// there — and refuses every scenario DetectsFault would never enumerate.
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
	cfst, err := linked.NewSimple(fp.MustParseFP("<0;0/1/->"))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name      string
		s         *Schedule
		f         linked.Fault
		placement []int
		init      []fp.Value
	}{
		{"placement arity", s, sf, []int{0, 1}, []fp.Value{fp.V0}},
		{"init arity", s, sf, []int{1}, nil},
		{"address outside the memory", s, sf, []int{4}, []fp.Value{fp.V0}},
		{"negative address", s, sf, []int{-1}, []fp.Value{fp.V0}},
		{"no bystander", tiny, sf, []int{0}, []fp.Value{fp.V0}},
		{"duplicate addresses", s, cfst, []int{1, 1}, []fp.Value{fp.V0, fp.V0}},
		{"non-binary initial value", s, sf, []int{1}, []fp.Value{fp.VX}},
	} {
		if err := bad.s.FailingReads(bad.f, bad.placement, bad.init, record); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
}
