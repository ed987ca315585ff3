package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

func mustSimple(t *testing.T, s string) linked.Fault {
	t.Helper()
	f, err := linked.NewSimple(fp.MustParseFP(s))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustDetect(t *testing.T, m march.Test, f linked.Fault, want bool) {
	t.Helper()
	got, witness, err := DetectsFault(m, f, DefaultConfig())
	if err != nil {
		t.Fatalf("%s vs %s: %v", m.Name, f.ID(), err)
	}
	if got != want {
		t.Errorf("%s vs %s: detected=%v, want %v (witness %v)", m.Name, f.ID(), got, want, witness)
	}
	if !got && witness == nil {
		t.Errorf("%s vs %s: undetected fault must carry a witness", m.Name, f.ID())
	}
	if got && witness != nil {
		t.Errorf("%s vs %s: detected fault must not carry a witness", m.Name, f.ID())
	}
}

// A fault whose trigger never fires (a data retention fault when the test
// contains no wait) must never be detected: the good and faulty machines
// stay identical. March G is the one library test with delay phases and
// must detect both retention faults.
func TestInertFaultNeverDetected(t *testing.T) {
	drf0 := mustSimple(t, "<0t/1/->")
	drf1 := mustSimple(t, "<1t/0/->")
	for _, m := range march.Lib() {
		if m.Delays() > 0 {
			mustDetect(t, m, drf0, true)
			mustDetect(t, m, drf1, true)
			continue
		}
		mustDetect(t, m, drf0, false)
		mustDetect(t, m, drf1, false)
	}
}

// MATS+ detects state (stuck-at-like) faults on both polarities.
func TestMATSPlusDetectsStateFaults(t *testing.T) {
	mustDetect(t, march.MATSPlus, mustSimple(t, "<0/1/->"), true)
	mustDetect(t, march.MATSPlus, mustSimple(t, "<1/0/->"), true)
}

// MATS+ detects transition faults but not the destructive read/write family.
func TestMATSPlusLimits(t *testing.T) {
	mustDetect(t, march.MATSPlus, mustSimple(t, "<0w1/0/->"), true)
	// The final ⇓(r1,w0) leaves the down transition unobserved: MATS+
	// famously misses TF↓ (March X adds the trailing ⇕(r0) to fix this).
	mustDetect(t, march.MATSPlus, mustSimple(t, "<1w0/1/->"), false)
	mustDetect(t, march.MarchX, mustSimple(t, "<1w0/1/->"), true)
	mustDetect(t, march.MATSPlus, mustSimple(t, "<0w0/1/->"), false) // WDF needs wx-on-x
	mustDetect(t, march.MATSPlus, mustSimple(t, "<0r0/1/0>"), false) // DRDF needs double read
}

// March C- misses the write destructive fault under adversarial initial
// memory: with the array powered up at 1, no non-transition w0 ever occurs.
func TestMarchCMinusMissesWDF(t *testing.T) {
	mustDetect(t, march.MarchCMinus, mustSimple(t, "<0w0/1/->"), false)
	mustDetect(t, march.MarchCMinus, mustSimple(t, "<1w1/0/->"), false)
}

// The motivating example of Section 3: a disturb coupling fault linked to a
// disturb coupling fault masks itself against classic march tests. March C-
// misses the three-cell configuration of Figure 1 while March SL detects it.
func TestClassicMarchMissesLinkedFault(t *testing.T) {
	f1 := fp.MustParseFP("<0w1;0/1/->")
	f2 := fp.MustParseFP("<0w1;1/0/->")
	lf, err := linked.NewLF3(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	mustDetect(t, march.MarchCMinus, lf, false)
	mustDetect(t, march.MarchSL, lf, true)

	// The corresponding simple fault IS detected by March C-: linking is
	// what defeats it.
	simple, err := linked.NewSimple(f1)
	if err != nil {
		t.Fatal(err)
	}
	mustDetect(t, march.MarchCMinus, simple, true)
}

// The paper's eq. (12) linked fault (same aggressor) and its test-pattern
// semantics.
func TestEq12LinkedFaultDetection(t *testing.T) {
	lf, err := linked.NewLF2aa(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<1w0;1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	mustDetect(t, march.MarchSL, lf, true)
	mustDetect(t, march.MarchABL, lf, true)
	mustDetect(t, march.MarchRABL, lf, true)
}

// Data retention faults are sensitized by the wait operation and detected by
// a retention test, not by an ordinary march.
func TestDataRetention(t *testing.T) {
	drf1 := mustSimple(t, "<1t/0/->")
	retention := march.MustParse("retention", "c(w1) c(t) c(r1)")
	mustDetect(t, retention, drf1, true)
	noWait := march.MustParse("nowait", "c(w1) c(r1)")
	mustDetect(t, noWait, drf1, false)

	drf0 := mustSimple(t, "<0t/1/->")
	retention0 := march.MustParse("retention0", "c(w0) c(t) c(r0)")
	mustDetect(t, retention0, drf0, true)
	mustDetect(t, retention, drf0, false)
}

// A state fault settles immediately: the cell cannot hold the value at all,
// so even the power-up content is corrupted before the first operation.
func TestStateFaultSettlesOnInit(t *testing.T) {
	sf1 := mustSimple(t, "<1/0/->")
	readOnly := march.MustParse("ro", "c(w1) c(r1)")
	mustDetect(t, readOnly, sf1, true)
}

// State coupling faults respect the aggressor condition.
func TestStateCouplingFault(t *testing.T) {
	cfst := mustSimple(t, "<1;0/1/->")
	// Writing the aggressor to 1 while the victim holds 0 corrupts the
	// victim; March SS sees it, a test that never holds (a=1, v=0) does not.
	mustDetect(t, march.MarchSS, cfst, true)
	allSame := march.MustParse("same", "c(w0) c(r0) c(w1) c(r1)")
	mustDetect(t, allSame, cfst, false)
}

// Detection is monotone: appending march elements never removes a detection.
func TestDetectionMonotoneUnderExtension(t *testing.T) {
	base := march.MarchCMinus
	extended := base.Clone()
	extended.Name = "March C- extended"
	extended.Elems = append(extended.Elems, march.MustParse("x", "^(r0,w1,r1,w0)").Elems...)

	faults := []linked.Fault{
		mustSimple(t, "<0w1/0/->"),
		mustSimple(t, "<0r0/1/1>"),
		mustSimple(t, "<0w1;0/1/->"),
		mustSimple(t, "<1;0w1/0/->"),
	}
	lf, err := linked.NewLF1(fp.MustParseFP("<0w1/0/->"), fp.MustParseFP("<0r0/1/1>"))
	if err != nil {
		t.Fatal(err)
	}
	faults = append(faults, lf)

	cfg := DefaultConfig()
	for _, f := range faults {
		baseDet, _, err := DetectsFault(base, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		extDet, _, err := DetectsFault(extended, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if baseDet && !extDet {
			t.Errorf("%s: extension lost detection", f.ID())
		}
	}
}

// The simulator rejects memories too small to place the fault plus a
// bystander cell.
func TestMemoryTooSmall(t *testing.T) {
	lf3, err := linked.NewLF3(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<0w1;1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = DetectsFault(march.MATSPlus, lf3, Config{Size: 3, ExhaustiveOrders: true})
	if err == nil {
		t.Error("3-cell fault on a 3-cell memory must error (no bystander)")
	}
}

func TestOrderCombinations(t *testing.T) {
	two := march.MustParse("two", "c(w0) ^(r0,w1) c(r1)")
	combos, err := orderCombinations(two, Config{ExhaustiveOrders: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 4 {
		t.Fatalf("2 ⇕ elements: %d combinations, want 4", len(combos))
	}
	seen := map[string]bool{}
	for _, c := range combos {
		if c[1] != march.Up {
			t.Error("fixed ⇑ element must stay ⇑")
		}
		key := c[0].ASCII() + c[2].ASCII()
		if seen[key] {
			t.Errorf("duplicate order combination %s", key)
		}
		seen[key] = true
	}

	lazy, err := orderCombinations(two, Config{ExhaustiveOrders: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy) != 1 || lazy[0][0] != march.Up || lazy[0][2] != march.Up {
		t.Errorf("lazy resolution = %v, want all ⇑", lazy)
	}
}

func TestOrderCombinationCap(t *testing.T) {
	elems := ""
	for i := 0; i < 13; i++ {
		elems += "c(w0) "
	}
	big := march.MustParse("big", elems)
	if _, err := orderCombinations(big, Config{ExhaustiveOrders: true}); err == nil {
		t.Error("13 ⇕ elements must exceed the default cap")
	}
	if _, err := orderCombinations(big, Config{ExhaustiveOrders: true, MaxAnyElements: 13}); err != nil {
		t.Errorf("raised cap must allow expansion: %v", err)
	}
}

func TestScenarioString(t *testing.T) {
	s := Scenario{
		Placement: []int{2, 0},
		Init:      []fp.Value{fp.V1, fp.V0},
		Orders:    []march.AddrOrder{march.Up, march.Down},
	}
	if got, want := s.String(), "cells@2,0 init=10 orders=^v"; got != want {
		t.Errorf("Scenario.String() = %q, want %q", got, want)
	}
}

// fanOutProcs are the GOMAXPROCS values the fan-out determinism tests
// compare with the one-P answer.
var fanOutProcs = []int{1, 2, 4, 8}

// setProcs sets GOMAXPROCS to n until the test ends.
func setProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// aboveGate fails the test unless simulating the faults on the schedule is
// work enough to fan out.
func aboveGate(t *testing.T, s *Schedule, faults []linked.Fault) {
	t.Helper()
	if w := s.work(faults); w < minFanOutSteps {
		t.Fatalf("%s over %d faults is %d steps of work, below the fan-out gate %d",
			s.test.Name, len(faults), w, minFanOutSteps)
	}
}

// TestSimulateParallelDeterministic pins Simulate's fan-out to the one-P
// answer: at any GOMAXPROCS the same verdicts and witnesses, in fault-list
// order, over lane and scalar (dynamic) faults alike.
func TestSimulateParallelDeterministic(t *testing.T) {
	faults := append(faultlist.List1(), faultlist.Dynamic()...)
	s, err := NewSchedule(march.MarchSS, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aboveGate(t, s, faults)
	var want []Verdict
	for _, procs := range fanOutProcs {
		setProcs(t, procs)
		got := s.Simulate(faults).Verdicts()
		if procs == 1 {
			for i, v := range got {
				if v.Fault != faults[i].ID() {
					t.Fatalf("result %d is %s, want %s: result order broken", i, v.Fault, faults[i].ID())
				}
			}
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: %v", procs, DiffVerdicts(got, want))
		}
	}
}

// TestSimulateContext pins SimulateContext to Simulate under a live
// context, for every library test on the named lists, and its deadline:
// an expired context returns the context's error and no report, and a
// deadline 2 ms into a size-16 March SS × List #1 run, whose full run takes
// 14–20 ms on a 2.1 GHz Xeon, stops it before the full run's time, measured
// here.
func TestSimulateContext(t *testing.T) {
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for name, faults := range map[string][]linked.Fault{
		"list1": faultlist.List1(), "list2": faultlist.List2(),
		"simple": faultlist.SimpleStatic(), "dynamic": faultlist.Dynamic(),
	} {
		for _, m := range march.Lib() {
			s, err := NewSchedule(m, DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			got, err := s.SimulateContext(live, faults)
			if want := s.Simulate(faults); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s × %s: SimulateContext = %s, %v; Simulate = %s", m.Name, name, got.Summary(), err, want.Summary())
			}
		}
	}

	cfg := DefaultConfig()
	cfg.Size = 16
	s, err := NewSchedule(march.MarchSS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faults := faultlist.List1()
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if r, err := s.SimulateContext(expired, faults); !errors.Is(err, context.DeadlineExceeded) || r.Results != nil {
		t.Fatalf("expired context: %d results, %v; want none and %v", len(r.Results), err, context.DeadlineExceeded)
	}
	start := time.Now()
	s.Simulate(faults)
	full := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = s.SimulateContext(ctx, faults)
	if stopped := time.Since(start); !errors.Is(err, context.DeadlineExceeded) || stopped >= full {
		t.Fatalf("2ms deadline: returned %v after %s, the full run takes %s", err, stopped, full)
	}
}

// TestFanOutGate pins fanOut's one rule through the allocations a fan-out
// makes, a goroutine, its claim counters and a second machine: a call whose
// work is below minFanOutSteps runs on the caller, so it allocates as much
// at GOMAXPROCS 2 as on one P, and a call above it fans out. It counts with
// runtime.ReadMemStats, since testing.AllocsPerRun pins GOMAXPROCS to 1, and
// keeps the fewest of a few runs against the runtime's own allocations.
func TestFanOutGate(t *testing.T) {
	allocs := func(procs int, fn func()) uint64 {
		setProcs(t, procs)
		fewest := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	cfg := DefaultConfig()
	for _, c := range []struct {
		name    string
		test    march.Test
		faults  []linked.Fault
		build   bool // a checkpoint build rather than Simulate
		fansOut bool
	}{
		{"March LF1 × List #2 Simulate", march.MarchLF1, faultlist.List2(), false, false},
		{"March SL × List #1 Simulate", march.MarchSL, faultlist.List1(), false, true},
		{"March SL × List #1 checkpoint build", march.MarchSL, faultlist.List1(), true, true},
	} {
		s, err := NewSchedule(c.test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.work(c.faults) >= minFanOutSteps; got != c.fansOut {
			t.Fatalf("%s: %d steps of work, above the gate %t, want %t", c.name, s.work(c.faults), got, c.fansOut)
		}
		run := func() {
			// A fresh schedule each run, so a fan-out's second machine is
			// never a pooled one.
			s, err := NewSchedule(c.test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.build {
				_, err = s.Checkpoint(c.faults)
			} else {
				err = s.Simulate(c.faults).Err()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		one, two := allocs(1, run), allocs(2, run)
		if c.fansOut && two <= one {
			t.Errorf("%s: %d allocations at GOMAXPROCS 2, %d on one P: no fan-out above the gate", c.name, two, one)
		}
		if !c.fansOut && two != one {
			t.Errorf("%s: %d allocations at GOMAXPROCS 2, %d on one P: a fan-out below the gate", c.name, two, one)
		}
	}
}

func TestReportAccessors(t *testing.T) {
	faults := []linked.Fault{
		mustSimple(t, "<0w1/0/->"), // detected by MATS+
		mustSimple(t, "<0w0/1/->"), // missed by MATS+
	}
	r := Simulate(march.MATSPlus, faults, DefaultConfig())
	if r.Total() != 2 || r.Detected() != 1 {
		t.Fatalf("detected %d/%d, want 1/2", r.Detected(), r.Total())
	}
	if r.Full() {
		t.Error("partial coverage must not report Full")
	}
	if got := r.Coverage(); got != 50 {
		t.Errorf("Coverage = %v, want 50", got)
	}
	missed := r.Missed()
	if len(missed) != 1 || missed[0].Fault.ID() != faults[1].ID() {
		t.Errorf("Missed = %v", missed)
	}
	if err := r.Err(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	if (Report{}).Coverage() != 0 {
		t.Error("empty report must have 0 coverage")
	}
	// An empty fault list is vacuously covered, matching FullCoverage.
	if !(Report{}).Full() {
		t.Error("empty report must be vacuously Full")
	}
	byKind := r.ByKind()
	if len(byKind) != 1 || byKind[0].Total != 2 || byKind[0].Detected != 1 {
		t.Errorf("ByKind = %v", byKind)
	}
	if byKind[0].String() != "Simple 1/2" {
		t.Errorf("KindCoverage.String() = %q", byKind[0].String())
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestReportErrPropagates(t *testing.T) {
	lf3, err := linked.NewLF3(fp.MustParseFP("<0w1;0/1/->"), fp.MustParseFP("<0w1;1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	r := Simulate(march.MATSPlus, []linked.Fault{lf3}, Config{Size: 3})
	if r.Err() == nil {
		t.Error("report must surface simulation errors")
	}
}

// Reads always carry the good machine's value on the fault-free side: a
// consistent march never "detects" anything on a fault that cannot trigger,
// for all library tests (guards against false positives in the simulator).
func TestNoFalsePositives(t *testing.T) {
	impossible := mustSimple(t, "<0t/1/->") // only delay-bearing tests can fire it
	for _, m := range march.Lib() {
		if m.Delays() > 0 {
			continue
		}
		det, _, err := DetectsFault(m, impossible, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if det {
			t.Errorf("%s: false positive detection", m.Name)
		}
	}
}
