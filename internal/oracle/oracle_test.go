package oracle

import (
	"strings"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

func mustSimple(t *testing.T, spec string) linked.Fault {
	t.Helper()
	p, err := fp.ParseFP(spec)
	if err != nil {
		t.Fatalf("fp.ParseFP(%q): %v", spec, err)
	}
	f, err := linked.NewSimple(p)
	if err != nil {
		t.Fatalf("NewSimple(%q): %v", spec, err)
	}
	return f
}

func mustParse(t *testing.T, name, spec string) march.Test {
	t.Helper()
	mt, err := march.Parse(name, spec)
	if err != nil {
		t.Fatalf("march.Parse(%q): %v", spec, err)
	}
	return mt
}

// TestDetectsKnownVerdicts pins the oracle against hand-derived verdicts
// that do not come from internal/sim: literature facts small enough to
// check on paper.
func TestDetectsKnownVerdicts(t *testing.T) {
	cfg := DefaultConfig()
	sf := mustSimple(t, "<1/0/->")
	rdf := mustSimple(t, "<0r0/1/1>")
	drdf := mustSimple(t, "<0r0/1/0>")

	cases := []struct {
		test  march.Test
		fault linked.Fault
		want  bool
	}{
		// MATS+ reads every cell in both states: it detects the stuck-at.
		{march.MATSPlus, sf, true},
		// MATS+ reads each state only once, so the deceptive read (returns
		// the right value, then corrupts) escapes it...
		{march.MATSPlus, drdf, false},
		// ...while the double reads of March SS catch it.
		{march.MarchSS, drdf, true},
		// A single read suffices for the plain read-destructive fault.
		{march.MATSPlus, rdf, true},
	}
	for _, c := range cases {
		got, witness, err := Detects(c.test, c.fault, cfg)
		if err != nil {
			t.Fatalf("Detects(%s, %s): %v", c.test.Name, c.fault.ID(), err)
		}
		if got != c.want {
			t.Errorf("Detects(%s, %s) = %t, want %t (witness %v)", c.test.Name, c.fault.ID(), got, c.want, witness)
		}
	}
}

// TestLinkedMasking checks the masking behavior that motivates linked-fault
// testing (paper Section 3): FP2 can cancel FP1's corruption before a read
// observes it. The pair TF<0w1/0/-> → RDF<0r0/1/1>: the transition fault
// leaves the cell at 0 after w1; a subsequent read of the (expected 1) cell
// triggers the read-destructive primitive, returns 1 — the fault-free value
// — and restores the cell to 1. A test whose only observation after w1 is
// that single read never sees the fault.
func TestLinkedMasking(t *testing.T) {
	fp1, err := fp.ParseFP("<0w1/0/->")
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := fp.ParseFP("<0r0/1/1>")
	if err != nil {
		t.Fatal(err)
	}
	lf, err := linked.NewLF1(fp1, fp2)
	if err != nil {
		t.Fatalf("NewLF1: %v", err)
	}
	cfg := DefaultConfig()

	masked := mustParse(t, "masked", "c(w0) ^(w1,r1)")
	if det, _, err := Detects(masked, lf, cfg); err != nil || det {
		t.Fatalf("masked test: det=%t err=%v, want undetected (FP2 restores before the read)", det, err)
	}
	if det, _, err := Detects(march.MarchSS, lf, cfg); err != nil || !det {
		t.Fatalf("March SS: det=%t err=%v, want detected", det, err)
	}
}

// TestWitnessIsFirstInReferenceOrder pins the reference enumeration order
// of witnesses: placements ascending depth-first, then initial values, then
// ⇕ combinations. The stuck-at-0 fault under a test that never reads:
// every scenario misses, so the witness must be the very first one.
func TestWitnessIsFirstInReferenceOrder(t *testing.T) {
	blind := mustParse(t, "blind", "c(w0) c(w1)")
	sf := mustSimple(t, "<1/0/->")
	det, w, err := Detects(blind, sf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Fatal("a test without reads cannot detect anything")
	}
	if got, want := w.String(), "cells@0 init=0 orders=^^"; got != want {
		t.Errorf("witness = %q, want %q", got, want)
	}
}

// TestErrorPaths: the oracle must reject what it cannot faithfully
// simulate, with errors where internal/sim errors too.
func TestErrorPaths(t *testing.T) {
	cfg := DefaultConfig()
	threeCell, ok := faultlist.ByName("list1")
	if !ok {
		t.Fatal("list1 missing")
	}
	var lf3 linked.Fault
	for _, f := range threeCell {
		if f.Cells == 3 {
			lf3 = f
			break
		}
	}
	if lf3.Cells != 3 {
		t.Fatal("list1 has no 3-cell fault")
	}
	if _, _, err := Detects(march.MATSPlus, lf3, Config{Size: 3, ExhaustiveOrders: true}); err == nil {
		t.Error("placing a 3-cell fault in a 3-cell memory must fail (no bystander)")
	}

	manyAny := mustParse(t, "many-any", strings.TrimSpace(strings.Repeat("c(w0) ", 13)))
	sf := mustSimple(t, "<1/0/->")
	if _, _, err := Detects(manyAny, sf, cfg); err == nil || !strings.Contains(err.Error(), "capped") {
		t.Errorf("13 ⇕ elements must exceed the expansion cap, got err=%v", err)
	}
}

// A hand-built fault can bind a cell index outside its cells (Validate
// would reject it, but nothing forces a caller to run Validate). The oracle
// must refuse it with an error on every entry point, as internal/sim does,
// so CrossCheck sees two errors and reports agreement.
func TestOutOfRangeBindingIsAnError(t *testing.T) {
	f := mustSimple(t, "<0;0w1/0/->")
	aggressor := f
	aggressor.FPs = append([]linked.Binding(nil), f.FPs...)
	aggressor.FPs[0].A = f.Cells
	victim := f
	victim.FPs = append([]linked.Binding(nil), f.FPs...)
	victim.FPs[0].V = -1
	for name, bad := range map[string]linked.Fault{"aggressor": aggressor, "victim": victim} {
		if _, _, err := Detects(march.MarchSL, bad, DefaultConfig()); err == nil {
			t.Errorf("%s: Detects accepted an out-of-range binding", name)
		}
		s := Scenario{Placement: []int{0, 1}, Init: []fp.Value{fp.V0, fp.V0}, Orders: make([]march.AddrOrder, len(march.MarchSL.Elems))}
		for i := range s.Orders {
			s.Orders[i] = march.Up
		}
		if err := FailingReads(march.MarchSL, bad, s, DefaultConfig(), func(int, int, int) {}); err == nil {
			t.Errorf("%s: FailingReads accepted an out-of-range binding", name)
		}
		if diffs := CrossCheck(march.MarchSL, []linked.Fault{bad}, sim.DefaultConfig()); len(diffs) != 0 {
			t.Errorf("%s: CrossCheck reports %v, want agreement (both sides error)", name, diffs)
		}
	}
}

// TestRandomTestsAreConsistentAndDeterministic: every generated stream
// passes the march validity and consistency checks, and the generator is a
// pure function of its seed.
func TestRandomTestsAreConsistentAndDeterministic(t *testing.T) {
	a := RandomTests(42, 50)
	b := RandomTests(42, 50)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("want 50 tests, got %d and %d", len(a), len(b))
	}
	for i, mt := range a {
		if err := mt.CheckConsistency(); err != nil {
			t.Errorf("random test %d inconsistent: %v", i, err)
		}
		if !mt.Equal(b[i]) {
			t.Errorf("random test %d not deterministic: %s vs %s", i, mt.ASCII(), b[i].ASCII())
		}
	}
	c := RandomTests(43, 50)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

// TestMetamorphicPropertiesHold: the invariant suite must pass for library
// tests against the shipped lists (any violation would mean a semantics
// bug in the oracle — or a wrong property).
func TestMetamorphicPropertiesHold(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range []string{"simple", "list2", "dynamic2"} {
		faults, ok := faultlist.ByName(name)
		if !ok {
			t.Fatalf("list %q missing", name)
		}
		for _, mt := range []march.Test{march.MATSPlus, march.MarchSS, march.MarchABL1} {
			violations, err := CheckProperties(mt, faults, cfg)
			if err != nil {
				t.Fatalf("CheckProperties(%s, %s): %v", mt.Name, name, err)
			}
			for _, v := range violations {
				t.Errorf("%s vs %s: %s", mt.Name, name, v)
			}
		}
	}
}

// TestMetamorphicEngineSeesViolations: feed the engine a semantics we know
// breaks an invariant — a non-complement-closed verdict is impossible to
// fake without a second simulator, so instead check the transform helpers
// directly: the complement of the complement is the original, the mirror of
// the mirror is the original, and redundant-read variants stay consistent.
func TestMetamorphicEngineSeesViolations(t *testing.T) {
	for _, mt := range march.Lib() {
		mm := MirrorTest(MirrorTest(mt))
		mm.Name = mt.Name
		if !mm.Equal(mt) {
			t.Errorf("mirror∘mirror != id for %s", mt.Name)
		}
		cc := ComplementTest(ComplementTest(mt))
		cc.Name = mt.Name
		if !cc.Equal(mt) {
			t.Errorf("complement∘complement != id for %s", mt.Name)
		}
		for _, v := range RedundantReadVariants(mt) {
			if err := v.CheckConsistency(); err != nil {
				t.Errorf("redundant-read variant %s inconsistent: %v", v.Name, err)
			}
			if v.Length() != mt.Length()+1 {
				t.Errorf("variant %s length %d, want %d", v.Name, v.Length(), mt.Length()+1)
			}
		}
	}
	faults, _ := faultlist.ByName("simple")
	for _, f := range faults {
		cf := ComplementFault(ComplementFault(f))
		if cf.ID() != f.ID() {
			t.Errorf("complement∘complement != id for fault %s (got %s)", f.ID(), cf.ID())
		}
		if err := ComplementFault(f).Validate(); err != nil {
			t.Errorf("complement of %s invalid: %v", f.ID(), err)
		}
	}
}
