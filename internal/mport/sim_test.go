package mport

import (
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// MustParseSingle returns MATS+ as a single-port march for lifting tests.
func MustParseSingle(t *testing.T) march.Test {
	t.Helper()
	return march.MATSPlus
}

func TestCatalog(t *testing.T) {
	cat := Catalog()
	if len(cat) != 38 {
		t.Fatalf("catalog has %d faults, want 38 (6 W2 + 32 WCC)", len(cat))
	}
	counts := map[Class]int{}
	seen := map[string]bool{}
	for _, f := range cat {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.ID(), err)
		}
		counts[f.Class]++
		if seen[f.ID()] {
			t.Errorf("duplicate fault %s", f.ID())
		}
		seen[f.ID()] = true
	}
	if counts[W2RDF] != 2 || counts[W2DRDF] != 2 || counts[W2IRF] != 2 || counts[WCC] != 32 {
		t.Errorf("class counts = %v", counts)
	}
}

// The central claim of the two-port prototype: every catalog fault is
// invisible to single-port accesses. Lifted single-port march tests —
// including March SL, which covers every static linked fault — detect none
// of them.
func TestSinglePortTestsSeeNothing(t *testing.T) {
	for _, sp := range []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchSS, march.MarchSL} {
		lifted, err := Lift(sp)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Simulate(lifted, Catalog())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected != 0 {
			t.Errorf("%s (single-port) detects %d/%d two-port faults; weak faults must need simultaneous accesses",
				sp.Name, rep.Detected, rep.Total)
		}
	}
}

// Same-cell double reads sensitize the W2 family.
func TestDoubleReadFaults(t *testing.T) {
	dbl := MustParse("dbl", "c(w0:-) ^(r0:r0,r0:-) ^(w1:-) ^(r1:r1,r1:-)")
	for _, f := range Catalog() {
		if f.Class == WCC {
			continue
		}
		det, err := Detects(dbl, f)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			t.Errorf("double-read test misses %s", f.ID())
		}
	}
	// A single-read sweep sees none of them.
	single := MustParse("single", "c(w0:-) ^(r0:-) ^(w1:-) ^(r1:-)")
	for _, f := range Catalog() {
		if f.Class == WCC {
			continue
		}
		det, err := Detects(single, f)
		if err != nil {
			t.Fatal(err)
		}
		if det {
			t.Errorf("single-read test falsely detects %s", f.ID())
		}
	}
}

// The deceptive variant needs the trailing third access: without it the
// double read returns the expected value and the corruption is later
// overwritten.
func TestDeceptiveDoubleReadNeedsThirdAccess(t *testing.T) {
	f := Fault{Class: W2DRDF, State: fp.V0, R: fp.V0}
	bare := MustParse("bare", "c(w0:-) ^(r0:r0,w0:-)")
	det, err := Detects(bare, f)
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Error("deceptive double read must not be caught without a follow-up read")
	}
	followed := MustParse("followed", "c(w0:-) ^(r0:r0,r0:-)")
	det, err = Detects(followed, f)
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("follow-up read must catch the deceptive double read")
	}
}

// A WCC fault fires only when both weak conditions hold in the same cycle
// on the adjacent aggressors.
func TestWCCSimultaneityRequired(t *testing.T) {
	f := Fault{Class: WCC, State: fp.V0,
		C1: WeakCond{Init: fp.V0, Op: fp.RX},
		C2: WeakCond{Init: fp.V0, Op: fp.RX}}
	// Simultaneous neighbor reads on a 0 background fire it; victims below
	// the sweep point are read within the element, victims above by the
	// following sweep.
	fire := MustParse("fire", "c(w0:-) ^(r0:r0+1) v(r0:-)")
	det, err := Detects(fire, f)
	if err != nil {
		t.Fatal(err)
	}
	if !det {
		t.Error("simultaneous neighbor reads must fire the weak coupled fault")
	}
	// The same reads issued sequentially (port B idle) never fire it.
	seq := MustParse("seq", "c(w0:-) ^(r0:-) ^(r0:-) v(r0:-)")
	det, err = Detects(seq, f)
	if err != nil {
		t.Fatal(err)
	}
	if det {
		t.Error("sequential reads must not fire a weak coupled fault")
	}
}

func TestCheckConsistency2P(t *testing.T) {
	good := MustParse("g", "c(w0:-) ^(r0:r0) ^(w1:-) ^(r1:r1)")
	if err := good.CheckConsistency(4); err != nil {
		t.Error(err)
	}
	bad := MustParse("b", "c(w0:-) ^(r1:r1)")
	if err := bad.CheckConsistency(4); err == nil {
		t.Error("wrong expectation must be rejected")
	}
	badB := MustParse("bb", "c(w0:-) ^(r0:r1)")
	if err := badB.CheckConsistency(4); err == nil {
		t.Error("wrong port-B expectation must be rejected")
	}
	// Transparent reads carry no expectation and always pass.
	transparent := MustParse("tr", "c(w0:-) ^(w1:w0-1) ^(r:-)")
	if err := transparent.CheckConsistency(4); err != nil {
		t.Error(err)
	}
}

func TestDetectsCountTotals(t *testing.T) {
	w2 := Fault{Class: W2RDF, State: fp.V0, R: fp.V1}
	_, total, err := DetectsCount(MustParse("x", "c(w0:-)"), w2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 placements × 2 initial values × 1 order combo (the only ⇕ element
	// expands to 2) — c(w0:-) has one ⇕ element: 4×2×2 = 16.
	if total != 16 {
		t.Errorf("W2 scenario total = %d, want 16", total)
	}
	wcc := Fault{Class: WCC, State: fp.V0,
		C1: WeakCond{Init: fp.V0, Op: fp.W1},
		C2: WeakCond{Init: fp.V0, Op: fp.W1}}
	_, total, err = DetectsCount(MustParse("x", "^(w0:-)"), wcc)
	if err != nil {
		t.Fatal(err)
	}
	// 3 adjacent pairs × 2 victims × 8 initial values × 1 order = 48.
	if total != 48 {
		t.Errorf("WCC scenario total = %d, want 48", total)
	}
}

func TestSimulateErrors(t *testing.T) {
	w2 := Fault{Class: W2RDF, State: fp.V0, R: fp.V1}
	if _, err := Simulate(Test{Name: "empty"}, []Fault{w2}); err == nil {
		t.Error("invalid test must error")
	}
	if _, err := Detects(MustParse("x", "c(w0:-)"), Fault{Class: Class(9)}); err == nil {
		t.Error("invalid fault must error")
	}
}
