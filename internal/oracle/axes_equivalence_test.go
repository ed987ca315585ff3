package oracle

import (
	"testing"

	"marchgen/internal/march"
	"marchgen/internal/mport"
	"marchgen/internal/word"
)

// TestWordRefEquivalence pins the word-oriented path differentially: for
// every library march and width, the slice-based internal/word machine and
// the mask-based reference must agree on every intra-word fault verdict.
func TestWordRefEquivalence(t *testing.T) {
	for _, width := range []int{2, 4, 8} {
		bgs, err := word.Backgrounds(width)
		if err != nil {
			t.Fatal(err)
		}
		faults := word.IntraWordFaults(width)
		cfg := word.Config{Words: 2, Width: width}
		for _, m := range march.Lib() {
			diffs, err := CrossCheckWord(m, faults, bgs, cfg)
			if err != nil {
				t.Fatalf("width %d %s: %v", width, m.Name, err)
			}
			for _, d := range diffs {
				t.Errorf("width %d %s: %s", width, m.Name, d)
			}
		}
	}
}

// TestWordTransparentRefEquivalence pins the transparent in-field path: the
// two implementations must agree on the transparent variant of every library
// march that admits one.
func TestWordTransparentRefEquivalence(t *testing.T) {
	width := 4
	bgs, err := word.Backgrounds(width)
	if err != nil {
		t.Fatal(err)
	}
	faults := word.IntraWordFaults(width)
	cfg := word.Config{Words: 2, Width: width}
	checked := 0
	for _, m := range march.Lib() {
		tt, err := word.Transparent(m)
		if err != nil {
			continue // not transparency-eligible; the transform's own tests cover rejection
		}
		checked++
		diffs, err := CrossCheckWordTransparent(tt, faults, bgs, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for _, d := range diffs {
			t.Errorf("%s: %s", m.Name, d)
		}
	}
	if checked == 0 {
		t.Fatal("no library march admitted a transparent variant; transform too strict")
	}
}

// TestMportRefEquivalence pins the two-port path differentially over the
// whole weak-fault catalog: the lifted single-port library tests, the
// generator's March 2P (kept as mport.March2P), and a hand-written two-port
// march must all get identical verdicts from internal/mport and the
// event-based reference.
func TestMportRefEquivalence(t *testing.T) {
	catalog := mport.Catalog()
	cfg := mport.Config{}
	var tests []mport.Test
	for _, m := range []march.Test{march.MATSPlus, march.MarchCMinus} {
		lifted, err := mport.Lift(m)
		if err != nil {
			t.Fatal(err)
		}
		tests = append(tests, lifted)
	}
	tests = append(tests, mport.March2P())
	tests = append(tests, mport.MustParse("hand 2P", "c(w0:-) ^(r0:r0) ^(r0:r0,w1:-,r1:r1) v(r1:w0+1) c(r:r-1)"))

	for _, tt := range tests {
		diffs, err := CrossCheckMport(tt, catalog, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tt.Name, err)
		}
		for _, d := range diffs {
			t.Errorf("%s: %s", tt.Name, d)
		}
	}
}

// TestMportRefSeesDivergence proves the cross-check has teeth: an
// intentionally broken reference verdict (a test that internal/mport says
// misses the catalog while a full-coverage test detects it) must disagree
// somewhere — here we just pin that the reference is not trivially true on
// an undetecting test.
func TestMportRefSeesDivergence(t *testing.T) {
	catalog := mport.Catalog()
	lifted, err := mport.Lift(march.MATSPlus)
	if err != nil {
		t.Fatal(err)
	}
	// A lifted single-port test must miss every weak two-port fault in both
	// implementations: they are defined to be invisible to one port.
	for _, f := range catalog {
		got, err := MportDetects(lifted, f, mport.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("reference claims lifted MATS+ detects %s; weak faults must be invisible to a single port", f.ID())
		}
	}
}
