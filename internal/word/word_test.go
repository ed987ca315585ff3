package word

import (
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

func TestBackgroundsStandardSet(t *testing.T) {
	bgs, err := Backgrounds(4)
	if err != nil {
		t.Fatal(err)
	}
	// log2(4)+1 = 3 backgrounds: 0000, 0101, 0011.
	if len(bgs) != 3 {
		t.Fatalf("%d backgrounds, want 3", len(bgs))
	}
	want := []string{"0000", "0101", "0011"}
	for i, bg := range bgs {
		if bg.String() != want[i] {
			t.Errorf("background %d = %s, want %s", i, bg, want[i])
		}
		if err := bg.Validate(); err != nil {
			t.Error(err)
		}
	}
	if _, err := Backgrounds(0); err == nil {
		t.Error("zero width must fail")
	}
	bgs8, err := Backgrounds(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bgs8) != 4 {
		t.Errorf("width 8: %d backgrounds, want 4", len(bgs8))
	}
}

// The defining property of the standard set: every pair of distinct bits
// differs in at least one background.
func TestBackgroundsSeparateAllBitPairs(t *testing.T) {
	for _, width := range []int{2, 4, 8, 16} {
		bgs, err := Backgrounds(width)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < width; i++ {
			for j := i + 1; j < width; j++ {
				separated := false
				for _, bg := range bgs {
					if bg[i] != bg[j] {
						separated = true
						break
					}
				}
				if !separated {
					t.Errorf("width %d: bits %d and %d never differ", width, i, j)
				}
			}
		}
	}
}

func TestBackgroundBit(t *testing.T) {
	bg := Background{fp.V0, fp.V1}
	if bg.Bit(0, fp.V0) != fp.V0 || bg.Bit(1, fp.V0) != fp.V1 {
		t.Error("d=0 must write the background")
	}
	if bg.Bit(0, fp.V1) != fp.V1 || bg.Bit(1, fp.V1) != fp.V0 {
		t.Error("d=1 must write the complement")
	}
	if (Background{}).Validate() == nil {
		t.Error("empty background must fail")
	}
	if (Background{fp.VX}).Validate() == nil {
		t.Error("non-binary background must fail")
	}
}

func TestIntraWordFaultCounts(t *testing.T) {
	all := IntraWordFaults(4)
	// 36 two-cell static FPs × 12 ordered bit pairs.
	if len(all) != 432 {
		t.Fatalf("%d intra-word faults, want 432", len(all))
	}
	testable := TestableIntraWordFaults(4)
	// Excludes the 4 transition-write CFds per ordered bit pair: 432 - 4*12 = 384.
	if len(testable) != 384 {
		t.Fatalf("%d testable faults, want 384", len(testable))
	}
	for _, f := range all {
		if err := f.Validate(); err != nil {
			t.Errorf("%s: %v", f.ID(), err)
		}
	}
}

func TestFaultValidate(t *testing.T) {
	bad := Fault{FP: fp.MustParseFP("<0w1/0/->"), AggBit: 0, VicBit: 1}
	if bad.Validate() == nil {
		t.Error("single-cell primitive must be rejected")
	}
	same := Fault{FP: fp.MustParseFP("<0w1;0/1/->"), AggBit: 1, VicBit: 1}
	if same.Validate() == nil {
		t.Error("identical bits must be rejected")
	}
	dyn := Fault{FP: fp.MustParseFP("<0;0w0r0/1/1>"), AggBit: 0, VicBit: 1}
	if dyn.Validate() == nil {
		t.Error("dynamic primitives must be rejected")
	}
}

// The headline result of word-oriented testing: a single solid background
// misses intra-word couplings between equal-valued bits; the standard
// log2(w)+1 set restores full coverage of the march-testable faults.
func TestBackgroundSetRestoresCoverage(t *testing.T) {
	faults := TestableIntraWordFaults(4)
	bgs, err := Backgrounds(4)
	if err != nil {
		t.Fatal(err)
	}
	solid := []Background{Solid(4)}

	dSolid, err := Coverage(march.MarchSS, faults, solid)
	if err != nil {
		t.Fatal(err)
	}
	dAll, err := Coverage(march.MarchSS, faults, bgs)
	if err != nil {
		t.Fatal(err)
	}
	if dAll != len(faults) {
		t.Errorf("March SS with the standard backgrounds: %d/%d, want full", dAll, len(faults))
	}
	if dSolid >= dAll {
		t.Errorf("solid background must cover strictly less: %d vs %d", dSolid, dAll)
	}
	// Pinned measurement (EXPERIMENTS.md): 192 solid-detectable faults of
	// the testable 336.
	if dSolid != 192 {
		t.Errorf("solid coverage = %d, previously measured 192", dSolid)
	}
}

// The pinned finding: write-sensitized intra-word disturb couplings are
// undetectable by word-wide march operations under any background — the
// sensitizing word write rewrites the victim bit in the same cycle.
func TestWriteCFdsUnmarchTestable(t *testing.T) {
	bgs, err := Backgrounds(4)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range IntraWordFaults(4) {
		if MarchTestable(f) {
			continue
		}
		checked++
		for _, m := range []march.Test{march.MATSPlus, march.MarchCMinus, march.MarchSS, march.MarchSL} {
			det, err := Detects(m, f, bgs)
			if err != nil {
				t.Fatal(err)
			}
			if det {
				t.Errorf("%s detected %s — the masking analysis no longer holds", m.Name, f.ID())
			}
		}
	}
	if checked != 48 {
		t.Errorf("checked %d transition-write CFds instances, want 48", checked)
	}
}

// Detection is background-order independent and deterministic.
func TestDetectsValidation(t *testing.T) {
	f := Fault{FP: fp.MustParseFP("<0;1/0/->"), AggBit: 0, VicBit: 5}
	if _, err := Detects(march.MarchSS, f, []Background{Solid(4)}); err == nil {
		t.Error("out-of-width bits must error")
	}
	f2 := Fault{FP: fp.MustParseFP("<0;1/0/->"), AggBit: 0, VicBit: 1}
	if _, err := Detects(march.MarchSS, f2, []Background{Solid(4), Solid(8)}); err == nil {
		t.Error("background/width mismatch must error")
	}
}

// The background set fixes the word width, so it must have one: an empty
// set, or backgrounds of different widths, is an error on both paths.
func TestBackgroundSetFixesWidth(t *testing.T) {
	f := Fault{FP: fp.MustParseFP("<0;1/0/->"), AggBit: 0, VicBit: 1}
	for name, detects := range map[string]func(march.Test, Fault, []Background) (bool, error){
		"Detects": Detects, "DetectsTransparent": DetectsTransparent,
	} {
		if _, err := detects(march.MarchSS, f, nil); err == nil {
			t.Errorf("%s: an empty background set must error", name)
		}
		if _, err := detects(march.MarchSS, f, []Background{Solid(8), Solid(4)}); err == nil {
			t.Errorf("%s: backgrounds of different widths must error", name)
		}
		if _, err := detects(march.MarchSS, f, []Background{Solid(8)}); err != nil {
			t.Errorf("%s: one 8-bit background: %v", name, err)
		}
	}
}
