package fp

import (
	"testing"
)

func TestDynamicCatalogCounts(t *testing.T) {
	cases := []struct {
		name string
		fps  []FP
		want int
	}{
		{"dRDF", DyRDFs, 6},
		{"dDRDF", DyDRDFs, 6},
		{"dIRF", DyIRFs, 6},
		{"dCFds", DyCFdss, 12},
		{"dCFrd", DyCFrds, 12},
		{"dCFdr", DyCFdrs, 12},
		{"dCFir", DyCFirs, 12},
	}
	for _, c := range cases {
		if len(c.fps) != c.want {
			t.Errorf("%s: %d entries, want %d", c.name, len(c.fps), c.want)
		}
	}
	if got := len(AllSingleCellDynamic()); got != 18 {
		t.Errorf("AllSingleCellDynamic = %d, want 18", got)
	}
	if got := len(AllTwoCellDynamic()); got != 48 {
		t.Errorf("AllTwoCellDynamic = %d, want 48", got)
	}
	if got := len(AllDynamic()); got != 66 {
		t.Errorf("AllDynamic = %d, want 66", got)
	}
}

func TestDynamicCatalogValidatesAndClassifies(t *testing.T) {
	for _, f := range AllDynamic() {
		if err := f.Validate(); err != nil {
			t.Errorf("%v: %v", f, err)
		}
		if !f.IsDynamic() {
			t.Errorf("%v: not dynamic", f)
		}
		if got := Classify(f); got != f.Class || !got.IsDynamicClass() {
			t.Errorf("%v: Classify = %v (class %v)", f, got, f.Class)
		}
	}
}

func TestDynamicParseAndRoundTrip(t *testing.T) {
	f, err := ParseFP("<0w1r1/0/0>")
	if err != nil {
		t.Fatal(err)
	}
	if f.Class != DyRDF {
		t.Errorf("class = %v, want dRDF", f.Class)
	}
	if f.Op != W1 || f.Op2 != R1 {
		t.Errorf("ops = %v, %v", f.Op, f.Op2)
	}
	if f.GoodVictimFinal() != V1 {
		t.Errorf("good final = %v", f.GoodVictimFinal())
	}
	for _, fp := range AllDynamic() {
		parsed, err := ParseFP(fp.String())
		if err != nil {
			t.Errorf("ParseFP(%q): %v", fp.String(), err)
			continue
		}
		if parsed != fp {
			t.Errorf("round trip of %v gave %v", fp, parsed)
		}
	}
}

func TestDynamicParseErrors(t *testing.T) {
	bad := []string{
		"<0w1r1w0/0/->",   // three operations
		"<0w1r1;1w0/0/->", // operations on both cells
		"<0w1t/0/->",      // wait inside a dynamic sequence
		"<0w1r1/0/->",     // final read without R
	}
	for _, s := range bad {
		if f, err := ParseFP(s); err == nil {
			t.Errorf("ParseFP(%q) = %v, want error", s, f)
		}
	}
}

func TestDynamicClassification(t *testing.T) {
	cases := []struct {
		in   string
		want Class
	}{
		{"<0w1r1/0/0>", DyRDF},
		{"<0w1r1/0/1>", DyDRDF},
		{"<0w1r1/1/0>", DyIRF},
		{"<0r0r0/1/1>", DyRDF},
		{"<1r1r1/0/1>", DyDRDF},
		{"<0w1r1;0/1/->", DyCFds},
		{"<0;1w0r0/1/1>", DyCFrd},
		{"<1;0r0r0/1/0>", DyCFdr},
		{"<0;1w1r1/1/0>", DyCFir},
	}
	for _, c := range cases {
		f, err := ParseFP(c.in)
		if err != nil {
			t.Errorf("ParseFP(%q): %v", c.in, err)
			continue
		}
		if f.Class != c.want {
			t.Errorf("ParseFP(%q).Class = %v, want %v", c.in, f.Class, c.want)
		}
	}
}

func TestDynamicMatching(t *testing.T) {
	f := MustParseFP("<0w1r1/0/0>") // dRDF: w1 then read on a cell at 0

	// Static matching never fires for dynamic primitives: their back-to-back
	// arming is the simulators' business (internal/sim's runSteps,
	// internal/oracle's automaton).
	if f.MatchesOp(W1, RoleVictim, VX, V0) {
		t.Error("MatchesOp must not match dynamic primitives")
	}
	if f.MatchesOp(R1, RoleVictim, VX, V1) {
		t.Error("MatchesOp must not match a dynamic primitive's second operation")
	}
}

func TestDynamicMisreadsAndChangesState(t *testing.T) {
	if !MustParseFP("<0w1r1/1/0>").Misreads() { // dIRF: returns 0, good read is 1
		t.Error("dIRF must misread")
	}
	if MustParseFP("<0w1r1/0/1>").Misreads() { // dDRDF: returns the expected 1
		t.Error("dDRDF must not misread")
	}
	if !MustParseFP("<0w1r1/0/0>").ChangesState() {
		t.Error("dRDF must change state")
	}
	if MustParseFP("<0w1r1/1/0>").ChangesState() {
		t.Error("dIRF must not change state")
	}
}

func TestByClassDynamic(t *testing.T) {
	for _, c := range []Class{DyRDF, DyDRDF, DyIRF, DyCFds, DyCFrd, DyCFdr, DyCFir} {
		fps := ByClass(c)
		if len(fps) == 0 {
			t.Errorf("ByClass(%v) empty", c)
		}
		for _, f := range fps {
			if f.Class != c {
				t.Errorf("ByClass(%v) contains %v", c, f)
			}
		}
	}
}
