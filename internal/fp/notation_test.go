package fp

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// The worked examples from the paper itself.
func TestParseFPPaperExamples(t *testing.T) {
	// Section 2: FP = <0w1 ; 0 / 1 / -> — a disturb coupling fault: w1 on the
	// aggressor (initially 0) flips the victim (initially 0) to 1.
	f, err := ParseFP("<0w1;0/1/->")
	if err != nil {
		t.Fatal(err)
	}
	if f.Class != CFds {
		t.Errorf("class = %v, want CFds", f.Class)
	}
	if f.Cells != 2 || f.AInit != V0 || f.VInit != V0 || f.F != V1 || f.R != VX {
		t.Errorf("unexpected decode: %+v", f)
	}
	if f.OpRole != RoleAggressor || f.Op != W1 {
		t.Errorf("sensitizing op decode wrong: role=%v op=%v", f.OpRole, f.Op)
	}

	// Section 3, eq. (6): FP2 = <0w1 ; 1 / 0 / ->.
	f2, err := ParseFP("<0w1;1/0/->")
	if err != nil {
		t.Fatal(err)
	}
	if f2.F != V0 || f2.VInit != V1 {
		t.Errorf("unexpected decode: %+v", f2)
	}

	// Section 4, eq. (12): <1w0 ; 1 / 0 / ->.
	f3, err := ParseFP("<1w0;1/0/->")
	if err != nil {
		t.Fatal(err)
	}
	if f3.AInit != V1 || f3.Op != W0 || f3.F != V0 {
		t.Errorf("unexpected decode: %+v", f3)
	}
}

func TestParseFPClassInference(t *testing.T) {
	cases := []struct {
		in   string
		want Class
	}{
		{"<0/1/->", SF},
		{"<1/0/->", SF},
		{"<0w1/0/->", TF},
		{"<1w0/1/->", TF},
		{"<0w0/1/->", WDF},
		{"<1w1/0/->", WDF},
		{"<0r0/1/1>", RDF},
		{"<1r1/0/0>", RDF},
		{"<0r0/1/0>", DRDF},
		{"<1r1/0/1>", DRDF},
		{"<0r0/0/1>", IRF},
		{"<1r1/1/0>", IRF},
		{"<0t/1/->", DRF},
		{"<1t/0/->", DRF},
		{"<0;0/1/->", CFst},
		{"<1;1/0/->", CFst},
		{"<0w1;0/1/->", CFds},
		{"<1r1;0/1/->", CFds},
		{"<0;0w1/0/->", CFtr},
		{"<1;1w0/1/->", CFtr},
		{"<0;0w0/1/->", CFwd},
		{"<1;1w1/0/->", CFwd},
		{"<0;0r0/1/1>", CFrd},
		{"<1;1r1/0/0>", CFrd},
		{"<0;0r0/1/0>", CFdr},
		{"<1;1r1/0/1>", CFdr},
		{"<0;0r0/0/1>", CFir},
		{"<1;1r1/1/0>", CFir},
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

func TestFPStringRoundTrip(t *testing.T) {
	for _, f := range append(AllStatic(), DRFs...) {
		s := f.String()
		parsed, err := ParseFP(s)
		if err != nil {
			t.Errorf("ParseFP(%q): %v", s, err)
			continue
		}
		if parsed != f {
			t.Errorf("round trip of %v gave %v", f, parsed)
		}
	}
}

// fpStringDigest is the SHA-256 of String for every catalog primitive (48
// static, 66 dynamic, 2 data retention), one per line, captured before
// String became a wrapper around AppendTo.
const fpStringDigest = "0cc5bdf6f2c1610bfdccc794af4b8b90244cba6480365b1b6ad2e35202008672"

func TestFPStringPinnedAndAppendTo(t *testing.T) {
	h := sha256.New()
	for _, f := range append(append(AllStatic(), AllDynamic()...), DRFs...) {
		s := f.String()
		fmt.Fprintln(h, s)
		if got := string(f.AppendTo([]byte("x"))); got != "x"+s {
			t.Errorf("AppendTo of %s appended %q", s, got)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != fpStringDigest {
		t.Fatalf("catalog String digest %s, want %s", got, fpStringDigest)
	}
	// Out-of-alphabet fields keep their diagnostic renderings.
	odd := FP{Cells: 2, AInit: Value(7), Trigger: TrigOp, OpRole: RoleAggressor, Op: Op{Kind: OpKind(9), Data: Value(5)}}
	if got, want := odd.String(), "<Value(7)Op(9,Value(5));0/0/0>"; got != want {
		t.Errorf("odd FP renders %q, want %q", got, want)
	}
}

func TestParseFPErrors(t *testing.T) {
	bad := []string{
		"",
		"<>",
		"0w1/0/-",       // missing <>
		"<0w1/0>",       // missing R
		"<0w1/0/-/1>",   // too many fields
		"<0w1;0;1/1/->", // three cells
		"<0w1;0w1/1/->", // two operations
		"<0w1/-/->",     // non-binary F
		"<0w1/0/1>",     // R without a read on the victim
		"<0r0/1/->",     // read on victim without R
		"<0/0/->",       // state fault that does not flip
		"<x/1/->",       // bad value
		"<0q1/0/->",     // bad op
		"<0w2/0/->",     // bad write value
		"<0w1;-/0/1>",   // R with aggressor read absent
		"<0r0;0/1/1>",   // R specified for a read on the aggressor
	}
	for _, s := range bad {
		if f, err := ParseFP(s); err == nil {
			t.Errorf("ParseFP(%q) = %v, want error", s, f)
		}
	}
}

func TestMustParseFPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseFP on invalid input did not panic")
		}
	}()
	MustParseFP("<garbage>")
}

func TestParseFPUnconstrainedAggressorState(t *testing.T) {
	// A disturb coupling written without the aggressor initial state: the
	// aggressor state is unconstrained.
	f, err := ParseFP("<w1;0/1/->")
	if err != nil {
		t.Fatal(err)
	}
	if f.AInit != VX || f.OpRole != RoleAggressor || f.Op != W1 {
		t.Errorf("unexpected decode: %+v", f)
	}
	if f.Class != CFds {
		t.Errorf("class = %v, want CFds", f.Class)
	}
}

func TestParseFPNormalizesSensitizingRead(t *testing.T) {
	// "r" without a value inside S is pinned to the cell's initial state.
	f, err := ParseFP("<0r/1/1>")
	if err != nil {
		t.Fatal(err)
	}
	want := MustParseFP("<0r0/1/1>")
	if f != want {
		t.Errorf("got %+v, want %+v", f, want)
	}
}

func TestClassString(t *testing.T) {
	for _, c := range Classes() {
		s := c.String()
		if s == "" || s == "?" {
			t.Errorf("class %d has no name", c)
		}
		parsed, err := ParseClass(s)
		if err != nil {
			t.Errorf("ParseClass(%q): %v", s, err)
			continue
		}
		if parsed != c {
			t.Errorf("ParseClass(%q) = %v, want %v", s, parsed, c)
		}
	}
	if _, err := ParseClass("NOPE"); err == nil {
		t.Error("ParseClass(\"NOPE\") should fail")
	}
	if ClassUnknown.String() != "?" {
		t.Errorf("ClassUnknown.String() = %q", ClassUnknown.String())
	}
}

func TestClassIsCoupling(t *testing.T) {
	for _, c := range []Class{SF, TF, WDF, RDF, DRDF, IRF, DRF} {
		if c.IsCoupling() {
			t.Errorf("%v should not be a coupling class", c)
		}
	}
	for _, c := range []Class{CFst, CFds, CFtr, CFwd, CFrd, CFdr, CFir} {
		if !c.IsCoupling() {
			t.Errorf("%v should be a coupling class", c)
		}
	}
}
