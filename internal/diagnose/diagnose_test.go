package diagnose

import (
	"strings"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

func buildDict(t *testing.T, m march.Test, faults []linked.Fault) *Dictionary {
	t.Helper()
	d, err := Build(m, faults, sim.Config{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The tester round trip: simulate a "device" with a known fault, look the
// syndrome up, and find the true fault among the candidates.
func TestDiagnoseRoundTrip(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	d := buildDict(t, march.MarchSS, faults)

	truth, err := linked.NewSimple(fp.MustParseFP("<0w0/1/->")) // WDF0
	if err != nil {
		t.Fatal(err)
	}
	candidates, syn, err := d.Diagnose(Candidate{Fault: truth, Placement: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) == 0 {
		t.Fatal("March SS must fail some reads for a WDF")
	}
	found := false
	for _, c := range candidates {
		if c.Fault.ID() == truth.ID() && c.Placement[0] == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("true fault not among %d candidates", len(candidates))
	}
}

// The syndrome localizes the failing cell: every candidate for a
// single-cell fault at address 2 places its victim at address 2.
func TestDiagnosisLocalizes(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	d := buildDict(t, march.MarchSS, faults)
	truth, err := linked.NewSimple(fp.MustParseFP("<0w1/0/->")) // TF up
	if err != nil {
		t.Fatal(err)
	}
	candidates, _, err := d.Diagnose(Candidate{Fault: truth, Placement: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range candidates {
		if c.Placement[0] != 2 {
			t.Errorf("candidate %s places the fault at %d, truth is cell 2",
				c.Fault.ID(), c.Placement[0])
		}
	}
}

// A fault the test does not detect is undiagnosable: empty syndrome, and
// the resolution statistics say so.
func TestUndiagnosableFaults(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	d := buildDict(t, march.MATSPlus, faults) // MATS+ misses most of them
	res := d.Resolution()
	if res.Undiagnosable == 0 {
		t.Error("MATS+ dictionary must contain undiagnosable instances")
	}
	if res.Instances != len(faults)*4 {
		t.Errorf("instances = %d, want %d", res.Instances, len(faults)*4)
	}
	if res.Signatures < 2 {
		t.Errorf("implausible signature count %d", res.Signatures)
	}
	if !strings.Contains(res.String(), "undiagnosable=") {
		t.Error("resolution summary incomplete")
	}
}

// A stronger test yields strictly better resolution than a weaker one on
// the same fault list.
func TestResolutionImprovesWithStrongerTest(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	weak := buildDict(t, march.MATSPlus, faults).Resolution()
	strong := buildDict(t, march.MarchSS, faults).Resolution()
	if strong.Undiagnosable > 0 {
		t.Errorf("March SS leaves %d undiagnosable simple single-cell instances", strong.Undiagnosable)
	}
	if strong.Signatures <= weak.Signatures {
		t.Errorf("March SS signatures (%d) must exceed MATS+ (%d)", strong.Signatures, weak.Signatures)
	}
}

// Dictionary lookups are exact: a syndrome not in the dictionary returns
// nothing.
func TestLookupUnknownSyndrome(t *testing.T) {
	d := buildDict(t, march.MATSPlus, faultlist.SimpleSingleCell())
	bogus := Syndrome{ReadID{Element: 99, Addr: 0, OpIndex: 0}: true}
	if got := d.Lookup(bogus); len(got) != 0 {
		t.Errorf("bogus syndrome matched %d entries", len(got))
	}
}

func TestReadIDAndSyndromeKey(t *testing.T) {
	a := ReadID{Element: 1, Addr: 2, OpIndex: 3}
	if a.String() != "M1#3@2" {
		t.Errorf("ReadID.String() = %q", a.String())
	}
	s1 := Syndrome{
		{Element: 1, Addr: 2, OpIndex: 3}: true,
		{Element: 0, Addr: 0, OpIndex: 0}: true,
	}
	s2 := Syndrome{
		{Element: 0, Addr: 0, OpIndex: 0}: true,
		{Element: 1, Addr: 2, OpIndex: 3}: true,
	}
	if s1.Key() != s2.Key() {
		t.Error("syndrome keys must be order independent")
	}
	if (Syndrome{}).Key() != "" {
		t.Error("empty syndrome must have the empty key")
	}
}

// Linked faults diagnose too: the March SL dictionary separates the LF1
// family instances from each other at distinct cells.
func TestDiagnoseLinkedFaults(t *testing.T) {
	faults := faultlist.List2()
	d := buildDict(t, march.MarchSL, faults)
	res := d.Resolution()
	if res.Undiagnosable != 0 {
		t.Errorf("March SL leaves %d undiagnosable List #2 instances", res.Undiagnosable)
	}
	// Same fault at different cells must produce different signatures.
	lf := faults[0]
	synByCell := map[string]bool{}
	for _, e := range d.Entries {
		if e.Fault.ID() == lf.ID() {
			synByCell[e.Syndrome.Key()] = true
		}
	}
	if len(synByCell) < 4 {
		t.Errorf("fault %s has only %d distinct signatures across 4 cells", lf.ID(), len(synByCell))
	}
}

// A fault that fills the whole memory leaves no bystander cell; Build
// refuses it exactly as Localize and the simulator do, instead of
// simulating placements nothing else accepts.
func TestBuildRejectsFaultWithoutBystander(t *testing.T) {
	faults := faultlist.SimpleTwoCell()[:2]
	cfg := sim.Config{Size: 2}
	if d, err := Build(march.MarchSS, faults, cfg); err == nil {
		t.Fatalf("Build on %d cells accepted 2-cell faults: %d entries", cfg.Size, len(d.Entries))
	}
	if _, err := Localize(faults, nil, cfg); err == nil {
		t.Fatal("Localize accepted 2-cell faults on 2 cells")
	}
}
