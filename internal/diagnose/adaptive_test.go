package diagnose

import (
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

func mustSimple(t *testing.T, fpStr string) linked.Fault {
	t.Helper()
	f, err := linked.NewSimple(fp.MustParseFP(fpStr))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// deviceSyndrome plays the device under test: the syndrome the instance
// produces under m on 4 cells.
func deviceSyndrome(t *testing.T, m march.Test, c Candidate) Syndrome {
	t.Helper()
	d, err := table(m, []Candidate{c}, sim.Config{Size: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d.Entries[0].Syndrome
}

// TestParseReadIDRoundTrip pins the wire form "M<elem>#<op>@<addr>".
func TestParseReadIDRoundTrip(t *testing.T) {
	for _, id := range []ReadID{{0, 0, 0}, {1, 2, 3}, {12, 3, 45}} {
		got, err := ParseReadID(id.String())
		if err != nil {
			t.Fatalf("ParseReadID(%q): %v", id.String(), err)
		}
		if got != id {
			t.Fatalf("round trip %q: got %+v", id.String(), got)
		}
	}
	for _, bad := range []string{"", "M", "M1", "M1#2", "1#2@3", "M-1#2@3", "Mx#2@3", "M1#x@3", "M1#2@x", "M1#2@-3"} {
		if _, err := ParseReadID(bad); err == nil {
			t.Errorf("ParseReadID(%q) accepted", bad)
		}
	}
}

func TestParseSyndromeCollapsesDuplicates(t *testing.T) {
	syn, err := ParseSyndrome([]string{"M1#0@2", " M1#0@2 ", "M0#1@3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(syn) != 2 {
		t.Fatalf("syndrome = %v, want 2 distinct reads", syn)
	}
	if _, err := ParseSyndrome([]string{"M1#0@2", "junk"}); err == nil {
		t.Error("malformed entry accepted")
	}
}

// TestLocalizeIntersectsObservations: with no observations every instance is
// a candidate; each consistent observation can only shrink the set, and the
// injected instance always survives.
func TestLocalizeIntersectsObservations(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	cfg := sim.Config{Size: 4}
	truth := mustSimple(t, "<0w0/1/->") // WDF0
	placement := []int{2}

	all, err := Localize(faults, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(faults)*4 {
		t.Fatalf("unconstrained candidates = %d, want %d", len(all), len(faults)*4)
	}

	var obs []Observation
	prev := len(all)
	for _, m := range []march.Test{march.MarchSS, march.MATSPlus} {
		obs = append(obs, Observation{Test: m, Syndrome: deviceSyndrome(t, m, Candidate{Fault: truth, Placement: placement})})
		cands, err := Localize(faults, obs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 || len(cands) > prev {
			t.Fatalf("after %s: %d candidates (prev %d)", m.Name, len(cands), prev)
		}
		found := false
		for _, c := range cands {
			if c.Fault.ID() == truth.ID() && c.Placement[0] == placement[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("after %s: injected instance excluded from %d candidates", m.Name, len(cands))
		}
		prev = len(cands)
	}
}

// TestNextTestSplitsAmbiguity: on an ambiguous candidate set NextTest must
// return a pool test that actually separates at least two candidates, and
// must respect the exclusion set.
func TestNextTestSplitsAmbiguity(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	cfg := sim.Config{Size: 4}
	truth := mustSimple(t, "<0w0/1/->")
	syn := deviceSyndrome(t, march.MATSPlus, Candidate{Fault: truth, Placement: []int{2}})
	cands, err := Localize(faults, []Observation{{Test: march.MATSPlus, Syndrome: syn}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("MATS+ alone localized to %d candidates; need ambiguity for this test", len(cands))
	}
	pool := march.Lib()
	next, ok, err := NextTest(cands, pool, map[string]bool{march.MATSPlus.Name: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no pool test splits the MATS+ ambiguity class")
	}
	if next.Name == march.MATSPlus.Name {
		t.Fatal("NextTest returned an excluded test")
	}
	// The chosen test really splits: at least two candidates disagree.
	d, err := table(next, cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.byKey) < 2 {
		t.Fatalf("chosen test %s does not split the candidates", next.Name)
	}
	// A singleton set needs no follow-up.
	if _, ok, _ := NextTest(cands[:1], pool, nil, cfg); ok {
		t.Error("NextTest split a singleton")
	}
}

// TestAdaptiveLocalizeConvergesToInjectedFault drives the whole loop: the
// injected instance must be the unique survivor (or, if model-equivalent
// faults exist, must be among a stable set every member of which places the
// defect at the injected cell).
func TestAdaptiveLocalizeConvergesToInjectedFault(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	cfg := sim.Config{Size: 4}
	truth := mustSimple(t, "<0w0/1/->") // WDF0
	placement := []int{2}
	res, err := AdaptiveLocalize(truth, placement, faults, march.Lib(), march.MarchSS, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("adaptive loop eliminated the injected fault")
	}
	t.Logf("rounds=%d tests=%v stable=%v candidates=%d", res.Rounds, res.Tests, res.Stable, len(res.Candidates))
	for _, c := range res.Candidates {
		if c.Placement[0] != placement[0] {
			t.Errorf("candidate %s places the defect at %d, truth is %d", c, c.Placement[0], placement[0])
		}
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("loop ended with %d candidates, want singleton: %v", len(res.Candidates), res.Candidates)
	}
	c := res.Candidates[0]
	if c.Fault.ID() != truth.ID() || c.Placement[0] != placement[0] {
		t.Fatalf("localized %s, injected %s@%d", c, truth.ID(), placement[0])
	}
	if res.Rounds < 1 || len(res.Tests) != res.Rounds {
		t.Fatalf("rounds bookkeeping: %d rounds, tests %v", res.Rounds, res.Tests)
	}
}

// TestAdaptiveLocalizeStableOnIndistinguishable: restricted to a pool that
// cannot split the initial ambiguity, the loop must report Stable instead of
// spinning.
func TestAdaptiveLocalizeStableOnIndistinguishable(t *testing.T) {
	faults := faultlist.SimpleSingleCell()
	cfg := sim.Config{Size: 4}
	truth := mustSimple(t, "<0w0/1/->")
	res, err := AdaptiveLocalize(truth, []int{2}, faults, []march.Test{march.MATSPlus}, march.MATSPlus, cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) > 1 && !res.Stable {
		t.Fatalf("ambiguous non-stable end: %+v", res)
	}
	if res.Rounds != 1 {
		t.Fatalf("pool of one already-used test must stop after round 1, got %d", res.Rounds)
	}
}
