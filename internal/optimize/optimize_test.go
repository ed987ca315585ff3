package optimize

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"marchgen/internal/core"
	"marchgen/internal/faultlist"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

func list2(t *testing.T) []linked.Fault {
	t.Helper()
	faults, ok := faultlist.ByName("list2")
	if !ok {
		t.Fatal("fault list list2 not found")
	}
	return faults
}

// The acceptance bar of the issue: a short-budget fixed-seed run starting
// from the paper's own 9n March ABL1 must find a full-coverage test for
// Fault List #2 no longer than the paper's published 9n, certified by the
// independent oracle.
func TestBeatsPaperOnList2(t *testing.T) {
	seed := march.MarchABL1
	res, err := Run(list2(t), Options{
		Name:     "March OPT list2",
		Seed:     1,
		Budget:   400,
		SeedTest: &seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, paper := res.Test.Length(), march.MarchABL1.Length(); got > paper {
		t.Errorf("winner %dn longer than the paper's %dn", got, paper)
	}
	if !res.Report.Full() {
		t.Errorf("winner not at full coverage: %d/%d", res.Report.Detected(), res.Report.Total())
	}
	if res.Test.Origin != march.OriginOptimized {
		t.Errorf("origin = %q, want %q", res.Test.Origin, march.OriginOptimized)
	}
	p := res.Test.Prov
	if p == nil || p.Seed != 1 || p.Budget != 400 || p.SeedTest != "March ABL1" || p.SeedLength != 9 {
		t.Errorf("provenance = %+v", p)
	}
	if p != nil && p.MoveTrace == "" {
		t.Error("empty move trace hash")
	}
	t.Logf("winner: %s (%s), %d evaluations", res.Test.ASCII(), res.Test.Complexity(), res.Stats.Evaluations)
}

// Property: two runs with the same seed and options are byte-identical —
// same winner rendering, same move-trace hash, same evaluation count.
func TestDeterministicAcrossRuns(t *testing.T) {
	seed := march.MarchABL1
	opts := Options{Seed: 42, Budget: 300, SeedTest: &seed}
	a, err := Run(list2(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(list2(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Test.ASCII() != b.Test.ASCII() {
		t.Errorf("winners differ:\n  %s\n  %s", a.Test.ASCII(), b.Test.ASCII())
	}
	if a.Test.Prov.MoveTrace != b.Test.Prov.MoveTrace {
		t.Errorf("move traces differ: %s vs %s", a.Test.Prov.MoveTrace, b.Test.Prov.MoveTrace)
	}
	if a.Stats.Evaluations != b.Stats.Evaluations {
		t.Errorf("evaluation counts differ: %d vs %d", a.Stats.Evaluations, b.Stats.Evaluations)
	}
}

// The search's answers do not depend on GOMAXPROCS: March SL on List #1
// finds one winner along one move trace with one evaluation count at
// GOMAXPROCS 1, 2, 4 and 8. Most of its covering children's resumes
// estimate enough work to fan out (sim's minFanOutSteps), so their faults
// race in neighbouring goroutines and push the shared miss counter in any
// order. In make stress.
func TestOptimizeDeterministicAcrossProcs(t *testing.T) {
	faults := faultlist.List1()
	var want string
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		seed := march.MarchSL
		res, err := Run(faults, Options{Seed: 3, Budget: 300, SeedTest: &seed})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("winner %s, move trace %s, %d evaluations", res.Test.ASCII(), res.Test.Prov.MoveTrace, res.Stats.Evaluations)
		if procs == 1 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: %s; one P: %s", procs, got, want)
		}
	}
}

// Property: for any rng seed, the winner (a) passes CertifyWithOracle,
// (b) is never longer than its seed test.
func TestWinnerCertifiedAndNeverLonger(t *testing.T) {
	faults := list2(t)
	for _, seed := range []int64{1, 2, 3} {
		st := march.MarchABL1
		res, err := Run(faults, Options{Seed: seed, Budget: 200, SeedTest: &st})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Test.Length() > st.Length() {
			t.Errorf("seed %d: winner %dn longer than seed %dn", seed, res.Test.Length(), st.Length())
		}
		if _, err := core.CertifyWithOracle(res.Test, faults, sim.Config{}); err != nil {
			t.Errorf("seed %d: winner fails independent re-certification: %v", seed, err)
		}
	}
}

// Property: a hand-built test with known-redundant operations strictly
// shrinks. March ABL1 plus a redundant verification sweep is 11n and covers
// list2; the optimizer must at minimum find its way back to ≤ 9n.
func TestShrinksKnownRedundantSeed(t *testing.T) {
	redundant := march.MustParse("ABL1 padded",
		"c(w0) c(w0,r0,r0,w1) c(w1,r1,r1,w0) c(r0,r0)")
	if got := redundant.Length(); got != 11 {
		t.Fatalf("padded seed is %dn, want 11n", got)
	}
	res, err := Run(list2(t), Options{Seed: 1, Budget: 300, SeedTest: &redundant})
	if err != nil {
		t.Fatal(err)
	}
	if res.Test.Length() >= redundant.Length() {
		t.Errorf("winner %dn did not shrink the redundant %dn seed", res.Test.Length(), redundant.Length())
	}
}

// A seed test that does not cover the list is rejected up front, not
// silently optimized into something unrelated.
func TestSeedMustCoverList(t *testing.T) {
	seed := march.MATSPlus // 5n, nowhere near covering static linked faults
	_, err := Run(list2(t), Options{SeedTest: &seed})
	if err == nil || !strings.Contains(err.Error(), "does not cover") {
		t.Fatalf("err = %v, want seed-coverage rejection", err)
	}
}

func TestEmptyFaultListRejected(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("empty fault list accepted")
	}
}

// Without an explicit seed test, Run generates one with package core and
// optimizes from there.
func TestGeneratedSeed(t *testing.T) {
	res, err := Run(list2(t), Options{Seed: 1, Budget: 150})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed.Length() == 0 || res.Test.Length() > res.Seed.Length() {
		t.Errorf("winner %dn vs generated seed %dn", res.Test.Length(), res.Seed.Length())
	}
	if res.Test.Prov.SeedTest != res.Seed.Name {
		t.Errorf("provenance seed test %q, want %q", res.Test.Prov.SeedTest, res.Seed.Name)
	}
}

// Cancellation aborts the search promptly with ctx.Err().
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seed := march.MarchABL1
	_, err := RunContext(ctx, list2(t), Options{SeedTest: &seed})
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("err = %v, want context cancellation", err)
	}
}

// The budget is a hard ceiling on coverage evaluations.
func TestBudgetRespected(t *testing.T) {
	seed := march.MarchABL1
	res, err := Run(list2(t), Options{Seed: 1, Budget: 25, SeedTest: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evaluations > 25 {
		t.Errorf("spent %d evaluations, budget 25", res.Stats.Evaluations)
	}
}

// OnProgress observes monotone evaluation counts and the restart index.
func TestProgressCallback(t *testing.T) {
	var calls []Progress
	seed := march.MarchABL1
	_, err := Run(list2(t), Options{
		Seed: 1, Budget: 150, SeedTest: &seed,
		OnProgress: func(p Progress) { calls = append(calls, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no progress callbacks")
	}
	last := -1
	for _, p := range calls {
		if p.Evaluations < last {
			t.Errorf("evaluations went backwards: %d after %d", p.Evaluations, last)
		}
		last = p.Evaluations
		if p.BestLength <= 0 || p.BestLength > seed.Length() {
			t.Errorf("best length %d out of range", p.BestLength)
		}
	}
}

// The optimizer's winner agrees with the reference oracle by construction
// (certify-before-land); cross-check one winner explicitly against the
// oracle to keep the invariant pinned from this package too.
func TestWinnerAgreesWithOracle(t *testing.T) {
	seed := march.MarchABL1
	res, err := Run(list2(t), Options{Seed: 7, Budget: 200, SeedTest: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := oracle.CrossCheck(res.Test, list2(t), sim.DefaultConfig()); len(diffs) > 0 {
		t.Fatalf("oracle divergence on winner: %v", diffs[0])
	}
}

// Canonical spells out every default: the zero options and the options
// with each default written out canonicalize alike, and Canonical is
// idempotent.
func TestOptionsCanonical(t *testing.T) {
	spelled := Options{
		Name: "March OPT", Seed: 1, Budget: 2000, BeamWidth: 4, Restarts: 3,
		Config: sim.DefaultConfig(),
	}
	c := Options{}.Canonical()
	if !reflect.DeepEqual(c, spelled.Canonical()) {
		t.Errorf("Canonical of the zero options %+v, of the spelled-out defaults %+v", c, spelled.Canonical())
	}
	if !reflect.DeepEqual(c, c.Canonical()) {
		t.Errorf("Canonical is not idempotent: %+v, then %+v", c, c.Canonical())
	}
	if c.Name != "March OPT" || c.Seed != 1 || c.Budget != 2000 || c.BeamWidth != 4 || c.Restarts != 3 {
		t.Errorf("Canonical() = %+v", c)
	}
}
