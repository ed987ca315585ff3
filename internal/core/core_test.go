package core

import (
	"encoding/json"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// Generation for Fault List #2 (the March ABL1 row of Table 1): the
// generated test must fully cover the list and be at most as long as the
// paper's 9n result.
func TestGenerateList2(t *testing.T) {
	res, err := Generate(faultlist.List2(), Options{Name: "GEN-L2"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete coverage: %s", res.Report.Summary())
	}
	if got := res.Test.Length(); got > march.MarchABL1.Length() {
		t.Errorf("generated %dn, paper's March ABL1 is %dn", got, march.MarchABL1.Length())
	}
	if err := res.Test.CheckConsistency(); err != nil {
		t.Error(err)
	}
	if res.Stats.Duration <= 0 || res.Stats.Simulations == 0 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
}

// The generated test is non-redundant: removing any single operation breaks
// coverage or march consistency (the paper's Section 7 claim).
func TestGeneratedList2NonRedundant(t *testing.T) {
	res, err := Generate(faultlist.List2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	faults := faultlist.List2()
	cfg := sim.DefaultConfig()
	for i := range res.Test.Elems {
		for j := range res.Test.Elems[i].Ops {
			trial := res.Test.Clone()
			if len(trial.Elems[i].Ops) == 1 {
				trial.Elems = append(trial.Elems[:i], trial.Elems[i+1:]...)
			} else {
				ops := trial.Elems[i].Ops
				trial.Elems[i].Ops = append(ops[:j], ops[j+1:]...)
			}
			if trial.Validate() != nil || trial.CheckConsistency() != nil {
				continue // removal is structurally impossible: fine
			}
			r := sim.Simulate(trial, faults, cfg)
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if r.Full() {
				t.Errorf("dropping op %d of element %d keeps full coverage: redundant test %s",
					j, i, res.Test)
				return
			}
		}
	}
}

// Generation for Fault List #1 (the March ABL/RABL rows): full coverage of
// the complete Definition-6 space and strictly shorter than March SL (41n),
// the only published test that also fully covers it.
func TestGenerateList1(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second generation run")
	}
	res, err := Generate(faultlist.List1(), Options{Name: "GEN-L1"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete coverage: %s", res.Report.Summary())
	}
	if got := res.Test.Length(); got >= march.MarchSL.Length() {
		t.Errorf("generated %dn does not improve on March SL (41n)", got)
	}
}

// Generation with simple static faults added to List #1 — the configuration
// under which the published March ABL also reaches full coverage — must
// still beat March SL.
func TestGenerateList1PlusSimple(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second generation run")
	}
	faults := append(faultlist.List1(), faultlist.SimpleStatic()...)
	res, err := Generate(faults, Options{Name: "GEN-L1S"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete coverage: %s", res.Report.Summary())
	}
	if got := res.Test.Length(); got >= march.MarchSL.Length() {
		t.Errorf("generated %dn does not improve on March SL (41n)", got)
	}
}

// The aggressive profile must never produce a longer test than the default
// one on the same list.
func TestGenerateAggressiveNotWorse(t *testing.T) {
	def, err := Generate(faultlist.List2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Generate(faultlist.List2(), Options{Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Test.Length() > def.Test.Length() {
		t.Errorf("aggressive %dn > default %dn", agg.Test.Length(), def.Test.Length())
	}
	if !agg.Report.Full() {
		t.Errorf("aggressive run lost coverage: %s", agg.Report.Summary())
	}
}

// Generating for the simple static faults alone: March SS (22n) is the
// published reference; the generator must reach full coverage without
// exceeding it.
func TestGenerateSimpleStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second generation run")
	}
	res, err := Generate(faultlist.SimpleStatic(), Options{Name: "GEN-SS"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete coverage: %s", res.Report.Summary())
	}
	if got := res.Test.Length(); got > march.MarchSS.Length() {
		t.Errorf("generated %dn, March SS is %dn", got, march.MarchSS.Length())
	}
}

// Same options in, same march test out: the pipeline is deterministic.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(faultlist.List2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(faultlist.List2(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Test.Equal(b.Test) {
		t.Errorf("non-deterministic generation:\n%s\n%s", a.Test, b.Test)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, Options{}); err == nil {
		t.Error("empty fault list must error")
	}
}

func TestGenerateName(t *testing.T) {
	res, err := Generate(faultlist.Realistic(faultlist.List2()), Options{Name: "My Test"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Test.Name != "My Test" {
		t.Errorf("Name = %q", res.Test.Name)
	}
	anon, err := Generate(faultlist.Realistic(faultlist.List2()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if anon.Test.Name != "March GEN" {
		t.Errorf("default name = %q", anon.Test.Name)
	}
}

func TestCertify(t *testing.T) {
	r, err := Certify(march.MarchSL, faultlist.List2())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Full() {
		t.Errorf("March SL must certify on List #2: %s", r.Summary())
	}
	r2, err := Certify(march.MATSPlus, faultlist.List2())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Full() {
		t.Error("MATS+ must not certify on List #2")
	}
}

func TestEntryConstraintAndExit(t *testing.T) {
	ops := func(s string) []fp.Op {
		o, err := fp.ParseOps(s)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	if got := entryConstraint(ops("r0,w1")); got != fp.V0 {
		t.Errorf("entryConstraint(r0,w1) = %v", got)
	}
	if got := entryConstraint(ops("w1,r1")); got != fp.VX {
		t.Errorf("entryConstraint(w1,r1) = %v", got)
	}
	if got := entryConstraint(ops("t,r1")); got != fp.V1 {
		t.Errorf("entryConstraint(t,r1) = %v", got)
	}
	if got := exitValue(ops("r0,w1,r1,w0"), fp.V0); got != fp.V0 {
		t.Errorf("exitValue = %v", got)
	}
	if got := exitValue(ops("r1,r1"), fp.V1); got != fp.V1 {
		t.Errorf("exitValue without writes = %v", got)
	}
	m := march.MustParse("x", "c(w0) ^(r0,w1)")
	if got := testExit(m); got != fp.V1 {
		t.Errorf("testExit = %v", got)
	}
}

func TestBuildTemplatesConsistent(t *testing.T) {
	ts := buildTemplates()
	// Every shape appears in both orders; entry-constrained shapes also get
	// a write-prefixed (entry-free) variant in both orders.
	min, max := 2*len(templateOps), 4*len(templateOps)
	if len(ts) < min || len(ts) > max {
		t.Fatalf("%d templates, want between %d and %d", len(ts), min, max)
	}
	for _, tpl := range ts {
		if len(tpl.ops) == 0 {
			t.Error("empty template")
		}
		// Entry constraint recomputation must agree.
		if tpl.entry != entryConstraint(tpl.ops) {
			t.Errorf("template %v: inconsistent entry constraint", tpl.ops)
		}
	}
}

func TestFaultTPs(t *testing.T) {
	lf, err := linked.NewLF1(fp.MustParseFP("<0w1/0/->"), fp.MustParseFP("<0r0/1/1>"))
	if err != nil {
		t.Fatal(err)
	}
	tps := faultTPs(lf)
	if len(tps) != 2 {
		t.Fatalf("linked fault: %d TPs, want 2 (FP2 first, then FP1)", len(tps))
	}
	// FP2 = RDF at state 0: excitation is a read expecting the fault-free 0.
	if tps[0].init != fp.V0 || len(tps[0].ops) != 1 || tps[0].ops[0] != fp.R0 || tps[0].after != fp.V0 {
		t.Errorf("TP2 = %+v", tps[0])
	}
	// FP1 = TF up: excitation w1 from state 0, fault-free lands at 1.
	if tps[1].init != fp.V0 || len(tps[1].ops) != 1 || tps[1].ops[0] != fp.W1 || tps[1].after != fp.V1 {
		t.Errorf("TP1 = %+v", tps[1])
	}

	simple, err := linked.NewSimple(fp.MustParseFP("<1w1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	stps := faultTPs(simple)
	if len(stps) != 1 || len(stps[0].ops) != 1 || stps[0].ops[0] != fp.W1 || stps[0].init != fp.V1 {
		t.Errorf("simple TPs = %+v", stps)
	}

	// A dynamic fault's TP carries both sensitizing operations with
	// fault-free read expectations.
	dyn, err := linked.NewSimple(fp.MustParseFP("<0w1r1/0/1>"))
	if err != nil {
		t.Fatal(err)
	}
	dtps := faultTPs(dyn)
	if len(dtps) != 1 || len(dtps[0].ops) != 2 || dtps[0].ops[0] != fp.W1 || dtps[0].ops[1] != fp.R1 {
		t.Errorf("dynamic TPs = %+v", dtps)
	}
}

func TestBuildSnippet(t *testing.T) {
	tp := singleTP{init: fp.V1, ops: []fp.Op{fp.W1}, after: fp.V1}
	// From value 0: connect w1, excite w1, observe r1.
	got := buildSnippet(fp.V0, tp, 1)
	want := "w1,w1,r1"
	if fp.FormatOps(got) != want {
		t.Errorf("snippet = %s, want %s", fp.FormatOps(got), want)
	}
	// Already at 1: no connect; two observing reads.
	got = buildSnippet(fp.V1, tp, 2)
	if fp.FormatOps(got) != "w1,r1,r1" {
		t.Errorf("snippet = %s", fp.FormatOps(got))
	}
}

// CertifyWithOracle re-certifies the generated test with the independent
// reference simulator; on the real generator output the two implementations
// must agree, so the flag changes nothing but adds the cross-check.
func TestGenerateCertifyWithOracle(t *testing.T) {
	res, err := Generate(faultlist.List2(), Options{Name: "GEN-ORACLE", CertifyWithOracle: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Full() {
		t.Fatalf("incomplete coverage: %s", res.Report.Summary())
	}
}

// The flag is part of the canonical options wire form.
func TestOptionsJSONCertifyWithOracle(t *testing.T) {
	b, err := Options{CertifyWithOracle: true}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var o Options
	if err := json.Unmarshal(b, &o); err != nil {
		t.Fatal(err)
	}
	if !o.CertifyWithOracle {
		t.Fatalf("flag lost across the JSON round trip: %s", b)
	}
}
