// Package core implements the paper's primary contribution (Section 5): the
// automatic generation of march tests for a target list of (linked) memory
// faults.
//
// The generator follows the structure of Figure 5, instantiated as three
// phases (DESIGN.md discusses how each maps onto the pseudo-code):
//
//  1. Walk (walker.go) — builds valid Sequences of Operations (Definition
//  11. on the pattern-graph view of the single-cell faults: for every
//     still-uncovered fault it chains initialization, excitation and
//     observation operations on one cell, then closes the SO into a March
//     Element (step 1.c.iii of Figure 5). After every element the candidate
//     is fault-simulated and covered faults are deleted (step 1.c.ii).
//  2. Repair (repair.go) — the "apply the Sequence of Operations to each
//     memory cell" step generalized to coupling faults: march elements from
//     a template library (both address orders) are appended greedily until
//     the fault simulator reports no uncovered fault.
//  3. Minimize (minimize.go) — simulation-guided redundancy elimination:
//     any element or operation whose removal preserves 100% coverage and
//     march consistency is dropped. This realizes the paper's
//     "non-redundant march tests" claim and is what pushes the generated
//     lengths below the hand-made baselines of Table 1.
//
// Every generated test is certified by the fault simulator under the
// exhaustive configuration before being returned, mirroring the paper's
// Section 6 ("all generated Tests have been fault simulated").
package core

import (
	"context"
	"fmt"
	"time"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// OrderConstraint restricts the address orders the generator may emit.
// Section 7 of the paper lists this as future work: march tests whose
// elements all use the same address order (all ⇑ or all ⇓) can be
// implemented more efficiently in BIST hardware. ⇕ elements are always
// allowed — they are order-indifferent by definition and thus compatible
// with any single-order implementation.
type OrderConstraint uint8

// Order constraints.
const (
	OrderFree     OrderConstraint = iota // any mix of orders (default)
	OrderUpOnly                          // only ⇑ (and ⇕) elements
	OrderDownOnly                        // only ⇓ (and ⇕) elements
)

// Allows reports whether an element order is admissible under the
// constraint.
func (c OrderConstraint) Allows(o march.AddrOrder) bool {
	switch c {
	case OrderUpOnly:
		return o == march.Up || o == march.Any
	case OrderDownOnly:
		return o == march.Down || o == march.Any
	}
	return true
}

// walkOrder returns the order the walker should emit under the constraint.
func (c OrderConstraint) walkOrder() march.AddrOrder {
	if c == OrderDownOnly {
		return march.Down
	}
	return march.Up
}

// Options configures a generation run.
type Options struct {
	// Name is the name given to the generated test ("March GEN" if empty).
	Name string
	// Aggressive enables the extra minimization passes (pairwise operation
	// removal and element merging) used for the March RABL row of Table 1.
	Aggressive bool
	// Orders constrains the address orders of the generated test (the
	// Section 7 extension). The default OrderFree places no restriction.
	Orders OrderConstraint
	// SkipMinimize disables the redundancy-elimination phase, exposing the
	// raw walker+repair candidate (for ablation studies; the result is
	// still certified at full coverage, just longer).
	SkipMinimize bool
	// MaxSOLen bounds the length of a single walker-built march element;
	// 0 means the default of 11 (the longest element of March RABL).
	MaxSOLen int
	// SearchConfig is the simulator configuration used inside the search
	// loop; the zero value selects a 4-cell memory with lazy ⇕ resolution.
	SearchConfig sim.Config
	// FinalConfig is the simulator configuration used for the final
	// certification; the zero value selects the exhaustive default.
	FinalConfig sim.Config
	// MaxRepairRounds bounds the repair/validate iterations; 0 means 4.
	MaxRepairRounds int
	// CertifyWithOracle re-certifies the final test against the independent
	// reference simulator (internal/oracle) and fails the run on any
	// divergence between the two implementations — verdict, missed set or
	// witness. The oracle shares no code with internal/sim on the verdict
	// path, so an agreement here is meaningful evidence that the coverage
	// claim does not rest on a simulator bug.
	CertifyWithOracle bool
	// Width, when above 1, additionally grades the generated test on a
	// word-oriented memory of that width: intra-word two-cell faults under
	// the standard background set (internal/word). 0 or 1 keeps the classic
	// bit-oriented run byte-identical to pre-axis behavior.
	Width int
	// Transparent additionally evaluates the in-field transparent variant
	// of the test (initialization dropped, content as background — Li et
	// al.). Only meaningful with Width > 1; ignored otherwise.
	Transparent bool
	// Ports, when 2, additionally grades the test against the two-port
	// weak-fault catalog (internal/mport): coverage of its single-port lift
	// plus a dedicated two-port march. 0 or 1 means single-port.
	Ports int
}

func (o Options) name() string {
	if o.Name == "" {
		return "March GEN"
	}
	return o.Name
}

func (o Options) maxSOLen() int {
	if o.MaxSOLen <= 0 {
		return 11
	}
	return o.MaxSOLen
}

func (o Options) searchConfig() sim.Config {
	c := o.SearchConfig
	if c.Size <= 0 {
		c.Size = 4
	}
	return c
}

func (o Options) finalConfig() sim.Config {
	c := o.FinalConfig
	if c.Size <= 0 {
		c = sim.DefaultConfig()
	}
	return c
}

func (o Options) maxRepairRounds() int {
	if o.MaxRepairRounds <= 0 {
		return 4
	}
	return o.MaxRepairRounds
}

// Stats records what the pipeline did.
type Stats struct {
	// Faults is the size of the target list.
	Faults int
	// WalkerElements and WalkerOps describe the phase-1 candidate.
	WalkerElements int
	WalkerOps      int
	// RepairElements counts elements added by phase 2.
	RepairElements int
	// LengthBeforeMinimize is the candidate length entering phase 3.
	LengthBeforeMinimize int
	// Simulations counts candidate evaluations: one per fault a walker
	// step checks, one per fault-list check of a candidate (each repair
	// round starts with one, each minimizer check is one), and one per
	// repair trial × missing fault. It counts verdicts, not stream
	// replays: repair and minimize trials resume from a checkpoint of the
	// candidate and simulate only the elements from the edited one on (a
	// repair trial, only the appended element), but count what a
	// from-scratch trial counted. So does a repair trial that stops once
	// it cannot beat the round's best, and one skipped without a resume
	// because it could not beat it even covering every missing fault: each
	// still counts every missing fault.
	Simulations int
	// Duration is the wall-clock generation time (the CPU-time column of
	// Table 1).
	Duration time.Duration
}

// Result is a generation outcome.
type Result struct {
	// Test is the generated march test, certified at 100% coverage of the
	// target list.
	Test march.Test
	// Report is the final exhaustive simulation report.
	Report sim.Report
	// Stats describes the run.
	Stats Stats
	// Word is the word-oriented evaluation (nil unless Options.Width > 1).
	Word *WordResult
	// Mport is the multi-port evaluation (nil unless Options.Ports > 1).
	Mport *MportResult
}

// Generate produces a march test covering every fault in the list. It
// returns an error only if the fault list cannot be covered by construction
// (which cannot happen for the static linked fault lists of the paper) or if
// a fault cannot be simulated under the given configurations.
func Generate(faults []linked.Fault, opts Options) (Result, error) {
	return GenerateContext(context.Background(), faults, opts)
}

// GenerateContext is Generate with cancellation and deadline support: the
// context is checked between simulation batches in every phase (walk,
// repair, minimize), so a canceled or expired context aborts the run within
// one candidate evaluation and returns ctx.Err(). This is the entry point
// long-lived callers (the marchd job engine) use for per-job deadlines.
func GenerateContext(ctx context.Context, faults []linked.Fault, opts Options) (Result, error) {
	start := time.Now()
	if len(faults) == 0 {
		return Result{}, fmt.Errorf("core: empty fault list")
	}
	if err := opts.validateAxes(); err != nil {
		return Result{}, err
	}
	st := &Stats{Faults: len(faults)}

	// Every march test in this construction starts by initializing the
	// array (the ⇕(w0) of every test in Table 1).
	cand := march.Test{Name: opts.name(), Elems: []march.Element{
		march.NewElement(march.Any, fp.W0),
	}}

	// Phase 1: walk the single-cell faults into Sequences of Operations.
	cand = walk(ctx, cand, faults, opts, st)
	st.WalkerElements = len(cand.Elems) - 1
	st.WalkerOps = cand.Length() - 1
	if err := sim.ContextErr(ctx); err != nil {
		return Result{}, err
	}

	// Phase 2 + certification loop: repair under the search configuration,
	// then certify under the exhaustive one; if certification finds a miss
	// (an address-order-sensitive fault), repair again against the stricter
	// configuration.
	var report sim.Report
	for round := 0; ; round++ {
		if round >= opts.maxRepairRounds() {
			return Result{}, fmt.Errorf("core: no full-coverage candidate after %d repair rounds", round)
		}
		var err error
		cfg := opts.searchConfig()
		if round > 0 {
			cfg = opts.finalConfig()
		}
		var cp *sim.Checkpoint
		cand, cp, err = repair(ctx, cand, faults, cfg, opts, st, longestFirst)
		if err != nil {
			return Result{}, err
		}
		st.LengthBeforeMinimize = cand.Length()

		if !opts.SkipMinimize {
			cand, err = minimize(ctx, cand, cp, opts, st)
			if err != nil {
				return Result{}, err
			}
		}

		report = sim.Simulate(cand, faults, opts.finalConfig())
		if err := report.Err(); err != nil {
			return Result{}, err
		}
		if report.Full() {
			break
		}
	}

	if err := cand.CheckConsistency(); err != nil {
		return Result{}, fmt.Errorf("core: generated test inconsistent: %v", err)
	}
	if opts.CertifyWithOracle {
		if diffs := oracle.CrossCheckReport(report, faults, opts.finalConfig()); len(diffs) > 0 {
			return Result{}, fmt.Errorf("core: oracle cross-check found %d divergence(s) on %q; first: %s",
				len(diffs), cand.Name, diffs[0])
		}
	}
	cand.Origin = march.OriginGenerated
	res := Result{Test: cand, Report: report}
	if err := evaluateAxes(ctx, cand, opts, &res); err != nil {
		return Result{}, err
	}
	st.Duration = time.Since(start)
	res.Stats = *st
	return res, nil
}

// entryConstraint returns the fault-free cell value an element requires on
// entry (the expectation of any read occurring before the first write), or
// VX if the element starts with a write.
func entryConstraint(ops []fp.Op) fp.Value {
	for _, op := range ops {
		switch op.Kind {
		case fp.OpWrite:
			return fp.VX
		case fp.OpRead:
			return op.Data
		}
	}
	return fp.VX
}

// exitValue returns the fault-free cell value after applying the element's
// operations to a cell holding entry.
func exitValue(ops []fp.Op, entry fp.Value) fp.Value {
	v := entry
	for _, op := range ops {
		if op.Kind == fp.OpWrite {
			v = op.Data
		}
	}
	return v
}

// testExit returns the fault-free cell value after the whole candidate.
func testExit(t march.Test) fp.Value {
	v := fp.VX
	for _, e := range t.Elems {
		v = exitValue(e.Ops, v)
	}
	return v
}
