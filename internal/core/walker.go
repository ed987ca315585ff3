package core

import (
	"context"

	"marchgen/internal/afp"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// walk is phase 1 of the generator: it builds valid Sequences of Operations
// (Definition 11 — all operations on the same cell) covering the single-cell
// faults of the list, and closes each SO into a march element (Figure 5,
// step 1.c). The SO is assembled from the faults' test patterns
// (initialization / excitation / observation, Definition 5); after each
// element the candidate is fault-simulated and the covered faults deleted
// (step 1.c.ii), so an operation chain that happens to cover later faults
// shortens the walk.
func walk(ctx context.Context, cand march.Test, faults []linked.Fault, opts Options, st *Stats) march.Test {
	var singles []linked.Fault
	for _, f := range faults {
		if f.Cells == 1 {
			singles = append(singles, f)
		}
	}
	if len(singles) == 0 {
		return cand
	}
	cfg := opts.searchConfig()

	pending := singles
	for len(pending) > 0 && sim.ContextErr(ctx) == nil {
		v := testExit(cand) // fault-free cell value entering the new element
		var so []fp.Op
		progressed := false
		for _, f := range pending {
			if len(so) >= opts.maxSOLen() {
				break
			}
			snippet, ok := coveringSnippet(cand, so, v, f, cfg, opts, st)
			if !ok {
				continue
			}
			so = append(so, snippet...)
			v = exitValue(snippet, v)
			progressed = true
		}
		if !progressed {
			// The remaining single-cell faults need cross-element or
			// coupling-style coverage; leave them to the repair phase.
			break
		}
		cand.Elems = append(cand.Elems, march.NewElement(opts.Orders.walkOrder(), so...))

		// Delete the covered faults (Figure 5, step 1.c.ii). The schedule is
		// compiled once for the grown candidate and shared across the whole
		// pending list.
		sched, serr := sim.NewSchedule(cand, cfg)
		if serr != nil {
			break // the candidate cannot be simulated; repair phase takes over
		}
		next := pending[:0]
		for _, f := range pending {
			det, _, err := sched.DetectsFault(f)
			st.Simulations++
			if err != nil || !det {
				next = append(next, f)
			}
		}
		if len(next) == len(pending) {
			break // no progress; repair phase takes over
		}
		pending = next
	}
	return cand
}

// coveringSnippet proposes operations to append to the SO so that the
// candidate (with the SO as an extra ⇑ element) detects the fault. The
// proposals are derived from the fault's test patterns: for a linked fault
// TP1 → TP2 (eq. 8), detecting either pattern in isolation suffices, so both
// are tried, each with one or two observing reads (the second read catches
// deceptive behaviors). Every proposal is verified by the fault simulator
// before being accepted.
func coveringSnippet(cand march.Test, so []fp.Op, v fp.Value, f linked.Fault, cfg sim.Config, opts Options, st *Stats) ([]fp.Op, bool) {
	for _, tp := range faultTPs(f) {
		for reads := 1; reads <= 2; reads++ {
			snippet := buildSnippet(v, tp, reads)
			trial := cand.Clone()
			trial.Elems = append(trial.Elems, march.NewElement(opts.Orders.walkOrder(), append(append([]fp.Op(nil), so...), snippet...)...))
			if trial.CheckConsistency() != nil {
				continue
			}
			det, _, err := sim.DetectsFault(trial, f, cfg)
			st.Simulations++
			if err == nil && det {
				return snippet, true
			}
		}
	}
	return nil, false
}

// singleTP describes one test pattern of a single-cell fault in march terms.
type singleTP struct {
	init  fp.Value // required cell value before excitation
	ops   []fp.Op  // excitation operations (march rendering; empty for state faults)
	after fp.Value // fault-free cell value after excitation
}

// faultTPs derives the test patterns of a single-cell fault via the AFP
// machinery on a one-cell model: the linked chain TP1 → TP2 for linked
// faults (Definition 7), or the fault's own TP for simple ones. Sensitizing
// reads are re-expressed with the fault-free expectation the march notation
// requires.
func faultTPs(f linked.Fault) []singleTP {
	toSingle := func(a afp.AFP) singleTP {
		s := singleTP{init: a.I.Cell(0), after: a.Gv.Cell(0)}
		cur := a.I.Cell(0)
		for _, aop := range a.Es {
			op := aop.Op
			if op.Kind == fp.OpRead {
				op = fp.R(cur) // march reads carry the fault-free expectation
			}
			if op.Kind == fp.OpWrite {
				cur = op.Data
			}
			s.ops = append(s.ops, op)
		}
		return s
	}
	if f.Kind.IsLinked() {
		pairs, err := afp.Chain(f, 1, []int{0})
		if err != nil || len(pairs) == 0 {
			return nil
		}
		// Prefer detecting FP2 in isolation (its preconditions are reachable
		// fault-free), then FP1.
		return []singleTP{toSingle(pairs[0].Second), toSingle(pairs[0].First)}
	}
	afps, err := afp.Instantiate(f.FP1().FP, 1, afp.Assignment{A: -1, V: 0})
	if err != nil || len(afps) == 0 {
		return nil
	}
	out := make([]singleTP, 0, len(afps))
	for _, a := range afps {
		out = append(out, toSingle(a))
	}
	return out
}

// buildSnippet renders a test pattern as SO operations: connect the cell to
// the pattern's initial value, excite (one operation for static patterns,
// two for dynamic ones), observe with the given number of reads.
func buildSnippet(v fp.Value, tp singleTP, reads int) []fp.Op {
	var ops []fp.Op
	cur := v
	if tp.init.IsBinary() && cur != tp.init {
		ops = append(ops, fp.W(tp.init))
		cur = tp.init
	}
	if len(tp.ops) > 0 {
		ops = append(ops, tp.ops...)
		cur = exitValue(ops, v)
	}
	for i := 0; i < reads; i++ {
		ops = append(ops, fp.R(cur))
	}
	return ops
}
