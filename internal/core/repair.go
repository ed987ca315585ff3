package core

import (
	"context"
	"fmt"
	"slices"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// templateOps is the library of march-element operation shapes the repair
// phase draws from. The shapes are the recurring building blocks of the
// linked-fault literature: read-verify-write hammers for transition and
// disturb coupling faults, double reads for deceptive reads, non-transition
// writes for write destructive faults. Each shape is offered in both
// address orders; applicability is filtered by the entry-value constraint.
var templateOps = [][]string{
	{"r0", "w1"},
	{"r1", "w0"},
	{"r0"},
	{"r1"},
	{"r0", "r0"},
	{"r1", "r1"},
	{"w0"},
	{"w1"},
	{"r0", "w1", "r1", "w0"},
	{"r1", "w0", "r0", "w1"},
	{"r0", "r0", "w0", "r0", "w1"},
	{"r1", "r1", "w1", "r1", "w0"},
	{"r0", "w0", "r0", "w1"},
	{"r1", "w1", "r1", "w0"},
	{"r0", "r0", "w0", "r0", "w1", "w1", "r1"},
	{"r1", "r1", "w1", "r1", "w0", "w0", "r0"},
	{"r0", "w1", "r1", "w1", "r1"},
	{"r1", "w0", "r0", "w0", "r0"},
	{"r0", "w1", "w1", "r1"},
	{"r1", "w0", "w0", "r0"},
	// The March RAW element shapes: back-to-back write/read hammers that
	// sensitize the two-operation dynamic faults.
	{"r0", "w0", "r0", "r0", "w1", "r1"},
	{"r1", "w1", "r1", "r1", "w0", "r0"},
	// Triple reads: the read-read deceptive dynamic faults (dDRDF/dCFdr
	// with an r-r sensitization) flip on the second read but still return
	// the expected value; only a third read observes the corruption.
	{"r0", "r0", "r0"},
	{"r1", "r1", "r1"},
	// Triple read followed by a flip: covers read-read deceptive couplings
	// whose aggressor condition is the complement of the victim value (the
	// trailing write moves earlier cells of the sweep to the aggressor
	// state while later cells still hold the victim value).
	{"r1", "r1", "r1", "w0"},
	{"r0", "r0", "r0", "w1"},
	// Opposite-polarity write-read hammers: arm a w-r dynamic aggressor
	// sequence while the rest of the array (the victim) holds the other
	// sweep value.
	{"r1", "w0", "w1", "r1"},
	{"r0", "w1", "w0", "r0"},
	{"r1", "w0", "r0", "w1", "r1"},
	{"r0", "w1", "r1", "w0", "r0"},
	// The March SL element shapes: the completeness backstop (March SL
	// covers every static linked fault).
	{"r0", "r0", "w1", "w1", "r1", "r1", "w0", "w0", "r0", "w1"},
	{"r1", "r1", "w0", "w0", "r0", "r0", "w1", "w1", "r1", "w0"},
}

type template struct {
	order march.AddrOrder
	ops   []fp.Op
	entry fp.Value // required fault-free entry value (VX = any)
}

func buildTemplates() []template {
	var out []template
	add := func(ops []fp.Op) {
		entry := entryConstraint(ops)
		for _, order := range []march.AddrOrder{march.Up, march.Down} {
			out = append(out, template{order: order, ops: ops, entry: entry})
		}
	}
	for _, shape := range templateOps {
		ops := make([]fp.Op, len(shape))
		for i, s := range shape {
			op, err := fp.ParseOp(s)
			if err != nil {
				panic(err)
			}
			ops[i] = op
		}
		add(ops)
		// A write-prefixed variant makes every entry-constrained shape
		// reachable from any candidate exit value (the prefix write bridges
		// the polarity); the minimizer drops the prefix when redundant.
		if entry := entryConstraint(ops); entry.IsBinary() {
			add(append([]fp.Op{fp.W(entry)}, ops...))
		}
	}
	return out
}

// longestFirst is the order repair scans the template library in, as
// indices into buildTemplates: by operation count, longest first, and by
// library index within a length. Long elements cover the most faults (a
// March SL element covers 347 of List #1's 459 walker misses), so the first
// trials of a round set the bar the others must beat, and a shorter
// template then wins with the same gain.
var longestFirst = func() []int {
	templates := buildTemplates()
	scan := make([]int, len(templates))
	for i := range scan {
		scan[i] = i
	}
	slices.SortStableFunc(scan, func(a, b int) int {
		return len(templates[b].ops) - len(templates[a].ops)
	})
	return scan
}()

// repair is phase 2 of the generator: while the fault simulator reports
// uncovered faults, append the template element covering the most of them
// (greedy set cover). This generalizes Figure 5's "apply the Sequence of
// Operations to each memory cell" to the coupling faults whose excitation
// and observation live on different cells. Termination is guaranteed by the
// March SL element shapes in the template library.
//
// A round picks its template by one key: the most faults covered (gain),
// then the fewest operations, then the lowest library index. It tries the
// admissible templates in the order scan gives (longestFirst), and passes
// each the miss budget that lets it beat the best so far under the key, so
// a trial stops as soon as it misses more; a template that could not beat
// the best even covering every missed fault is not simulated. The key
// decides alone, so the choice is the one of trying every template to the
// end, in any order.
//
// Every trial of a round extends the same candidate, so the candidate is
// simulated once into a checkpoint (sim.Schedule.Checkpoint) and each trial
// resumes the missed faults from its last element boundary, simulating only
// the appended element. The chosen element is committed to the checkpoint,
// so the next round starts from the extended candidate without simulating
// it again. repair returns that checkpoint with the repaired candidate,
// for the minimizer to start from.
func repair(ctx context.Context, cand march.Test, faults []linked.Fault, cfg sim.Config, opts Options, st *Stats, scan []int) (march.Test, *sim.Checkpoint, error) {
	templates := buildTemplates()
	sched, err := sim.NewSchedule(cand, cfg)
	if err != nil {
		return cand, nil, err
	}
	cp, err := sched.Checkpoint(faults)
	if err != nil {
		return cand, nil, err
	}
	// extend appends e to the candidate and to its checkpoint, on a budget
	// no resume can exceed, so the resume records what Commit adopts.
	extend := func(e march.Element) error {
		cand.Elems = append(cand.Elems, e)
		if _, _, err := cp.Resume(cand, len(faults), nil); err != nil {
			return err
		}
		cp.Commit()
		return nil
	}
	var missed []int
	for {
		if err := ctx.Err(); err != nil {
			return cand, nil, err
		}
		st.Simulations++
		missing := cp.Missed()
		if len(missing) == 0 {
			return cand, cp, nil
		}

		v := testExit(cand)
		best := -1
		bestGain := 0
		for _, ti := range scan {
			tpl := templates[ti]
			if err := ctx.Err(); err != nil {
				return cand, nil, err
			}
			if !opts.Orders.Allows(tpl.order) {
				continue
			}
			if tpl.entry.IsBinary() && v.IsBinary() && tpl.entry != v {
				continue
			}
			if tpl.entry.IsBinary() && !v.IsBinary() {
				continue // cannot prove consistency on unknown entry value
			}
			elem := march.NewElement(tpl.order, tpl.ops...)
			trial := cand.Clone()
			trial.Elems = append(trial.Elems, elem)
			if trial.CheckConsistency() != nil {
				continue
			}
			// A pruned or skipped trial counts what a trial run to the end
			// counts.
			st.Simulations += len(missing)
			// need is the least gain with which the template beats the best
			// so far under the key.
			need := 1
			if best >= 0 {
				need = bestGain + 1
				if n, bn := len(tpl.ops), len(templates[best].ops); n < bn || n == bn && ti < best {
					need = bestGain
				}
			}
			if need > len(missing) {
				continue
			}
			var over bool
			missed, over, err = cp.Resume(trial, len(missing)-need, missed[:0])
			if err != nil {
				return cand, nil, err
			}
			if !over {
				best, bestGain = ti, len(missing)-len(missed)
			}
		}
		if best < 0 {
			// No single template makes progress (cannot happen for the
			// paper's fault lists, but user-defined faults may need a
			// re-initialization first).
			if v != fp.V0 {
				if err := extend(march.NewElement(march.Any, fp.W0)); err != nil {
					return cand, nil, err
				}
				continue
			}
			return cand, nil, fmt.Errorf("core: repair cannot cover %d faults (first: %s)", len(missing), missing[0].ID())
		}
		tpl := templates[best]
		if err := extend(march.NewElement(tpl.order, tpl.ops...)); err != nil {
			return cand, nil, err
		}
		st.RepairElements++
	}
}
