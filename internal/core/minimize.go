package core

import (
	"context"
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// minimize is phase 3 of the generator: simulation-guided redundancy
// elimination. A candidate transformation is accepted iff the result is
// still a consistent march test with full coverage of the target list. The
// passes run to a fixpoint:
//
//   - drop whole elements (scanning from the end, where repair appended);
//   - drop single operations inside elements;
//   - with Options.Aggressive: drop operation pairs within an element and
//     merge adjacent elements with the same address order (the deeper search
//     that produced the March RABL row of Table 1).
//
// The result is non-redundant in the paper's sense: no single operation can
// be removed without losing coverage.
//
// Every trial keeps the candidate's elements before the one it edits, so
// the trials run on cp, the candidate's checkpoint under the configuration
// repair ran with (repair hands it over): Covers resumes a trial from the
// boundary after the elements it shares with the candidate, simulating
// only the rest. An accepted trial is committed to the checkpoint, which
// then holds the new candidate's states without another simulation. The
// checkpoint's fault list is the accept predicate's own copy, scanned
// fail-first: a fault a trial misses moves to the front, so the next trial
// that misses it is rejected after one fault. The ⇕ relaxation is judged
// under the exhaustive configuration, on a second checkpoint of the
// candidate built at its first trial.
func minimize(ctx context.Context, cand march.Test, cp *sim.Checkpoint, opts Options, st *Stats) (march.Test, error) {
	// admissible runs before every candidate simulation, so checking the
	// context here bounds a cancellation's latency to one full-coverage
	// evaluation.
	admissible := func(t march.Test) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return len(t.Elems) > 0 && t.Validate() == nil && t.CheckConsistency() == nil, nil
	}
	// covers judges a trial on a checkpoint: it commits a trial that covers
	// the list, and otherwise moves the first fault the trial misses to the
	// front.
	covers := func(cp *sim.Checkpoint, t march.Test) (bool, error) {
		st.Simulations++
		full, miss, err := cp.Covers(t)
		if err != nil {
			return false, err
		}
		if !full {
			cp.MoveToFront(miss)
			return false, nil
		}
		cp.Commit()
		return true, nil
	}
	accepts := func(t march.Test) (bool, error) {
		if ok, err := admissible(t); !ok {
			return false, err
		}
		return covers(cp, t)
	}
	// Order relaxation must be judged under the exhaustive configuration:
	// with lazy ⇕ resolution, turning ⇓ into ⇕ silently becomes ⇑.
	var relaxed *sim.Checkpoint
	acceptsRelaxed := func(t march.Test) (bool, error) {
		if ok, err := admissible(t); !ok {
			return false, err
		}
		if relaxed == nil {
			sched, err := sim.NewSchedule(cp.Test(), opts.finalConfig())
			if err != nil {
				return false, err
			}
			if relaxed, err = sched.Checkpoint(cp.Faults()); err != nil {
				return false, err
			}
		}
		if ok, err := covers(relaxed, t); !ok {
			return false, err
		}
		// Bring the checkpoint, kept under the search configuration, to the
		// relaxed test.
		if _, _, err := cp.Resume(t, len(cp.Faults()), nil); err != nil {
			return false, err
		}
		cp.Commit()
		return true, nil
	}

	for {
		changed := false

		// Element removal, end to start.
		for i := len(cand.Elems) - 1; i >= 0; i-- {
			trial := cand.Clone()
			trial.Elems = append(trial.Elems[:i], trial.Elems[i+1:]...)
			ok, err := accepts(trial)
			if err != nil {
				return cand, err
			}
			if ok {
				cand = trial
				changed = true
			}
		}

		// Single-operation removal, end to start.
		for i := len(cand.Elems) - 1; i >= 0; i-- {
			for j := len(cand.Elems[i].Ops) - 1; j >= 0; j-- {
				if len(cand.Elems[i].Ops) == 1 {
					continue // whole-element removal handles this
				}
				trial := cand.Clone()
				ops := trial.Elems[i].Ops
				trial.Elems[i].Ops = append(ops[:j], ops[j+1:]...)
				ok, err := accepts(trial)
				if err != nil {
					return cand, err
				}
				if ok {
					cand = trial
					changed = true
				}
			}
		}

		if opts.Aggressive {
			aggr, aggrChanged, err := aggressivePass(cand, accepts, acceptsRelaxed)
			if err != nil {
				return cand, err
			}
			cand = aggr
			changed = changed || aggrChanged
		}

		if !changed {
			return cand, nil
		}
	}
}

// aggressivePass tries pairwise operation removal within an element and
// merging adjacent elements with the same address order, then relaxes fixed
// orders to ⇕.
func aggressivePass(cand march.Test, accepts, acceptsRelaxed func(march.Test) (bool, error)) (march.Test, bool, error) {
	changed := false

	// Pairwise removal within one element.
	for i := len(cand.Elems) - 1; i >= 0; i-- {
	pairScan:
		for a := len(cand.Elems[i].Ops) - 1; a >= 1; a-- {
			for b := a - 1; b >= 0; b-- {
				if len(cand.Elems[i].Ops) <= 2 {
					break pairScan
				}
				trial := cand.Clone()
				ops := trial.Elems[i].Ops
				ops = append(ops[:a], ops[a+1:]...)
				ops = append(ops[:b], ops[b+1:]...)
				trial.Elems[i].Ops = ops
				ok, err := accepts(trial)
				if err != nil {
					return cand, changed, err
				}
				if ok {
					cand = trial
					changed = true
					break pairScan
				}
			}
		}
	}

	// Merge adjacent elements with the same order.
	for i := len(cand.Elems) - 2; i >= 0; i-- {
		if cand.Elems[i].Order != cand.Elems[i+1].Order {
			continue
		}
		trial := cand.Clone()
		merged := march.NewElement(trial.Elems[i].Order,
			append(append([]fp.Op(nil), trial.Elems[i].Ops...), trial.Elems[i+1].Ops...)...)
		trial.Elems = append(trial.Elems[:i], trial.Elems[i+1:]...)
		trial.Elems[i] = merged
		ok, err := accepts(trial)
		if err != nil {
			return cand, changed, err
		}
		if ok {
			cand = trial
			changed = true
		}
	}

	// Relax fixed orders to ⇕ where coverage allows: shorter to implement in
	// BIST hardware and closer to the paper's printed results (March ABL1 is
	// all-⇕). Length is unchanged, so this runs last.
	for i := range cand.Elems {
		if cand.Elems[i].Order == march.Any {
			continue
		}
		trial := cand.Clone()
		trial.Elems[i].Order = march.Any
		ok, err := acceptsRelaxed(trial)
		if err != nil {
			return cand, changed, err
		}
		if ok {
			cand = trial
			// Not flagged as "changed": the length did not improve, so the
			// fixpoint loop must not spin on it.
		}
	}
	return cand, changed, nil
}

// Certify re-validates an existing march test against a fault list under
// the exhaustive configuration. It is exposed for the command-line tools
// and experiments.
func Certify(t march.Test, faults []linked.Fault) (sim.Report, error) {
	r := sim.Simulate(t, faults, sim.DefaultConfig())
	return r, r.Err()
}

// CertifyWithOracle is the certify-before-land gate of the search-based
// optimizer (internal/optimize, DESIGN.md §14): the test must be a
// consistent march test, reach full coverage of the fault list under the
// production simulator, AND agree bit-for-bit with the independent
// reference oracle on every verdict. Any failure rejects the test — a
// candidate that only the fast simulator believes in never lands.
func CertifyWithOracle(t march.Test, faults []linked.Fault, cfg sim.Config) (sim.Report, error) {
	if cfg.Size <= 0 {
		cfg = sim.DefaultConfig()
	}
	if err := t.CheckConsistency(); err != nil {
		return sim.Report{}, fmt.Errorf("core: certify %q: %v", t.Name, err)
	}
	r := sim.Simulate(t, faults, cfg)
	if err := r.Err(); err != nil {
		return r, fmt.Errorf("core: certify %q: %v", t.Name, err)
	}
	if !r.Full() {
		return r, fmt.Errorf("core: certify %q: %d/%d faults covered", t.Name, r.Detected(), r.Total())
	}
	if diffs := oracle.CrossCheckReport(r, faults, cfg); len(diffs) > 0 {
		return r, fmt.Errorf("core: certify %q: oracle cross-check found %d divergence(s); first: %s",
			t.Name, len(diffs), diffs[0])
	}
	return r, nil
}
