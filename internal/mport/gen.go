package mport

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// Options configures two-port generation.
type Options struct {
	// Name names the generated test ("March 2P" if empty).
	Name string
	// SkipMinimize keeps the raw directed construction (ablation).
	SkipMinimize bool
}

func (o Options) name() string {
	if o.Name == "" {
		return "March 2P"
	}
	return o.Name
}

// fireElement builds the directed element that sensitizes a WCC fault in
// one sweep direction and lets its victims be observed:
//
//   - every cycle starts with a transparent read of the marching cell, so a
//     victim corrupted while unprocessed is caught when the sweep reaches
//     it;
//   - a write sets the marching cell to the state the fault's near-side
//     condition requires;
//   - the operation pair applies the two weak conditions simultaneously:
//     the marching port on its cell, the second port on the neighbor the
//     sweep has already processed (whose state the trailing write pinned);
//   - the trailing write pins the processed region to the far-side
//     condition's state.
//
// In a ⇓ sweep the processed neighbor is cell+1, so the pair is
// (op1 : op2+1) and it fires when the sweep stands on the lower aggressor;
// the ⇑ mirror uses (op2 : op1-1) and fires on the upper one. Unprocessed
// victims hold the background value, so a background write of the fault's
// victim state precedes the element (bgElement).
func fireElement(f Fault, up bool) Element {
	render := func(c WeakCond) PairOp {
		// Rendering for the A port: writes carry their value; reads are
		// transparent (the processed-region state is not uniform enough for
		// a declared expectation).
		op := c.Op
		if op.Kind == fp.OpRead {
			op = fp.RX
		}
		return PairOp{A: op, BTarget: None}
	}
	near, far := f.C1, f.C2
	target := Next
	order := march.Down
	if up {
		near, far = f.C2, f.C1
		target = Prev
		order = march.Up
	}
	pair := render(near)
	pair.BTarget = target
	pair.B = far.Op
	if pair.B.Kind == fp.OpRead {
		pair.B = fp.RX
	}
	ops := []PairOp{
		{A: fp.RX, BTarget: None},           // observe the marching cell first
		{A: fp.W(near.Init), BTarget: None}, // set the near-side condition state
		pair,                                // fire
		{A: fp.W(far.Init), BTarget: None},  // pin the processed region
	}
	return Element{Order: order, Ops: ops}
}

// bgElement writes the fault's victim state as the array background.
func bgElement(f Fault) Element {
	return Element{Order: march.Up, Ops: []PairOp{{A: fp.W(f.State), BTarget: None}}}
}

// w2Block covers the same-cell double-read family: double reads with a
// follow-up read in both polarities.
func w2Block() []Element {
	return MustParse("w2",
		"^(w0:-) ^(r0:r0,r0:-) ^(w1:-) ^(r1:r1,r1:-)").Elems
}

// Generate produces a two-port march test covering every fault in the list
// by directed construction — one background/fire pair per WCC fault and
// sweep direction, bracketed by transparent observe sweeps — followed by
// simulation-guided minimization (the internal/core phase-3 analogue). The
// result is certified before being returned.
func Generate(faults []Fault, opts Options) (Test, Report, error) {
	if len(faults) == 0 {
		return Test{}, Report{}, fmt.Errorf("mport: empty fault list")
	}
	cand := Test{Name: opts.name()}
	cand.Elems = append(cand.Elems, Element{Order: march.Any, Ops: []PairOp{{A: fp.W0, BTarget: None}}})
	cand.Elems = append(cand.Elems, w2Block()...)

	seen := map[string]bool{}
	for _, f := range faults {
		if f.Class != WCC {
			continue
		}
		for _, up := range []bool{false, true} {
			fire := fireElement(f, up)
			bg := bgElement(f)
			key := bg.String() + fire.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			cand.Elems = append(cand.Elems, bg, fire)
		}
	}
	// Final observe sweeps catch victims corrupted by the last fire
	// elements in either region.
	cand.Elems = append(cand.Elems,
		Element{Order: march.Up, Ops: []PairOp{{A: fp.RX, BTarget: None}}},
		Element{Order: march.Down, Ops: []PairOp{{A: fp.RX, BTarget: None}}},
	)

	if err := cand.Validate(); err != nil {
		return Test{}, Report{}, err
	}
	if err := cand.CheckConsistency(arrayCells); err != nil {
		return Test{}, Report{}, err
	}
	rep, err := Simulate(cand, faults)
	if err != nil {
		return Test{}, Report{}, err
	}
	if !rep.Full() {
		return Test{}, Report{}, fmt.Errorf("mport: directed construction incomplete: %s (first miss: %s)",
			rep.Summary(), rep.Missed[0].ID())
	}
	if opts.SkipMinimize {
		return cand, rep, nil
	}

	// Minimization: drop any element or operation whose removal keeps full
	// coverage and consistency. The check fails fast — most trials lose some
	// fault, and rechecking the previous trial's culprit first usually
	// refutes them on the first fault instead of sweeping the whole catalog.
	culprit := 0
	full := func(t Test) (bool, error) {
		if t.Validate() != nil || t.CheckConsistency(arrayCells) != nil {
			return false, nil
		}
		for k := 0; k < len(faults); k++ {
			i := (culprit + k) % len(faults)
			det, err := Detects(t, faults[i])
			if err != nil {
				return false, err
			}
			if !det {
				culprit = i
				return false, nil
			}
		}
		return true, nil
	}
	for changed := true; changed; {
		changed = false
		for i := len(cand.Elems) - 1; i >= 0; i-- {
			trial := cand.Clone()
			trial.Elems = append(trial.Elems[:i], trial.Elems[i+1:]...)
			ok, err := full(trial)
			if err != nil {
				return Test{}, Report{}, err
			}
			if ok {
				cand, changed = trial, true
			}
		}
		for i := len(cand.Elems) - 1; i >= 0; i-- {
			for j := len(cand.Elems[i].Ops) - 1; j >= 0; j-- {
				if len(cand.Elems[i].Ops) == 1 {
					continue
				}
				trial := cand.Clone()
				ops := trial.Elems[i].Ops
				trial.Elems[i].Ops = append(ops[:j], ops[j+1:]...)
				ok, err := full(trial)
				if err != nil {
					return Test{}, Report{}, err
				}
				if ok {
					cand, changed = trial, true
				}
			}
		}
	}

	rep, err = Simulate(cand, faults)
	if err != nil {
		return Test{}, Report{}, err
	}
	if !rep.Full() {
		return Test{}, Report{}, fmt.Errorf("mport: minimization lost coverage: %s", rep.Summary())
	}
	return cand, rep, nil
}
