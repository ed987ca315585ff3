package sim

import (
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// Resuming a test after one more element.
//
// The generator's repair phase (internal/core) appends one template element
// at a time to a candidate test and asks, for every fault the candidate
// misses, whether the extended test detects it. Every trial of a round
// shares the candidate as its prefix, so the prefix is simulated once
// (Schedule.Checkpoint) and each trial runs only the appended element
// (Checkpoint.Resume).
//
// A resume needs two things from the prefix:
//
//   - per lane-planned fault, the lane end state at every order-combination
//     leaf the prefix leaves undetected in some lane: the k cell words and
//     the detect mask. A leaf every lane detects stays detected whatever
//     follows, so it is dropped, as the trie walks prune it.
//   - the good trace entering the appended element. It is the same at every
//     leaf: an element applies all its operations to every address, so after
//     a whole element every cell has seen the same operations whichever way
//     the addresses ran. A cell's good value after the prefix is the last
//     value the prefix writes, and its scenario initial value only when the
//     prefix writes nothing.
//
// The appended element is compiled against that trace under each order it
// resolves to (⇕: up when lazy, up and down when exhaustive, as compileTree
// resolves it) and run with the unchanged lanePlan.runSteps from every saved
// state. Those are the steps, in the order and from the state, that the
// extended schedule's trie walk would run after the prefix, so the verdict
// is the one NewSchedule(prefix+element) gives. Faults planLanes declines
// (dynamic primitives, more than three cells, …) keep no state and are
// simulated from scratch on the compiled extended test.

// Checkpoint is a test simulated once over a fault list, keeping for every
// fault the test misses what it takes to extend the test by one element
// without simulating the test again. Resume must not be called concurrently
// on one Checkpoint.
type Checkpoint struct {
	sched  *Schedule
	missed []linked.Fault
	// resume parallels missed: the saved lane state of each missed fault.
	resume []laneResume
}

// laneResume is one missed fault's saved lane state: a copy of its lane
// plan and, per undetected leaf, k cell words followed by the detect mask.
// A nil plan marks a fault planLanes declined.
type laneResume struct {
	plan   *lanePlan
	states []uint64
}

// Checkpoint simulates the schedule's test over the fault list, fanning out
// like Simulate, and returns the faults it misses, ready to resume. It fails
// with the first simulation error in fault-list order, the error Simulate's
// Report.Err returns.
func (s *Schedule) Checkpoint(faults []linked.Fault) (*Checkpoint, error) {
	type outcome struct {
		miss bool
		lane laneResume
		err  error
	}
	outs := make([]outcome, len(faults))
	s.fanOut(len(faults), func(m *machine, i int) {
		o, f := &outs[i], faults[i]
		if err := validateBindings(f); err != nil {
			o.err = err
			return
		}
		if canClassCache(f) && s.planLanes(m, f) {
			if states := s.laneLeafStates(m); len(states) > 0 {
				o.miss = true
				o.lane = laneResume{plan: m.plan.clone(), states: states}
			}
			return
		}
		o.miss, o.err = s.missesFault(m, f)
	})
	c := &Checkpoint{sched: s}
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		if outs[i].miss {
			c.missed = append(c.missed, faults[i])
			c.resume = append(c.resume, outs[i].lane)
		}
	}
	return c, nil
}

// Missed returns the faults the checkpointed test misses, in fault-list
// order.
func (c *Checkpoint) Missed() []linked.Fault { return c.missed }

// Resume reports, for every missed fault, whether the checkpointed test
// extended by the element detects it: detected[i] is the verdict
// DetectsFault gives for Missed()[i] on the schedule of the extended test.
// A ⇕ element resolves as the configuration resolves it; under exhaustive
// orders the extended test is refused, as NewSchedule refuses it, when it
// has more ⇕ elements than Config.MaxAnyElements.
func (c *Checkpoint) Resume(e march.Element) ([]bool, error) {
	s := c.sched
	ext := s.test
	ext.Elems = append(s.test.Elems[:len(s.test.Elems):len(s.test.Elems)], e)

	orders := []march.AddrOrder{e.Order}
	if e.Order == march.Any {
		orders[0] = march.Up
		if s.cfg.ExhaustiveOrders {
			if _, err := orderCombinations(ext, s.cfg); err != nil {
				return nil, err // more ⇕ elements than MaxAnyElements
			}
			orders = append(orders, march.Down)
		}
	}

	// The good trace after the prefix, uniform over addresses and leaves.
	written, last := false, fp.V0
	for _, pe := range s.test.Elems {
		for _, op := range pe.Ops {
			if op.Kind == fp.OpWrite {
				written, last = true, op.Data
			}
		}
	}
	lanes := s.laneWrites
	steps := make([][]opStep, len(orders))
	for i, o := range orders {
		w := make([]bool, s.size)
		lw := make([]fp.Value, s.size)
		for a := range w {
			w[a], lw[a] = written, last
		}
		steps[i] = compileElemSteps(e, o, s.size, len(s.test.Elems), w, lw)
	}
	for _, op := range e.Ops {
		if op.Kind == fp.OpWrite && !op.Data.IsBinary() {
			lanes = false // the extended schedule runs every fault scalar
		}
	}

	detected := make([]bool, len(c.missed))
	var scratch []int // missed faults simulated from scratch
	for i := range c.missed {
		if r := &c.resume[i]; lanes && r.plan != nil {
			detected[i] = r.plan.resume(r.states, steps)
		} else {
			scratch = append(scratch, i)
		}
	}
	if len(scratch) == 0 {
		return detected, nil
	}
	full, err := NewSchedule(ext, s.cfg)
	if err != nil {
		return nil, err
	}
	m := full.getMachine()
	defer full.putMachine(m)
	for _, i := range scratch {
		miss, err := full.missesFault(m, c.missed[i])
		if err != nil {
			return nil, err
		}
		detected[i] = !miss
	}
	return detected, nil
}

// laneLeafStates walks the order-choice trie like runLanesAll and returns
// the lane end state at every leaf some lane reaches undetected: k cell
// words, then the detect mask. A test with no elements ends where it starts.
func (s *Schedule) laneLeafStates(m *machine) []uint64 {
	p := &m.plan
	var vs [maxLaneCells]uint64
	p.laneInitState(&vs)
	detect := uint64(0)
	var out []uint64
	keep := func() {
		out = append(out, vs[:p.k]...)
		out = append(out, detect)
	}
	if len(s.roots) == 0 {
		keep()
		return out
	}

	depth := len(s.test.Elems) + 1
	if cap(m.laneSnap) < depth*laneSnapWords {
		m.laneSnap = make([]uint64, depth*laneSnapWords)
	}
	snap := m.laneSnap[:depth*laneSnapWords]
	save := func(d int) {
		o := d * laneSnapWords
		copy(snap[o:o+maxLaneCells], vs[:])
		snap[o+maxLaneCells] = detect
	}
	restore := func(d int) {
		o := d * laneSnapWords
		copy(vs[:], snap[o:o+maxLaneCells])
		detect = snap[o+maxLaneCells]
	}

	var walk func(idx, d int)
	walk = func(idx, d int) {
		seg := &s.segs[idx]
		detect = p.runSteps(seg.steps, &vs, detect)
		if detect == p.full {
			return
		}
		if seg.leaf >= 0 {
			keep()
			return
		}
		if len(seg.children) == 1 {
			walk(seg.children[0], d+1)
			return
		}
		save(d)
		for ci, ch := range seg.children {
			if ci > 0 {
				restore(d)
			}
			walk(ch, d+1)
		}
	}

	if len(s.roots) > 1 {
		save(0)
	}
	for ri, r := range s.roots {
		if ri > 0 {
			restore(0)
		}
		walk(r, 1)
	}
	return out
}

// clone copies the plan off the pooled machine, which replans it for the
// next fault; the copy gets its own matched scratch.
func (p *lanePlan) clone() *lanePlan {
	c := *p
	c.opCtxs = append([]laneOpCtx(nil), p.opCtxs...)
	c.stateCtxs = append([]laneStateCtx(nil), p.stateCtxs...)
	c.matched = make([]uint64, len(p.opCtxs))
	c.classKeys = nil
	return &c
}

// resume runs the appended element, under each of its orders, from every
// saved leaf state and reports whether every lane detects the fault.
func (p *lanePlan) resume(states []uint64, steps [][]opStep) bool {
	for o := 0; o < len(states); o += p.k + 1 {
		for _, st := range steps {
			var vs [maxLaneCells]uint64
			copy(vs[:], states[o:o+p.k])
			if p.runSteps(st, &vs, states[o+p.k]) != p.full {
				return false
			}
		}
	}
	return true
}
