package sim

import (
	"slices"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// Resuming a test from an element boundary.
//
// Every search that judges candidates by fault simulation simulates many
// tests that share their leading elements with a test it has simulated
// already. Repair (internal/core) appends one template element at a time
// to its candidate; minimize drops an element, an operation or an operation
// pair, merges two adjacent elements or relaxes an element's order to ⇕;
// the optimizer (internal/optimize) edits one element of a beam member or
// splices element tails between members. Schedule.Checkpoint simulates a
// test once and keeps every fault's state at every element boundary.
// Checkpoint.Resume then simulates any test, given whole, from the boundary
// b after the leading elements it shares with the checkpointed test (the
// same address order and the same operations): it runs only the elements
// from b on, the suffix. Commit makes the checkpoint that of the edited
// test, keeping the states the resume recorded, so an accepted edit needs
// no further simulation.
//
// Boundary states are kept per lane-planned fault (planLanes): at every
// order-choice trie node some lane leaves undetected, the k cell words and
// the detect mask, tagged with the node's boundary. walkLanes' node callback
// records them in the one walk that simulates the test. A node every lane
// detects stays detected whatever follows, so it is dropped, as the walk
// prunes it; a fault with no state at boundary b is detected by the first b
// elements, and so by every test that keeps them.
//
// The good trace entering the suffix is the same at every node: an element
// applies all its operations to every address, so after b whole elements
// every cell's good value is the last value written so far, whichever way
// the addresses ran, or its initial value if nothing has been written yet.
// The suffix is compiled against that trace as a trie of its own
// (compileTrie; its ⇕ resolve as NewSchedule resolves them) and walked from
// every saved state with the unchanged lanePlan.runSteps. Those are the
// steps, in the order and from the state, that the edited test's walk runs
// after its first b elements, so the verdict is the one NewSchedule gives
// the edited test.
//
// Faults planLanes declines keep no state: a resume simulates them on the
// compiled edited test, and so it does every fault when the suffix writes a
// don't-care, which the lane words cannot hold. When the edited test keeps
// the whole checkpointed test, a resume skips every fault the checkpointed
// test detects, lane-planned or not: appending elements never loses a
// detection.
//
// A resume fans out when fanOut finds its work large enough: a lane-planned
// fault walks the suffix, any other fault the edited test (walks).

// Checkpoint is a test simulated once over a fault list, keeping every
// fault's state at every element boundary, so that the test edited from any
// boundary on simulates only the edit. A Checkpoint is not safe for
// concurrent use.
type Checkpoint struct {
	// sched is the schedule the checkpoint was built from. It supplies the
	// configuration and the machine pool; Commit does not recompile it.
	sched *Schedule
	// test is the checkpointed test, which Commit advances.
	test   march.Test
	faults []linked.Fault
	states []faultStates // parallel to faults
	todo   []int         // scratch: the faults a resume simulates
	// trial is the edited test the last resume simulated, which shares its
	// first b elements with test.
	trial struct {
		test  march.Test
		b     int
		lanes bool // the elements from b on write only binary values
		// done reports that every fault ran to its verdict, so Commit may
		// adopt the trial.
		done bool
	}
}

// faultStates is one fault's part of a checkpoint.
type faultStates struct {
	// plan is a copy of the fault's lane plan, nil when planLanes declined
	// the fault.
	plan *lanePlan
	// nodes holds, per trie node some lane leaves undetected, the node's
	// boundary, the k cell words and the detect mask: k+2 words a node,
	// ordered by boundary. A node's parent is undetected too, so the
	// boundaries present run from 0 up to the last node's.
	nodes []uint64
	// missed reports that the checkpointed test misses the fault.
	missed bool
	// next, nextMissed and err are the last resume's nodes past its
	// boundary, in walk order, its verdict and its simulation error.
	next       []uint64
	nextMissed bool
	err        error
}

// Checkpoint simulates the schedule's test over the fault list, fanning out
// as Simulate does, and keeps every fault's boundary states. It fails with
// the first simulation error in fault-list order, the error Simulate's
// Report.Err returns.
func (s *Schedule) Checkpoint(faults []linked.Fault) (*Checkpoint, error) {
	c := &Checkpoint{
		sched:  s,
		test:   s.test,
		faults: append([]linked.Fault(nil), faults...),
		states: make([]faultStates, len(faults)),
	}
	if i := s.fanOut(s.work(faults), len(faults), func(m *machine, i int) bool {
		fs := &c.states[i]
		if fs.err = validateBindings(faults[i]); fs.err != nil {
			return true
		}
		if canClassCache(faults[i]) && s.planLanes(m, faults[i]) {
			fs.plan = m.plan.clone()
			var vs [maxLaneCells]uint64
			fs.plan.laneInitState(&vs)
			fs.nodes = appendNode(fs.nodes, 0, vs[:fs.plan.k], 0)
		}
		fs.nextMissed, fs.err = c.simulate(m, i, 0, &s.trie, s, false)
		return fs.err != nil
	}); i < len(faults) {
		return nil, c.states[i].err
	}
	c.todo = make([]int, len(faults))
	for i := range c.todo {
		c.todo[i] = i
	}
	c.trial.test, c.trial.b, c.trial.lanes, c.trial.done = s.test, 0, s.laneWrites, true
	c.Commit()
	return c, nil
}

// Test returns the checkpointed test, which Commit advances. It must not be
// modified.
func (c *Checkpoint) Test() march.Test { return c.test }

// Faults returns the checkpoint's copy of the fault list, in the order
// Resume and Covers scan it (see MoveToFront). It must not be modified.
func (c *Checkpoint) Faults() []linked.Fault { return c.faults }

// Missed returns the faults the checkpointed test misses, in the order of
// Faults.
func (c *Checkpoint) Missed() []linked.Fault {
	var out []linked.Fault
	for i := range c.states {
		if c.states[i].missed {
			out = append(out, c.faults[i])
		}
	}
	return out
}

// MoveToFront moves fault i to the front of Faults, shifting the faults
// before it back by one. A caller that expects the fault it saw missed last
// to be missed again moves it first, so Covers rejects the next such test
// after one fault (fail-first order). Verdicts do not depend on the order.
// It discards the last resume: Commit cannot follow.
func (c *Checkpoint) MoveToFront(i int) {
	c.trial.done = false
	f, fs := c.faults[i], c.states[i]
	copy(c.faults[1:i+1], c.faults[:i])
	copy(c.states[1:i+1], c.states[:i])
	c.faults[0], c.states[0] = f, fs
}

// Resume simulates the test t, an edit of the checkpointed test, from the
// boundary after the leading elements the two share, and appends to missed
// the indices into Faults of the faults t misses, ascending: a fault is
// missed exactly when DetectsFault on NewSchedule of t says so. t's ⇕
// elements resolve as the configuration says; under exhaustive orders a
// test with more ⇕ elements than Config.MaxAnyElements is refused with
// NewSchedule's error. The checkpoint keeps t's elements without copying
// them; Commit may follow.
func (c *Checkpoint) Resume(t march.Test, missed []int) ([]int, error) {
	if _, err := c.resume(t, false); err != nil {
		return missed, err
	}
	for _, i := range c.todo {
		if c.states[i].nextMissed {
			missed = append(missed, i)
		}
	}
	return missed, nil
}

// Covers is Resume stopping at the first miss: it reports whether t detects
// every fault and, when it does not, the index into Faults of the first
// fault it misses. The answer does not depend on GOMAXPROCS. Commit may
// follow only a Covers that reports full coverage, since a Covers that
// stops leaves later faults unsimulated.
func (c *Checkpoint) Covers(t march.Test) (bool, int, error) {
	i, err := c.resume(t, true)
	if err != nil {
		return false, 0, err
	}
	return i == len(c.faults), i, nil
}

// Commit makes the checkpoint that of the test the last Resume or Covers
// simulated: the boundary states up to the boundary it resumed from stay,
// and the edited test's later ones are the states the resume recorded. It
// panics when there is no such test or when Covers stopped at a miss.
//
// Only the faults the resume simulated change. Every other one is detected
// by the first b elements, or by the whole test when the edit appends, so
// it is missed by neither test and has no node past b.
func (c *Checkpoint) Commit() {
	t := &c.trial
	if !t.done {
		panic("sim: Commit without a completed Resume")
	}
	t.done = false
	c.test.Elems = append(c.test.Elems[:t.b:t.b], t.test.Elems[t.b:]...)
	if !t.lanes {
		// The test writes a don't-care: from now on every fault is
		// simulated from scratch, as NewSchedule would run it scalar.
		for i := range c.states {
			c.states[i].plan, c.states[i].nodes = nil, nil
		}
	}
	for _, i := range c.todo {
		fs := &c.states[i]
		fs.missed = fs.nextMissed
		if fs.plan != nil {
			fs.nodes = append(fs.nodes[:fs.at(t.b+1)], sortNodes(fs.next, fs.plan.k+2)...)
		}
	}
}

// at returns the offset in nodes of the first node at boundary b or past it.
func (fs *faultStates) at(b int) int {
	w := fs.plan.k + 2
	lo, hi := 0, len(fs.nodes)/w
	for lo < hi {
		if mid := (lo + hi) / 2; fs.nodes[mid*w] < uint64(b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo * w
}

// depth returns the last boundary with a node. Every lane-planned fault
// keeps its node at boundary 0, the scenarios' initial state.
func (fs *faultStates) depth() int {
	return int(fs.nodes[len(fs.nodes)-fs.plan.k-2])
}

// sortNodes orders nodes of w words by boundary, keeping walk order within
// a boundary. A lazy walk records them in that order already; an exhaustive
// one records a shallower node after deeper ones when it backtracks to a ⇕
// element's second order.
func sortNodes(nodes []uint64, w int) []uint64 {
	lo, hi, sorted := uint64(0), uint64(0), true
	for o := 0; o < len(nodes); o += w {
		if o > 0 && nodes[o] < nodes[o-w] {
			sorted = false
		}
		if o == 0 || nodes[o] < lo {
			lo = nodes[o]
		}
		hi = max(hi, nodes[o])
	}
	if sorted {
		return nodes
	}
	out := make([]uint64, 0, len(nodes))
	for b := lo; b <= hi; b++ {
		for o := 0; o < len(nodes); o += w {
			if nodes[o] == b {
				out = append(out, nodes[o:o+w]...)
			}
		}
	}
	return out
}

// shared returns the number of leading elements t shares with the
// checkpointed test: the same address order and the same operations.
func (c *Checkpoint) shared(t march.Test) int {
	n := min(len(t.Elems), len(c.test.Elems))
	for b, e := range t.Elems[:n] {
		if e.Order != c.test.Elems[b].Order || !slices.Equal(e.Ops, c.test.Elems[b].Ops) {
			return b
		}
	}
	return n
}

// resume simulates t over every fault from the boundary b after the
// elements it shares with the checkpointed test, fanning out like
// Simulate, and records each fault's verdict and nodes past b. With stop
// set it stops at the first miss, in fault order, and returns its index; it
// returns len(c.faults) when no fault stopped it.
func (c *Checkpoint) resume(t march.Test, stop bool) (int, error) {
	s := c.sched
	c.trial.done = false
	if err := checkAnyElements(t.Name, anyElements(t.Elems), s.cfg); err != nil {
		return 0, err
	}
	end, b := len(c.test.Elems), c.shared(t)
	prefix, suffix := t.Elems[:b], t.Elems[b:]

	// The good trace after the prefix, uniform over addresses and nodes.
	written, last := false, fp.V0
	for _, e := range prefix {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWrite {
				written, last = true, op.Data
			}
		}
	}
	sfx := compileTrie(suffix, s.cfg, s.size, written, last)

	// The faults to simulate: every other one is detected by the prefix
	// (a lane fault with no state at b) or, when the edit only appends, by
	// the checkpointed test. work counts the steps of their walks.
	c.todo = c.todo[:0]
	var full *Schedule
	work, fullWalks := 0, 0
	for i := range c.states {
		fs := &c.states[i]
		lanes := fs.plan != nil && sfx.laneWrites
		if b == end && !fs.missed || lanes && fs.depth() < b {
			continue
		}
		fs.next, fs.nextMissed, fs.err = fs.next[:0], false, nil
		c.todo = append(c.todo, i)
		if lanes {
			work += sfx.steps
			continue
		}
		fullWalks += walks(c.faults[i], s.size)
		if full == nil {
			var err error
			if full, err = NewSchedule(t, s.cfg); err != nil {
				return 0, err
			}
		}
	}
	if full != nil {
		work += fullWalks * full.steps
	}
	j := s.fanOut(work, len(c.todo), func(m *machine, j int) bool {
		fs := &c.states[c.todo[j]]
		fs.nextMissed, fs.err = c.simulate(m, c.todo[j], b, &sfx, full, stop)
		return fs.err != nil || stop && fs.nextMissed
	})
	if j == len(c.todo) {
		c.trial.test, c.trial.b, c.trial.lanes, c.trial.done = t, b, sfx.laneWrites, true
		return len(c.faults), nil
	}
	if err := c.states[c.todo[j]].err; err != nil {
		return 0, err
	}
	return c.todo[j], nil
}

// simulate runs fault i of the test edited from boundary b: on lanes, by
// walking the suffix trie sfx from every node state saved at b and recording
// the nodes past b into the fault's next states; otherwise on full, the
// compiled edited test. It reports whether the edited test misses the
// fault; with stop set a lane walk ends at the first leaf some lane reaches
// undetected.
func (c *Checkpoint) simulate(m *machine, i, b int, sfx *trie, full *Schedule, stop bool) (bool, error) {
	fs := &c.states[i]
	p := fs.plan
	if p == nil || !sfx.laneWrites {
		det, _, err := full.detects(m, c.faults[i], false)
		return !det, err
	}
	w := p.k + 2
	miss := false
	for o := fs.at(b); o < len(fs.nodes) && fs.nodes[o] == uint64(b) && !(miss && stop); o += w {
		var vs [maxLaneCells]uint64
		copy(vs[:], fs.nodes[o+1:o+w-1])
		sfx.walkLanes(m, p, vs, fs.nodes[o+w-1],
			func(d int, vs [maxLaneCells]uint64, detect uint64) {
				fs.next = appendNode(fs.next, b+d+1, vs[:p.k], detect)
			},
			func(int, uint64) bool {
				miss = true
				return !stop
			})
	}
	return miss, nil
}

// appendNode appends one node state: its boundary, cell words and detect
// mask.
func appendNode(nodes []uint64, boundary int, vs []uint64, detect uint64) []uint64 {
	nodes = append(nodes, uint64(boundary))
	nodes = append(nodes, vs...)
	return append(nodes, detect)
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
