package sim

import (
	"slices"
	"sync/atomic"

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
//
// A resume runs on a miss budget: a search that keeps only its best trial
// asks whether a trial misses more faults than the best allows, and once it
// does the resume stops. The faults share one miss counter, and a fault
// that takes it past the budget stops the fan-out. fanOut still runs every
// fault below the lowest stop, so a resume is over budget exactly when the
// test misses more faults than the budget, and its first miss is the lowest
// missed fault at or below the stop: both are the answers of a sequential
// scan, whatever the number of goroutines. The stop itself is not: misses
// further down the list can take the counter past the budget first. A
// resume the budget can stop ends each lane walk at its first undetected
// leaf, as a verdict alone needs, so only a resume that missed no fault or
// whose budget no fault set can exceed records the states Commit adopts.
// Covers is the budget 0.

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
		// done reports that every fault ran to its verdict and every lane
		// walk to its end, so Commit may adopt the trial.
		done bool
	}
	// misses counts the faults the running resume has found missed, shared
	// by the fan-out's goroutines. It lives here so that a resume allocates
	// no counter of its own.
	misses atomic.Int64
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
// after one fault (fail-first order). Missed sets and over-budget verdicts
// do not depend on the order; the first miss is the first in the new order.
// It discards the last resume: Commit cannot follow.
func (c *Checkpoint) MoveToFront(i int) {
	c.trial.done = false
	f, fs := c.faults[i], c.states[i]
	copy(c.faults[1:i+1], c.faults[:i])
	copy(c.states[1:i+1], c.states[:i])
	c.faults[0], c.states[0] = f, fs
}

// Resume simulates the test t, an edit of the checkpointed test, from the
// boundary after the leading elements the two share, on a budget of missed
// faults: a fault is missed exactly when DetectsFault on NewSchedule of t
// says so. When t misses at most budget faults, Resume appends to missed
// the indices into Faults of every fault it misses, ascending, and reports
// over false. When t misses more, it stops early, appends only the index of
// the first fault it misses in the order of Faults, and reports over true.
// Both answers do not depend on GOMAXPROCS. The budget must not be
// negative; a budget of len(Faults()) cannot be exceeded. t's ⇕ elements
// resolve as the configuration says; under exhaustive orders a test with
// more ⇕ elements than Config.MaxAnyElements is refused with NewSchedule's
// error. The checkpoint keeps t's elements without copying them.
//
// Commit may follow a resume that missed no fault or whose budget is at
// least len(Faults()). Any other resume may end a fault's walk at its first
// undetected leaf, leaving the states past it unrecorded.
func (c *Checkpoint) Resume(t march.Test, budget int, missed []int) ([]int, bool, error) {
	if budget < 0 {
		panic("sim: negative Resume budget")
	}
	j, err := c.resume(t, budget)
	if err != nil {
		return missed, false, err
	}
	// Past a stop at j only the faults up to j are sure to have run, and j
	// missed.
	over := j < len(c.todo)
	todo := c.todo
	if over {
		todo = todo[:j+1]
	}
	for _, i := range todo {
		if c.states[i].nextMissed {
			missed = append(missed, i)
			if over {
				break
			}
		}
	}
	return missed, over, nil
}

// Covers is Resume with a budget of 0: it reports whether t detects every
// fault and, when it does not, the index into Faults of the first fault it
// misses (len(Faults()) when it misses none). Commit may follow only a
// Covers that reports full coverage.
func (c *Checkpoint) Covers(t march.Test) (bool, int, error) {
	var first [1]int
	missed, over, err := c.Resume(t, 0, first[:0])
	if err != nil {
		return false, 0, err
	}
	if over {
		return false, missed[0], nil
	}
	return true, len(c.faults), nil
}

// Commit makes the checkpoint that of the test the last Resume or Covers
// simulated: the boundary states up to the boundary it resumed from stay,
// and the edited test's later ones are the states the resume recorded. It
// panics when there is no such test, when the resume went over budget, or
// when its budget could stop it and it missed a fault (see Resume).
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
// Simulate, and records each fault's verdict and nodes past b into its
// states, the faults it simulates into todo. It counts the faults t misses
// and stops once more than budget have missed: it returns the index into
// todo at which fanOut stopped, or len(c.todo) when no fault stopped it.
// When the faults it simulates could exceed the budget, a lane walk ends at
// its first undetected leaf.
func (c *Checkpoint) resume(t march.Test, budget int) (int, error) {
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
	stop := budget < len(c.todo)
	c.misses.Store(0)
	j := s.fanOut(work, len(c.todo), func(m *machine, j int) bool {
		fs := &c.states[c.todo[j]]
		fs.nextMissed, fs.err = c.simulate(m, c.todo[j], b, &sfx, full, stop)
		return fs.err != nil || fs.nextMissed && c.misses.Add(1) > int64(budget)
	})
	if j == len(c.todo) {
		c.trial.test, c.trial.b, c.trial.lanes = t, b, sfx.laneWrites
		c.trial.done = !stop || c.misses.Load() == 0
		return j, nil
	}
	if err := c.states[c.todo[j]].err; err != nil {
		return 0, err
	}
	return j, nil
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
