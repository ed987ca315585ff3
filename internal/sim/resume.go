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
// tests that share elements with a test it has simulated already. Repair
// (internal/core) appends one template element at a time to its candidate;
// minimize drops an element, an operation or an operation pair, merges two
// adjacent elements or relaxes an element's order to ⇕; the optimizer
// (internal/optimize) edits one element of a beam member or splices element
// tails between members. Schedule.Checkpoint simulates a test once and
// keeps every fault's state at every element boundary. Checkpoint.Resume
// then simulates any test, given whole, from the boundary b after the
// leading elements it shares with the checkpointed test (the same address
// order and the same operations). Commit makes the checkpoint that of the
// edited test, keeping the states the resume recorded, so an accepted edit
// needs no further simulation; Fork makes a new checkpoint of the edited
// test and leaves the receiver as it was.
//
// Boundary states are kept per lane-planned fault (planLanes): at every
// order-choice trie node some lane leaves undetected, the k cell words and
// the detect mask, tagged with the node's boundary. walkLanes' node callback
// records them in the walk that simulates the test. A node every lane
// detects stays detected whatever follows, so it is dropped, as the walk
// prunes it; a fault with no state at boundary b is detected by the first b
// elements, and so by every test that keeps them.
//
// The good trace at a boundary is the same at every node: an element
// applies all its operations to every address, so after b whole elements
// every cell's good value is the last value written so far, whichever way
// the addresses ran, or its initial value if nothing has been written yet.
// Each element a resume runs is compiled against that trace as a trie of
// its own (compileTrie; a ⇕ resolves as NewSchedule resolves it) and walked
// from every state the walk holds at its boundary with the unchanged
// lanePlan.runSteps, one boundary after the other. Those are the steps, in
// the order and from the states, that the edited test's walk runs after its
// first b elements, and the states at each boundary come out in the walk
// order of the edited test's trie, so the verdict is the one NewSchedule
// gives the edited test.
//
// An edit usually rejoins the checkpointed test too: the two end in the
// same elements. The longest such common tail that both tests enter with
// the same good trace starts at ec in the edit and at ep in the checkpointed
// test (ec ≥ b; ep may lie anywhere). Past any boundary x of the tail the
// edit runs the steps the checkpointed test runs past x−ec+ep, so from equal
// states it reaches the same nodes and leaves. A resume therefore compares
// a fault's states at each boundary x ≥ ec with the checkpoint's at
// x−ec+ep — the same number of states, with the same cell words and detect
// masks, in the same walk order — and at the first where they are equal it
// stops: the edit misses the fault exactly when the checkpointed test does,
// and the fault's nodes past x are the checkpoint's past x−ec+ep. Most
// edits change a few operations of one element, and a fault is sensitized
// and observed by a few operations, so most faults rejoin at ec or a few
// elements past it.
//
// Faults planLanes declines keep no state: a resume simulates them on the
// compiled edited test, and so it does every fault when the edit writes a
// don't-care, which the lane words cannot hold. When the edited test keeps
// the whole checkpointed test, a resume skips every fault the checkpointed
// test detects, lane-planned or not: appending elements never loses a
// detection.
//
// A resume fans out when fanOut finds its work large enough: a lane-planned
// fault walks the elements from b, any other fault the edited test (walks).
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
// whose budget no fault set can exceed records the states Commit and Fork
// adopt. Covers is the budget 0.
//
// Commit and Fork build a fault's new nodes in one routine (splice): the
// checkpoint's up to b, the resume's past it and, on a rejoin, the
// checkpoint's past the rejoin, shifted by ec−ep. Commit writes them over
// the fault's old nodes; Fork gives them to a new checkpoint, which shares
// the nodes of every fault the edit did not touch with its receiver. Once a
// checkpoint has been forked or forked from, its commits write new node
// slices instead, so they never write into a slice another checkpoint
// reads.

// Checkpoint is a test simulated once over a fault list, keeping every
// fault's state at every element boundary, so that the test edited from any
// boundary on simulates only the edit. A Checkpoint is not safe for
// concurrent use, and neither are checkpoints forked from one another: they
// share the space a resume records into.
type Checkpoint struct {
	// sched is the schedule the checkpoint was built from. It supplies the
	// configuration and the machine pool; Commit does not recompile it.
	sched *Schedule
	// test is the checkpointed test, which Commit advances.
	test   march.Test
	faults []linked.Fault
	states []faultStates // parallel to faults
	// forked reports that the checkpoint was forked or forked from, so its
	// node slices may be another checkpoint's too.
	forked bool
	// trial is what the last resume on this checkpoint or on one forked
	// from it found.
	trial *trial
}

// faultStates is one fault's part of a checkpoint.
type faultStates struct {
	// plan is a copy of the fault's lane plan, nil when planLanes declined
	// the fault.
	plan *lanePlan
	// nodes holds, per trie node some lane leaves undetected, the node's
	// boundary, the k cell words and the detect mask: k+2 words a node,
	// ordered by boundary and in walk order within one. A node's parent is
	// undetected too, so the boundaries present run from 0 up to the last
	// node's.
	nodes []uint64
	// missed reports that the checkpointed test misses the fault.
	missed bool
}

// trial is what a resume leaves for Commit and Fork to adopt.
type trial struct {
	// owner is the checkpoint the resume ran on, nil once nothing may adopt
	// it; edit is what it simulated. done reports that every fault ran to
	// its verdict and every lane walk to its end.
	owner *Checkpoint
	edit  *edit
	done  bool
	// todo lists the faults the resume simulated, by index into the owner's
	// Faults; faults holds their results, by the same index.
	todo   []int
	faults []faultTrial
	// nodes is the scratch splice builds a fault's new nodes in.
	nodes []uint64
	// misses counts the faults the running resume has found missed, shared
	// by the fan-out's goroutines. It lives here so that a resume allocates
	// no counter of its own.
	misses atomic.Int64
}

// faultTrial is one fault's result of the last resume.
type faultTrial struct {
	// next holds the nodes the resume walked past b, as nodes holds them in
	// faultStates.
	next []uint64
	// rejoined reports that the fault's states at boundary at equalled the
	// checkpoint's at at−ec+ep, so its nodes past at are the checkpoint's
	// past there.
	rejoined bool
	at       int
	missed   bool
	err      error
}

// edit is what one resume simulates: test, which shares its first b
// elements with the checkpointed test and its elements from ec on with the
// checkpointed test's from ep on (ec = len(test.Elems) when nothing
// rejoins). elems holds the tries of test's elements from b on, one
// element each, and steps their operation steps, the work of a lane
// fault; lanes reports that they write only binary values. full is the
// compiled edited test, for the faults the lanes do not run. stop ends a
// lane walk at its first undetected leaf.
type edit struct {
	test      march.Test
	b, ec, ep int
	elems     []trie
	steps     int
	lanes     bool
	full      *Schedule
	stop      bool
}

// newEdit compiles test's elements from b on, one trie each, entering each
// with the good trace after the ones before it. Nothing rejoins yet.
func newEdit(test march.Test, b int, cfg Config, size int) *edit {
	e := &edit{test: test, b: b, ec: len(test.Elems), lanes: true}
	written, last := goodTrace(test.Elems[:b], false, fp.V0)
	for x := b; x < len(test.Elems); x++ {
		tr := compileTrie(test.Elems[x:x+1], cfg, size, written, last)
		e.elems = append(e.elems, tr)
		e.steps += tr.steps
		e.lanes = e.lanes && tr.laneWrites
		written, last = goodTrace(test.Elems[x:x+1], written, last)
	}
	return e
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
		trial:  &trial{faults: make([]faultTrial, len(faults))},
	}
	e := newEdit(s.test, 0, s.cfg, s.size)
	e.full = s
	if i := s.fanOut(s.work(faults), len(faults), func(m *machine, i int) bool {
		fs, ft := &c.states[i], &c.trial.faults[i]
		if ft.err = validateBindings(faults[i]); ft.err != nil {
			return true
		}
		if canClassCache(faults[i]) && s.planLanes(m, faults[i]) {
			fs.plan = m.plan.clone()
			var vs [maxLaneCells]uint64
			fs.plan.laneInitState(&vs)
			fs.nodes = appendNode(nil, 0, vs[:fs.plan.k], 0)
		}
		ft.missed, ft.err = c.simulate(m, i, e)
		return ft.err != nil
	}); i < len(faults) {
		return nil, c.trial.faults[i].err
	}
	t := c.trial
	t.todo = make([]int, len(faults))
	for i := range t.todo {
		t.todo[i] = i
	}
	t.owner, t.done, t.edit = c, true, e
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
// It discards the last resume on c: neither Commit nor Fork can follow.
func (c *Checkpoint) MoveToFront(i int) {
	if c.trial.owner == c {
		c.trial.owner = nil
	}
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
// Commit or Fork may follow a resume that missed no fault or whose budget
// is at least len(Faults()). Any other resume may end a fault's walk at its
// first undetected leaf, leaving the states past it unrecorded.
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
	todo := c.trial.todo
	over := j < len(todo)
	if over {
		todo = todo[:j+1]
	}
	for _, i := range todo {
		if c.trial.faults[i].missed {
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
// misses (len(Faults()) when it misses none). Commit or Fork may follow only
// a Covers that reports full coverage.
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

// Commit makes the checkpoint that of the test the last Resume or Covers on
// it simulated: the boundary states up to the boundary it resumed from
// stay, and the edited test's later ones are the states the resume
// recorded, followed past a rejoin by the checkpoint's own. It panics when
// there is no such test, when the resume went over budget, or when its
// budget could stop it and it missed a fault (see Resume).
func (c *Checkpoint) Commit() {
	c.adopt(c)
	c.trial.owner = nil
}

// Fork returns the checkpoint of the test the last Resume or Covers on c
// simulated, the checkpoint Commit would make of c, and leaves c's test and
// states as they are. The fork scans the faults in c's order, and c may
// still commit the resume. Fork panics where Commit does.
func (c *Checkpoint) Fork() *Checkpoint {
	f := &Checkpoint{
		sched:  c.sched,
		faults: slices.Clone(c.faults),
		states: slices.Clone(c.states),
		forked: true,
		trial:  c.trial,
	}
	c.forked = true
	c.adopt(f)
	return f
}

// adopt makes d, c itself or a copy of it, the checkpoint of the test the
// last resume on c simulated. Only the faults the resume simulated change.
// Every other one is detected by the first b elements, or by the whole test
// when the edit appends, so it is missed by neither test and has no node
// past b.
func (c *Checkpoint) adopt(d *Checkpoint) {
	t := c.trial
	if t.owner != c || !t.done {
		panic("sim: Commit without a completed Resume")
	}
	b := t.edit.b
	d.test = c.test
	d.test.Elems = append(c.test.Elems[:b:b], t.edit.test.Elems[b:]...)
	if !t.edit.lanes {
		// The test writes a don't-care: from now on every fault is
		// simulated from scratch, as NewSchedule would run it scalar.
		for i := range d.states {
			d.states[i].plan, d.states[i].nodes = nil, nil
		}
	}
	for _, i := range t.todo {
		ds := &d.states[i]
		ds.missed = t.faults[i].missed
		if ds.plan == nil {
			continue
		}
		if nodes := c.splice(i); d.forked {
			ds.nodes = slices.Clone(nodes)
		} else {
			ds.nodes = append(ds.nodes[:0], nodes...)
		}
	}
}

// splice builds fault i's nodes in the test the last resume on c
// simulated, in the trial's scratch: c's up to boundary b, the resume's past
// it and, when the fault rejoined at boundary x, c's past x−ec+ep at the
// boundaries past x, shifted by ec−ep.
func (c *Checkpoint) splice(i int) []uint64 {
	e, fs, ft := c.trial.edit, &c.states[i], &c.trial.faults[i]
	nodes := append(c.trial.nodes[:0], fs.nodes[:fs.at(e.b+1)]...)
	nodes = append(nodes, ft.next...)
	if ft.rejoined {
		shift, from := e.ec-e.ep, len(nodes)
		nodes = append(nodes, fs.nodes[fs.at(ft.at-shift+1):]...)
		for o := from; o < len(nodes); o += fs.plan.k + 2 {
			nodes[o] = uint64(int(nodes[o]) + shift)
		}
	}
	c.trial.nodes = nodes
	return nodes
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

// sameElement reports whether two elements run alike: the same address
// order and the same operations.
func sameElement(a, b march.Element) bool {
	return a.Order == b.Order && slices.Equal(a.Ops, b.Ops)
}

// shared returns the number of leading elements t shares with the
// checkpointed test.
func (c *Checkpoint) shared(t march.Test) int {
	n := min(len(t.Elems), len(c.test.Elems))
	for b, e := range t.Elems[:n] {
		if !sameElement(e, c.test.Elems[b]) {
			return b
		}
	}
	return n
}

// rejoin returns where the longest common tail of t and the checkpointed
// test that both enter with the same good trace starts: at ec in t and at
// ep in the checkpointed test. The tail keeps clear of t's first b
// elements, the ones t shares with the checkpointed test. When there is no
// such tail, ec is len(t.Elems).
func (c *Checkpoint) rejoin(t march.Test, b int) (ec, ep int) {
	ec, ep = len(t.Elems), len(c.test.Elems)
	for ec > b && ep > 0 && sameElement(t.Elems[ec-1], c.test.Elems[ep-1]) {
		ec, ep = ec-1, ep-1
	}
	// A common element that writes leaves both traces alike, so a tail
	// entered with different traces shortens to the elements past its
	// first write.
	tw, tl := goodTrace(t.Elems[:ec], false, fp.V0)
	cw, cl := goodTrace(c.test.Elems[:ep], false, fp.V0)
	for ec < len(t.Elems) && (tw != cw || tl != cl) {
		tw, tl = goodTrace(t.Elems[ec:ec+1], tw, tl)
		cw, cl = goodTrace(c.test.Elems[ep:ep+1], cw, cl)
		ec, ep = ec+1, ep+1
	}
	return ec, ep
}

// goodTrace returns the good trace after elems, entered with the trace
// written, last: whether any cell has been written and the last value
// written.
func goodTrace(elems []march.Element, written bool, last fp.Value) (bool, fp.Value) {
	for _, e := range elems {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWrite {
				written, last = true, op.Data
			}
		}
	}
	return written, last
}

// resume simulates t over every fault from the boundary b after the
// elements it shares with the checkpointed test, fanning out like
// Simulate, and records each fault's verdict and nodes past b into the
// trial, the faults it simulates into its todo. It counts the faults t
// misses and stops once more than budget have missed: it returns the index
// into todo at which fanOut stopped, or len(todo) when no fault stopped
// it. When the faults it simulates could exceed the budget, a lane walk
// ends at its first undetected leaf.
func (c *Checkpoint) resume(t march.Test, budget int) (int, error) {
	s, tr := c.sched, c.trial
	tr.owner, tr.done = nil, false
	if err := checkAnyElements(t.Name, anyElements(t.Elems), s.cfg); err != nil {
		return 0, err
	}
	end, b := len(c.test.Elems), c.shared(t)
	e := newEdit(t, b, s.cfg, s.size)
	e.ec, e.ep = c.rejoin(t, b)

	// The faults to simulate: every other one is detected by the prefix
	// (a lane fault with no state at b) or, when the edit only appends, by
	// the checkpointed test. work counts the steps of their walks.
	tr.todo = tr.todo[:0]
	work, fullWalks := 0, 0
	for i := range c.states {
		fs := &c.states[i]
		lanes := fs.plan != nil && e.lanes
		if b == end && !fs.missed || lanes && fs.depth() < b {
			continue
		}
		ft := &tr.faults[i]
		ft.next, ft.rejoined, ft.missed, ft.err = ft.next[:0], false, false, nil
		tr.todo = append(tr.todo, i)
		if lanes {
			work += e.steps
			continue
		}
		fullWalks += walks(c.faults[i], s.size)
		if e.full == nil {
			var err error
			if e.full, err = NewSchedule(t, s.cfg); err != nil {
				return 0, err
			}
		}
	}
	if e.full != nil {
		work += fullWalks * e.full.steps
	}
	e.stop = budget < len(tr.todo)
	tr.misses.Store(0)
	j := s.fanOut(work, len(tr.todo), func(m *machine, j int) bool {
		ft := &tr.faults[tr.todo[j]]
		ft.missed, ft.err = c.simulate(m, tr.todo[j], e)
		return ft.err != nil || ft.missed && tr.misses.Add(1) > int64(budget)
	})
	if j == len(tr.todo) {
		tr.owner, tr.done, tr.edit = c, !e.stop || tr.misses.Load() == 0, e
		return j, nil
	}
	if err := tr.faults[tr.todo[j]].err; err != nil {
		return 0, err
	}
	return j, nil
}

// simulate runs fault i of the edit e and reports whether the edited test
// misses it. A lane-planned fault walks the elements from b one boundary
// after the other, from every state it holds at the boundary, recording the
// states past b into the fault's trial, until it rejoins the checkpoint or
// runs out of elements; with e.stop set the walk ends at the first leaf
// some lane reaches undetected. Any other fault runs on e.full, the
// compiled edited test.
func (c *Checkpoint) simulate(m *machine, i int, e *edit) (bool, error) {
	fs, ft := &c.states[i], &c.trial.faults[i]
	p := fs.plan
	if p == nil || !e.lanes {
		det, _, err := e.full.detects(m, c.faults[i], false)
		return !det, err
	}
	w, n := p.k+2, len(e.test.Elems)
	states := fs.nodes[fs.at(e.b):fs.at(e.b+1)] // the states at boundary x
	miss := false
	for x := e.b; x < n && len(states) > 0; x++ {
		if y := x - e.ec + e.ep; x >= e.ec && sameStates(states, fs.nodes[fs.at(y):fs.at(y+1)], w) {
			ft.rejoined, ft.at = true, x
			return fs.missed, nil
		}
		last := x == n-1
		from := len(ft.next)
		for o := 0; o < len(states) && !(miss && e.stop); o += w {
			var vs [maxLaneCells]uint64
			copy(vs[:], states[o+1:o+w-1])
			e.elems[x-e.b].walkLanes(m, p, vs, states[o+w-1],
				func(_ int, vs [maxLaneCells]uint64, detect uint64) {
					ft.next = appendNode(ft.next, x+1, vs[:p.k], detect)
				},
				func(int, uint64) bool {
					miss = miss || last
					return !(miss && e.stop)
				})
		}
		states = ft.next[from:]
	}
	// A test that ends at b leaves every state at b undetected.
	return miss || e.b == n, nil
}

// sameStates reports whether two boundaries' nodes, w words each, hold the
// same cell words and detect masks in the same order.
func sameStates(a, b []uint64, w int) bool {
	if len(a) != len(b) {
		return false
	}
	for o := 0; o < len(a); o += w {
		if !slices.Equal(a[o+1:o+w], b[o+1:o+w]) {
			return false
		}
	}
	return true
}

// appendNode appends one node state: its boundary, cell words and detect
// mask.
func appendNode(nodes []uint64, boundary int, vs []uint64, detect uint64) []uint64 {
	nodes = append(nodes, uint64(boundary))
	nodes = append(nodes, vs...)
	return append(nodes, detect)
}

// clone copies the plan off the pooled machine, which replans it for the
// next fault.
func (p *lanePlan) clone() *lanePlan {
	c := *p
	c.opCtxs = append([]laneOpCtx(nil), p.opCtxs...)
	c.stateCtxs = append([]laneStateCtx(nil), p.stateCtxs...)
	c.classKeys = nil
	return &c
}
