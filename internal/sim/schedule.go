package sim

import (
	"fmt"
	"sync"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// The compiled-schedule layer.
//
// The operation stream a march test induces on a memory depends only on
// (test, address orders, memory size) — never on the fault being simulated.
// The exhaustive simulator, however, fans the same test out over hundreds of
// faults × placements × initial values × order combinations, and a
// per-scenario interpreter would re-derive the order combinations, the
// address sequences and the fault-free machine behavior for every single
// scenario.
//
// A Schedule compiles all of that once per (test, config):
//
//   - the resolved ⇕ order combinations (orderCombinations),
//   - the op streams of all combinations, flattened to [(element, addr, op)]
//     steps and shared as a trie over the per-element order choices: two
//     combinations that agree on the orders of the first j elements share
//     one compiled prefix and — at run time — one simulation of it,
//   - per step, the fault-free ("good") value the addressed cell holds when
//     the step executes. A cell's fault-free value is its scenario initial
//     value until the stream's first write to it, and the last written value
//     afterwards — so the good machine never needs to be simulated again:
//     reads compare the faulty value against the cached trace. Between
//     elements the trace is the same at every address (compileElemSteps).
//
// Machines are pooled (sync.Pool) across the fan-out of Simulate and
// Checkpoint, so steady-state simulation does not allocate per fault.
//
// This is the package's one implementation of the fault semantics: verdicts,
// witnesses, FailingReads and TraceScenario all run runSteps (lanes.go packs
// the same semantics bit-parallel and is pinned to it; resume.go continues a
// lane run from an element boundary). Verdicts, lane classes and
// checkpoints all walk the order-choice trie through one walk (trie.walk). The
// independent reference is internal/oracle, which tests compare every path
// against.

// opStep is one operation of a compiled stream.
type opStep struct {
	// elem and opIdx locate the operation in the march test.
	elem  int
	opIdx int
	// addr is the concrete memory address the operation targets.
	addr int
	// op is the operation.
	op fp.Op
	// goodKnown reports that an earlier step of the stream wrote addr; good
	// is then the fault-free value of addr entering this step. When false
	// the cell still holds its scenario-dependent initial value (the fault
	// cell's Init, or 0 for bystanders) and good must be ignored.
	goodKnown bool
	good      fp.Value
}

// segment is one node of the order-choice trie: the steps of one march
// element under one concrete address order, compiled for one prefix of order
// choices (the good-trace annotations depend on the prefix). Leaves carry
// the index of their order combination in the schedule's orderSets.
type segment struct {
	steps    []opStep
	children []int // segment indices of the next element's order choices
	leaf     int   // orderSets index when this is the last element, else -1
}

// trie is a compiled order-choice trie over a run of march elements: a whole
// test (Schedule) or the suffix an edited test resumes with (resume.go).
type trie struct {
	segs  []segment
	roots []int // segment indices of the first element's order choices
	elems int   // number of elements, the trie's depth
	steps int   // operation steps over all segments, the cost of one walk
	// laneWrites reports that every write of every element carries a
	// binary value, a precondition of the one-bit-per-cell lane encoding
	// (lanes.go). Library tests always satisfy it; only hand-built tests
	// with don't-care writes force the scalar path.
	laneWrites bool
}

// Schedule is a compiled simulation schedule: every fault-independent
// artifact of simulating one march test under one configuration. Build it
// once with NewSchedule and share it across the whole fault fan-out; all
// methods are safe for concurrent use.
type Schedule struct {
	trie
	test      march.Test
	cfg       Config
	size      int
	orderSets [][]march.AddrOrder
	pool      sync.Pool // *machine, sized for this schedule's memory
}

// NewSchedule compiles the simulation schedule of a march test under a
// configuration. It fails only when the exhaustive ⇕ expansion exceeds
// Config.MaxAnyElements.
func NewSchedule(t march.Test, cfg Config) (*Schedule, error) {
	orderSets, err := orderCombinations(t, cfg)
	if err != nil {
		return nil, err
	}
	size := cfg.size()
	s := &Schedule{
		trie: compileTrie(t.Elems, cfg, size, false, fp.V0),
		test: t, cfg: cfg, size: size, orderSets: orderSets,
	}
	s.pool.New = func() any { return newMachine(size) }
	return s, nil
}

// compileTrie builds the segment trie of elems on a memory of size cells,
// entering the first element with every cell's good value entry when
// entryWritten is set and its initial value otherwise: NewSchedule compiles
// a whole test from nothing written, a resume the suffix after a prefix
// (whose good trace is uniform, see resume.go). A ⇕ element runs up, and
// also down under exhaustive orders. Sibling order within a ⇕ element is
// Up then Down; the leaf index is the bit pattern orderCombinations assigns
// to the path's choices, so leaves map 1:1 onto orderSets (bit j of the
// index is the j-th ⇕ element's choice). Note the trie's depth-first leaf
// order is NOT ascending leaf index — combination enumeration varies the
// FIRST ⇕ element fastest — which is why the witness walks track the minimum
// missed leaf index instead of stopping at the first miss.
func compileTrie(elems []march.Element, cfg Config, size int, entryWritten bool, entry fp.Value) trie {
	t := trie{elems: len(elems), laneWrites: true}
	for _, e := range elems {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWrite && !op.Data.IsBinary() {
				t.laneWrites = false
			}
		}
	}
	exhaustive := cfg.ExhaustiveOrders

	var build func(ei, anyPos, bits int, order march.AddrOrder, written bool, last fp.Value) int
	build = func(ei, anyPos, bits int, order march.AddrOrder, written bool, last fp.Value) int {
		steps, written, last := compileElemSteps(elems[ei], order, size, ei, written, last)
		seg := segment{steps: steps, leaf: -1}
		if ei == len(elems)-1 {
			seg.leaf = bits
		} else {
			next := elems[ei+1].Order
			nextAny := anyPos
			if next == march.Any {
				if exhaustive {
					nextAny++
					seg.children = append(seg.children, build(ei+1, nextAny, bits, march.Up, written, last))
					seg.children = append(seg.children, build(ei+1, nextAny, bits|1<<anyPos, march.Down, written, last))
				} else {
					seg.children = append(seg.children, build(ei+1, nextAny, bits, march.Up, written, last))
				}
			} else {
				seg.children = append(seg.children, build(ei+1, nextAny, bits, next, written, last))
			}
		}
		t.segs = append(t.segs, seg)
		t.steps += len(steps)
		return len(t.segs) - 1
	}

	if len(elems) == 0 {
		return t
	}
	first := elems[0].Order
	if first == march.Any {
		if exhaustive {
			t.roots = append(t.roots, build(0, 1, 0, march.Up, entryWritten, entry))
			t.roots = append(t.roots, build(0, 1, 1, march.Down, entryWritten, entry))
		} else {
			t.roots = append(t.roots, build(0, 1, 0, march.Up, entryWritten, entry))
		}
	} else {
		t.roots = append(t.roots, build(0, 0, 0, first, entryWritten, entry))
	}
	return t
}

// walk runs the order-choice trie depth first over a caller's simulation
// state; it is the package's one walk of the trie, shared by the scalar
// runner (runTree) and the lane engine (walkLanes). run advances the state
// over one segment's steps, at depth d (the element's index in the trie),
// and reports whether every scenario under the prefix is detected, which
// prunes the segment's subtree. Where element d is a ⇕ with two segments,
// save(d) snapshots the state before the first and restore(d) rewinds it
// before the second, so slots d run below the trie's element count. leaf is
// called with the leaf index of every leaf reached undetected, in
// depth-first order, and stops the walk by returning false. A trie with no
// elements performs no reads, so its one combination, leaf 0, is reached
// undetected.
func (t *trie) walk(run func(d int, steps []opStep) bool, save, restore func(d int), leaf func(l int) bool) {
	if len(t.roots) == 0 {
		leaf(0)
		return
	}
	var visit func(next []int, d int) bool
	visit = func(next []int, d int) bool {
		if len(next) > 1 {
			save(d)
		}
		for i, idx := range next {
			if i > 0 {
				restore(d)
			}
			seg := &t.segs[idx]
			if run(d, seg.steps) {
				continue
			}
			if seg.leaf >= 0 {
				if !leaf(seg.leaf) {
					return false
				}
			} else if !visit(seg.children, d+1) {
				return false
			}
		}
		return true
	}
	visit(t.roots, 0)
}

// compileElemSteps flattens one element under one concrete order,
// annotating each step with the cached fault-free value of its target cell,
// and returns the good trace after the element. The trace is the same at
// every address at an element boundary, because an element applies all its
// operations to every address: a cell's good value is last when written is
// set and its initial value otherwise. So the element's steps at one address
// see the same annotations as at any other. Any orders iterate upward,
// matching AddrOrder.Addresses.
func compileElemSteps(e march.Element, order march.AddrOrder, size, ei int, written bool, last fp.Value) ([]opStep, bool, fp.Value) {
	steps := make([]opStep, 0, size*len(e.Ops))
	w, l := written, last
	for i := 0; i < size; i++ {
		addr := i
		if order == march.Down {
			addr = size - 1 - i
		}
		w, l = written, last
		for oi, op := range e.Ops {
			steps = append(steps, opStep{
				elem: ei, opIdx: oi, addr: addr, op: op,
				goodKnown: w, good: l,
			})
			if op.Kind == fp.OpWrite {
				w, l = true, op.Data
			}
		}
	}
	return steps, w, l
}

// compileStream flattens the test into the operation stream induced by one
// concrete order assignment (used by TraceScenario, which steps one linear
// stream rather than walking the trie).
func compileStream(t march.Test, orders []march.AddrOrder, size int) []opStep {
	n := 0
	for _, e := range t.Elems {
		n += size * len(e.Ops)
	}
	steps := make([]opStep, 0, n)
	written, last := false, fp.V0
	for ei, e := range t.Elems {
		var es []opStep
		es, written, last = compileElemSteps(e, orders[ei], size, ei, written, last)
		steps = append(steps, es...)
	}
	return steps
}

// Test returns the march test the schedule was compiled from.
func (s *Schedule) Test() march.Test { return s.test }

// Config returns the configuration the schedule was compiled under.
func (s *Schedule) Config() Config { return s.cfg }

// ScenarioCount returns the number of concrete scenarios the schedule
// enumerates for a fault: placements × initial values × order combinations.
func (s *Schedule) ScenarioCount(f linked.Fault) (int, error) {
	if f.Cells >= s.size {
		return 0, fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", s.size, f.Cells)
	}
	return scenarios(f.Cells, s.size) * len(s.orderSets), nil
}

// scenarios returns the scenarios of a k-cell fault on size cells under one
// order combination: its placements times its cells' initial values.
func scenarios(k, size int) int {
	n := 1 << k
	for i := 0; i < k; i++ {
		n *= size - i
	}
	return n
}

func (s *Schedule) getMachine() *machine  { return s.pool.Get().(*machine) }
func (s *Schedule) putMachine(m *machine) { s.pool.Put(m) }

// forEachPlacement enumerates the injective placements of k fault cells in
// ascending depth-first order — the order witnesses are reported in, and
// the order internal/oracle enumerates; enumeration stops early when fn
// returns false. The placement slice is reused across invocations.
func (s *Schedule) forEachPlacement(k int, fn func(placement []int) bool) error {
	if k >= s.size {
		return fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", s.size, k)
	}
	placement := make([]int, k)
	used := make([]bool, s.size)

	var place func(depth int) bool
	place = func(depth int) bool {
		if depth == k {
			return fn(placement)
		}
		for a := 0; a < s.size; a++ {
			if used[a] {
				continue
			}
			used[a] = true
			placement[depth] = a
			ok := place(depth + 1)
			used[a] = false
			if !ok {
				return false
			}
		}
		return true
	}
	place(0)
	return nil
}

// runBlock simulates every initial-value assignment of one placement, in
// ascending bit-pattern order, over the order-combination trie. It reports
// the first miss as (miss, init bit pattern, orderSets index); needWitness
// is passed through to runTree.
func (s *Schedule) runBlock(m *machine, f linked.Fault, placement []int, init []fp.Value, needWitness bool) (bool, int, int) {
	k := len(placement)
	for bits := 0; bits < 1<<k; bits++ {
		for c := 0; c < k; c++ {
			init[c] = fp.ValueOf(uint8(bits>>c) & 1)
		}
		if miss, leaf := s.runTree(m, f, placement, init, needWitness); miss {
			return true, bits, leaf
		}
	}
	return false, 0, 0
}

// anyDynamic reports whether any bound primitive of the fault is dynamic.
func anyDynamic(f linked.Fault) bool {
	for i := range f.FPs {
		if f.FPs[i].FP.IsDynamic() {
			return true
		}
	}
	return false
}

// Placement-class memoization bounds. classSpace is the size of the rank
// table: ranks pack one base-classKeyBase digit per cell (digits 1..k, k ≤
// maxClassCells), so every rank of an eligible fault is < classSpace. The
// memoizing paths check the cell count against maxClassCells (canClassCache)
// before touching the table; a fault with more cells degrades to the
// uncached per-placement path instead of aliasing table slots.
const (
	maxClassCells = 3
	classKeyBase  = maxClassCells + 1
	classSpace    = classKeyBase * classKeyBase * classKeyBase
)

// canClassCache reports whether the per-placement-class memoization (and the
// lane engine, which is built on the same equivalence) applies to a fault:
// static primitives only, and few enough cells that every class rank fits
// the classSpace table.
func canClassCache(f linked.Fault) bool {
	return f.Cells >= 1 && f.Cells <= maxClassCells && !anyDynamic(f)
}

// placementClass ranks the relative address order of the placed cells: the
// cell indices in ascending address order, packed base-classKeyBase
// (cells ≤ maxClassCells).
//
// For faults with only static primitives the simulation outcome of a
// scenario depends on the placement solely through this rank: every march
// element applies the same operations at every address, so the operation
// substream a cell sees — and its good-trace annotations — depend only on
// where the cell sits relative to the other fault cells, and bystander
// steps neither match a primitive nor detect (their only side effect,
// disarming, concerns dynamic primitives). Two placements with equal rank
// therefore miss or detect identically, for identical (init, order
// combination) pairs.
//
// The rank is computed by sorting the k (address, cell) pairs — O(k log k),
// an insertion sort over at most maxClassCells entries — instead of the old
// O(size·k) scan over every memory address, so it no longer grows with the
// memory size.
func placementClass(placement []int) int {
	var addrs, cells [maxClassCells]int
	for c, a := range placement {
		i := c
		for i > 0 && addrs[i-1] > a {
			addrs[i], cells[i] = addrs[i-1], cells[i-1]
			i--
		}
		addrs[i], cells[i] = a, c
	}
	key := 0
	for i := 0; i < len(placement); i++ {
		key = key*classKeyBase + cells[i] + 1
	}
	return key
}

// classResult memoizes one placement class's block outcome.
type classResult struct {
	done     bool
	miss     bool
	initBits int
	leaf     int
}

// bindCtx is the placement-resolved view of one fault binding: every field
// the inner simulation loop needs, flattened out of the Binding/FP structs
// so stepping reads a handful of scalars instead of chasing and copying the
// notation-level representation.
type bindCtx struct {
	victimAddr int
	aggAddr    int // -1 when the primitive has no aggressor
	trigOp     bool
	trigState  bool
	dynamic    bool
	opRole     fp.Role
	opKind     fp.OpKind
	opData     fp.Value // write data of the first sensitizing operation
	op2Kind    fp.OpKind
	op2Data    fp.Value
	aInit      fp.Value // VX when unconstrained
	vInit      fp.Value // VX when unconstrained
	fv         fp.Value // faulty value stored in the victim
	r          fp.Value // faulty read return, VX when none
}

// validateBindings rejects faults whose binding indices lie outside the
// fault's declared cell set. Taxonomy faults can never fail this —
// linked.Binding.Validate enforces the same ranges — but hand-built faults
// bypass Validate, and an out-of-range index used to surface as an index
// panic deep inside bindFault (placement[b.V] / placement[b.A]) instead of
// an error. Every simulation entry point calls this before resolving a
// placement.
func validateBindings(f linked.Fault) error {
	for i := range f.FPs {
		b := &f.FPs[i]
		if b.V < 0 || b.V >= f.Cells {
			return fmt.Errorf("sim: binding %d (%s): victim index %d out of range [0,%d)",
				i, b.FP.ID(), b.V, f.Cells)
		}
		if b.A < -1 || b.A >= f.Cells {
			return fmt.Errorf("sim: binding %d (%s): aggressor index %d out of range [-1,%d)",
				i, b.FP.ID(), b.A, f.Cells)
		}
	}
	return nil
}

// bindFault resolves the fault's bindings against a placement into the
// machine's context buffer and returns whether any binding is
// state-triggered (settling is skipped entirely otherwise) and whether any
// is dynamic (arming bookkeeping is skipped otherwise).
func (m *machine) bindFault(f linked.Fault, placement []int) (hasState, hasDynamic bool) {
	if cap(m.ctxs) < len(f.FPs) {
		m.ctxs = make([]bindCtx, len(f.FPs))
	}
	m.ctxs = m.ctxs[:len(f.FPs)]
	for i := range f.FPs {
		b := &f.FPs[i]
		c := &m.ctxs[i]
		*c = bindCtx{
			victimAddr: placement[b.V],
			aggAddr:    -1,
			trigOp:     b.FP.Trigger == fp.TrigOp,
			trigState:  b.FP.Trigger == fp.TrigState,
			dynamic:    b.FP.IsDynamic(),
			opRole:     b.FP.OpRole,
			opKind:     b.FP.Op.Kind,
			opData:     b.FP.Op.Data,
			op2Kind:    b.FP.Op2.Kind,
			op2Data:    b.FP.Op2.Data,
			aInit:      b.FP.AInit,
			vInit:      b.FP.VInit,
			fv:         b.FP.F,
			r:          b.FP.R,
		}
		if b.A >= 0 {
			c.aggAddr = placement[b.A]
		}
		if b.FP.Cells != 2 {
			// MatchesOp only constrains the aggressor state of two-cell
			// primitives; mirror that here.
			c.aInit = fp.VX
		}
		if c.aInit != fp.VX && c.aggAddr < 0 {
			// An aggressor-state condition with no bound aggressor can never
			// hold (fp.FP's matchers compare it against VX); the binding is
			// inert. Only hand-built faults reach this — Validate rejects
			// them — but the simulator must not index address -1.
			// victimAddr -1 keeps it out of the trigger loop, the cleared
			// flags keep it out of the settle and wait scans.
			c.trigOp = false
			c.trigState = false
			c.victimAddr = -1
		}
		hasState = hasState || c.trigState
		hasDynamic = hasDynamic || c.dynamic
	}
	return hasState, hasDynamic
}

// settleCtx applies state-triggered primitives (SF, CFst) over the resolved
// contexts until a fixpoint, bounded to avoid oscillation between mutually
// linked state conditions.
func (m *machine) settleCtx() {
	for iter := 0; iter <= len(m.ctxs); iter++ {
		progress := false
		for i := range m.ctxs {
			c := &m.ctxs[i]
			if !c.trigState {
				continue
			}
			// Check the aggressor's existence before indexing with its
			// address: bindFault neuters no-aggressor bindings that carry an
			// aggressor condition (clearing trigState), so aggAddr is never
			// -1 here today — but only because of that ordering. Keep the
			// bound check first so the invariant is local, not global.
			if c.aInit != fp.VX && (c.aggAddr < 0 || m.faulty[c.aggAddr] != c.aInit) {
				continue
			}
			// MatchesState requires a binary victim condition, so a VX VInit
			// (hand-built; Validate rejects it) never sensitizes.
			if c.vInit != fp.VX && m.faulty[c.victimAddr] == c.vInit && c.fv != c.vInit {
				m.faulty[c.victimAddr] = c.fv
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// waitCtx models the wait operation 't' over the resolved contexts: time
// passes for the whole array, sensitizing data retention primitives whose
// state conditions hold.
func (m *machine) waitCtx(hasState bool) {
	for i := range m.ctxs {
		c := &m.ctxs[i]
		if !c.trigOp || c.dynamic || c.opKind != fp.OpWait || c.opRole != fp.RoleVictim {
			continue
		}
		// As in settleCtx: bound-check aggAddr before indexing with it.
		if c.aInit != fp.VX && (c.aggAddr < 0 || m.faulty[c.aggAddr] != c.aInit) {
			continue
		}
		if c.vInit != fp.VX && m.faulty[c.victimAddr] != c.vInit {
			continue
		}
		m.faulty[c.victimAddr] = c.fv
	}
	if hasState {
		m.settleCtx()
	}
}

// load binds the fault to the placement and puts the machine in the
// scenario's settled initial state, returning bindFault's flags.
func (m *machine) load(f linked.Fault, placement []int, init []fp.Value) (hasState, hasDynamic bool) {
	m.ensureBindings(len(f.FPs))
	hasState, hasDynamic = m.bindFault(f, placement)
	for i := range m.faulty {
		m.faulty[i] = fp.V0
		m.cellAt[i] = -1
	}
	for c, addr := range placement {
		m.faulty[addr] = init[c]
		m.cellAt[addr] = c
	}
	m.disarm()
	if hasState {
		m.settleCtx()
	}
	return hasState, hasDynamic
}

// runSteps simulates the fault over one compiled step segment from the
// machine's current state and reports whether any read detects it. Only the
// faulty array is simulated; reads compare against the segment's cached good
// trace. Each step applies the paper's semantics in four stages (triggers
// against the pre-operation state, base operation, fault effects in binding
// order, state-fault settling), specialized for speed: bindings are
// pre-resolved against the placement (bindFault), bystander steps reduce to
// disarming, and the settle/arming bookkeeping is skipped for faults that
// cannot need it. reference_test.go pins its verdicts, witnesses and traces
// to internal/oracle.
//
// A nil fail stops the run at the first detecting read, as verdicts need;
// otherwise every detecting read goes to fail and the result is false.
func (m *machine) runSteps(init []fp.Value, steps []opStep, hasState, hasDynamic bool, fail func(elem, opIdx, addr int)) bool {
	// The loop runs a handful of instructions per step; everything it needs
	// is hoisted into locals so the compiler keeps the slice headers in
	// registers across the stores into faulty. The armed pair is swapped
	// locally and written back on exit (save/restore read the fields).
	faulty := m.faulty
	cellAt := m.cellAt
	ctxs := m.ctxs
	matched := m.matched
	armed, armedAddr := m.armed, m.armedAddr
	nextArmed, nextArmedAddr := m.nextArmed, m.nextArmedAddr
	writeback := func() {
		m.armed, m.armedAddr = armed, armedAddr
		m.nextArmed, m.nextArmedAddr = nextArmed, nextArmedAddr
	}

	for si := range steps {
		st := &steps[si]
		op := st.op
		addr := st.addr
		if op.Kind == fp.OpWait {
			m.waitCtx(hasState)
			for i := range armed {
				armed[i] = false // a wait breaks back-to-back sequences
			}
			continue
		}
		if cellAt[addr] < 0 {
			// Bystander cell: no primitive can match (every aggressor and
			// victim is a placed cell), the faulty value equals the good
			// trace by induction, and the only side effect of the step is
			// breaking any armed back-to-back sequence.
			if hasDynamic {
				for i := range armed {
					armed[i] = false
				}
			}
			continue
		}

		// 1. Evaluate operation triggers against the pre-operation faulty
		// state: static primitives match on the single operation; dynamic
		// ones fire when the operation completes a sequence armed on the
		// previous step, and (re-)arm when it matches their first operation;
		// whatever this step does not re-arm is disarmed. State-triggered
		// and inert bindings fall out naturally: their opKind is OpNone
		// (never equal to a read or write) and their victimAddr is -1
		// respectively.
		anyMatched := false
		for i := range ctxs {
			c := &ctxs[i]
			mt := false
			na := false
			hit := false
			if addr == c.victimAddr {
				hit = c.opRole == fp.RoleVictim
			} else if addr == c.aggAddr {
				hit = c.opRole == fp.RoleAggressor
			}
			if hit {
				if c.dynamic {
					if armed[i] && armedAddr[i] == addr &&
						op.Kind == c.op2Kind && (op.Kind != fp.OpWrite || op.Data == c.op2Data) {
						mt = true
					} else if op.Kind == c.opKind && (op.Kind != fp.OpWrite || op.Data == c.opData) &&
						(c.aInit == fp.VX || faulty[c.aggAddr] == c.aInit) &&
						(c.vInit == fp.VX || faulty[c.victimAddr] == c.vInit) {
						na = true
					}
				} else if op.Kind == c.opKind && (op.Kind != fp.OpWrite || op.Data == c.opData) &&
					(c.aInit == fp.VX || faulty[c.aggAddr] == c.aInit) &&
					(c.vInit == fp.VX || faulty[c.victimAddr] == c.vInit) {
					mt = true
				}
			}
			matched[i] = mt
			anyMatched = anyMatched || mt
			if hasDynamic {
				nextArmed[i] = na
				if na {
					nextArmedAddr[i] = addr
				}
			}
		}
		if hasDynamic {
			armed, nextArmed = nextArmed, armed
			armedAddr, nextArmedAddr = nextArmedAddr, armedAddr
		}

		// 2. Base operation semantics on the faulty machine; the good value
		// comes from the compiled trace (or the scenario's initial values
		// before the stream's first write to the cell).
		retGood, retFaulty := fp.VX, fp.VX
		changed := anyMatched
		isRead := op.Kind == fp.OpRead
		if isRead {
			retGood = st.good
			if !st.goodKnown {
				retGood = init[cellAt[addr]]
			}
			retFaulty = faulty[addr]
		} else { // write: waits were handled above
			changed = changed || faulty[addr] != op.Data
			faulty[addr] = op.Data
		}

		// 3. Fault effects, in binding order (FP1 before FP2).
		if anyMatched {
			for i := range ctxs {
				if !matched[i] {
					continue
				}
				c := &ctxs[i]
				faulty[c.victimAddr] = c.fv
				if isRead && c.victimAddr == addr && c.opRole == fp.RoleVictim && c.r != fp.VX {
					retFaulty = c.r
				}
			}
		}

		// 4. State-triggered primitives settle on the new state. The state
		// was at a fixpoint entering the step, so settling is only needed
		// when the step changed a cell (write or fault effect).
		if hasState && changed {
			m.settleCtx()
		}

		if isRead && retFaulty != retGood {
			if fail == nil {
				writeback()
				return true
			}
			fail(st.elem, st.opIdx, st.addr)
		}
	}
	writeback()
	return false
}

// runTree simulates every order combination of one (placement, init) block
// by walking the segment trie on the scalar machine. It reports whether any
// combination fails to detect the fault and, when needWitness is set, the
// LOWEST orderSets index among the failing combinations — the combination
// enumeration order reports first. With needWitness unset the walk stops at
// its first miss.
func (s *Schedule) runTree(m *machine, f linked.Fault, placement []int, init []fp.Value, needWitness bool) (bool, int) {
	hasState, hasDynamic := m.load(f, placement, init)
	nb := len(m.ctxs)
	m.ensureSnapshots(len(s.test.Elems)*s.size, len(s.test.Elems)*nb)
	missLeaf := -1
	s.walk(
		func(_ int, steps []opStep) bool { return m.runSteps(init, steps, hasState, hasDynamic, nil) },
		func(d int) { m.save(d, nb, hasDynamic) },
		func(d int) { m.restore(d, nb, hasDynamic) },
		func(l int) bool {
			if missLeaf < 0 || l < missLeaf {
				missLeaf = l
			}
			return needWitness
		})
	return missLeaf >= 0, missLeaf
}

// detects reports whether the test detects the fault in every scenario,
// reusing the caller's machine. With needWitness set, witness is the first
// undetected scenario in enumeration order when it does not: placements in
// ascending depth-first order, then initial-value bit patterns, then order
// combinations — the order internal/oracle reports too. Unset, the
// simulation stops at the first miss and the witness is nil.
//
// Static faults are checked once per placement class (placementClass) rather
// than once per placement. The witness stays exact: placements are visited
// in enumeration order, a class is resolved at its first (i.e. earliest)
// member, and class members share their first missing (init, combination)
// pair — so the first placement whose class misses, combined with the
// class's recorded miss, is precisely the scenario the per-placement
// enumeration reports first.
//
// When the fault is lane-eligible (planLanes), every placement class is
// resolved by one bit-parallel pass up front; the placement loop then only
// reads the table, so the witness construction is shared with — and exactly
// as precise as — the scalar path. A verdict alone needs no placement loop:
// every placement belongs to one of the k! classes the lanes cover, so "any
// lane misses any leaf" is exactly "any scenario misses".
func (s *Schedule) detects(m *machine, f linked.Fault, needWitness bool) (bool, *Scenario, error) {
	if err := validateBindings(f); err != nil {
		return false, nil, err
	}
	k := f.Cells
	useClasses := canClassCache(f)
	lanes := useClasses && s.planLanes(m, f)
	if lanes && !needWitness {
		detected := true
		var vs [maxLaneCells]uint64
		m.plan.laneInitState(&vs)
		s.walkLanes(m, &m.plan, vs, 0, nil, func(int, uint64) bool {
			detected = false
			return false
		})
		return detected, nil, nil
	}
	var classes [classSpace]classResult
	if lanes {
		s.laneClasses(m, &classes)
	}
	init := make([]fp.Value, k)
	detected := true
	var witness *Scenario
	err := s.forEachPlacement(k, func(placement []int) bool {
		var r classResult
		if useClasses {
			cr := &classes[placementClass(placement)]
			if !cr.done {
				miss, bits, leaf := s.runBlock(m, f, placement, init, needWitness)
				*cr = classResult{done: true, miss: miss, initBits: bits, leaf: leaf}
			}
			r = *cr
		} else {
			r.miss, r.initBits, r.leaf = s.runBlock(m, f, placement, init, needWitness)
		}
		if !r.miss {
			return true
		}
		detected = false
		if needWitness {
			for c := 0; c < k; c++ {
				init[c] = fp.ValueOf(uint8(r.initBits>>c) & 1)
			}
			witness = cloneScenario(Scenario{Placement: placement, Init: init, Orders: s.orderSets[r.leaf]})
		}
		return false
	})
	if err != nil {
		return false, nil, err
	}
	return detected, witness, nil
}

// DetectsFault reports whether the schedule's test detects the fault in
// every scenario. When it does not, the returned witness is one undetected
// scenario.
func (s *Schedule) DetectsFault(f linked.Fault) (bool, *Scenario, error) {
	m := s.getMachine()
	defer s.putMachine(m)
	return s.detects(m, f, true)
}

// FailingReads simulates one scenario of the fault (a placement and the
// fault cells' initial values) over the schedule's first order combination,
// every ⇕ upward, and calls fn for every read that detects the fault, in
// stream order. Unlike a verdict it runs past the first detection: the
// reads are the syndrome a tester records. It refuses the scenarios
// checkScenario refuses.
func (s *Schedule) FailingReads(f linked.Fault, placement []int, init []fp.Value, fn func(elem, opIdx, addr int)) error {
	if err := validateBindings(f); err != nil {
		return err
	}
	if err := checkScenario(f, placement, init, s.size); err != nil {
		return err
	}
	m := s.getMachine()
	defer s.putMachine(m)
	hasState, hasDynamic := m.load(f, placement, init)
	for next := s.roots; len(next) > 0; next = s.segs[next[0]].children {
		m.runSteps(init, s.segs[next[0]].steps, hasState, hasDynamic, fn)
	}
	return nil
}

// result simulates one fault to a Result, reusing the caller's machine.
func (s *Schedule) result(m *machine, f linked.Fault) Result {
	det, witness, err := s.detects(m, f, true)
	if err != nil {
		return Result{Fault: f, Err: err}
	}
	return Result{Fault: f, Detected: det, Witness: witness}
}
