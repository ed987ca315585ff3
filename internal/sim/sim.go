// Package sim is the memory fault simulator the paper relies on for
// validation (its reference [13], "Specification and design of a new memory
// fault simulator"): it decides whether a march test detects a functional
// fault.
//
// The simulator runs the fault-free ("good") and the faulty machine in
// lockstep over the operation stream a march test induces on a small memory.
// Fault primitives are evaluated against the faulty machine's state, so the
// masking behavior of linked faults (Section 3 of the paper) emerges from
// the semantics instead of being special-cased: both primitives of a linked
// pair are simultaneously active and the second naturally cancels the first
// when the test gives it the chance.
//
// A fault model is *detected* by a test only if every concrete scenario is
// detected: every placement of the fault's cells onto memory addresses,
// every initial value of those cells (march tests must work for arbitrary
// power-up content), and — for ⇕ elements — every concrete address order.
package sim

import (
	"fmt"
	"runtime"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// Config controls the simulation space.
type Config struct {
	// Size is the number of memory cells; at least one more than the number
	// of fault cells so bystander behavior is exercised. 0 means the default
	// of 4 cells.
	Size int
	// ExhaustiveOrders expands every ⇕ element into both concrete address
	// orders and requires detection under all combinations. When false, ⇕
	// iterates upward (the paper's convention for generation-time checks).
	ExhaustiveOrders bool
	// Workers bounds the number of goroutines Simulate uses across faults.
	// 0 means GOMAXPROCS.
	Workers int
	// MaxAnyElements caps the ⇕ expansion to keep the scenario space
	// bounded; 0 means the default of 12 (4096 order combinations).
	MaxAnyElements int
	// Width is the memory word width in bits for word-oriented evaluation
	// (internal/word). 0 or 1 means the classic bit-oriented memory; values
	// above 1 add word-background expansion to the paths that understand it.
	// Width is part of the simulation's identity and travels on the wire,
	// but only when it departs from the bit-oriented default so width-1
	// requests stay byte-identical to pre-width clients.
	Width int
	// Ports is the number of simultaneous access ports for multi-port
	// evaluation (internal/mport). 0 or 1 means single-port; 2 enables the
	// two-port weak-fault path. Like Width it travels on the wire only when
	// it departs from the single-port default.
	Ports int

	// scalar forces the scalar compiled-schedule path for every fault.
	// Whether the bit-parallel lane engine (lanes.go) runs is otherwise
	// planLanes' call alone, made from the fault and the test; lanes never
	// change verdicts or witnesses. The field exists so this package's
	// differential tests and benchmarks can pin lanes against the scalar
	// reference.
	scalar bool
}

// DefaultConfig is the configuration used throughout the experiments:
// 4 cells, exhaustive ⇕ expansion.
func DefaultConfig() Config {
	return Config{Size: 4, ExhaustiveOrders: true}
}

func (c Config) size() int {
	if c.Size <= 0 {
		return 4
	}
	return c.Size
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Scenario is one concrete simulation instance: a placement of the fault's
// abstract cells onto memory addresses, the initial values of those cells,
// and the concrete address order of every march element.
type Scenario struct {
	// Placement maps fault cell index to memory address.
	Placement []int
	// Init holds the initial value of each fault cell; bystander cells
	// start at 0.
	Init []fp.Value
	// Orders is the concrete address order of each march element (⇕
	// elements resolved to ⇑ or ⇓).
	Orders []march.AddrOrder
}

// String renders the scenario for diagnostics.
func (s Scenario) String() string {
	var b strings.Builder
	b.WriteString("cells@")
	for i, a := range s.Placement {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	b.WriteString(" init=")
	for _, v := range s.Init {
		b.WriteString(v.String())
	}
	b.WriteString(" orders=")
	for _, o := range s.Orders {
		b.WriteString(o.ASCII())
	}
	return b.String()
}

// machine is a pair of memories simulated in lockstep. For dynamic (m = 2)
// fault primitives it tracks which bindings are "armed": the first
// sensitizing operation matched on the immediately preceding step of the
// operation stream, so the primitive fires if the current operation
// completes the back-to-back sequence on the same cell.
//
// A machine is reused across faults and scenarios (Schedule keeps them in a
// sync.Pool); the per-fault buffers are resized by ensureBindings so faults
// may bind any number of primitives.
type machine struct {
	good   []fp.Value
	faulty []fp.Value
	// cellAt maps memory address -> fault cell index (-1 for bystanders).
	// The compiled schedule path uses it to resolve good-trace values that
	// predate the first write a stream makes to an address.
	cellAt []int
	// armed[i] reports that binding i's first dynamic operation matched on
	// the previous step; armedAddr[i] is the cell it matched on. Sized to
	// the fault's binding count by ensureBindings.
	armed     []bool
	armedAddr []int
	// matched, nextArmed and nextArmedAddr are per-step scratch buffers,
	// kept on the machine so stepping never allocates.
	matched       []bool
	nextArmed     []bool
	nextArmedAddr []int
	// ctxs holds the placement-resolved binding contexts of the compiled
	// schedule path (bindFault), reused across scenarios.
	ctxs []bindCtx
	// snapFaulty, snapArmed and snapArmedAddr are the per-depth state
	// snapshots of the order-choice trie walk (Schedule.runTree): slot d of
	// snapFaulty holds size cells, slot d of the armed pair holds one entry
	// per binding.
	snapFaulty    []fp.Value
	snapArmed     []bool
	snapArmedAddr []int
	// plan, laneLeafMiss and laneSnap are the bit-parallel engine's per-fault
	// plan and scratch buffers (lanes.go), reused across faults like ctxs.
	plan         lanePlan
	laneLeafMiss []uint64
	laneSnap     []uint64
}

func newMachine(size int) *machine {
	return &machine{
		good:   make([]fp.Value, size),
		faulty: make([]fp.Value, size),
		cellAt: make([]int, size),
	}
}

// ensureBindings sizes the per-binding buffers for a fault with n bound
// primitives. The buffers grow on demand, so faults with any number of
// bindings simulate without reallocation or out-of-range panics.
func (m *machine) ensureBindings(n int) {
	if cap(m.armed) < n {
		m.armed = make([]bool, n)
		m.armedAddr = make([]int, n)
		m.matched = make([]bool, n)
		m.nextArmed = make([]bool, n)
		m.nextArmedAddr = make([]int, n)
		return
	}
	m.armed = m.armed[:n]
	m.armedAddr = m.armedAddr[:n]
	m.matched = m.matched[:n]
	m.nextArmed = m.nextArmed[:n]
	m.nextArmedAddr = m.nextArmedAddr[:n]
}

// disarm clears every armed dynamic sequence.
func (m *machine) disarm() {
	for i := range m.armed {
		m.armed[i] = false
	}
}

// ensureSnapshots sizes the trie-walk snapshot stacks for nFaulty total
// cell slots and nArmed total binding slots.
func (m *machine) ensureSnapshots(nFaulty, nArmed int) {
	if cap(m.snapFaulty) < nFaulty {
		m.snapFaulty = make([]fp.Value, nFaulty)
	}
	m.snapFaulty = m.snapFaulty[:nFaulty]
	if cap(m.snapArmed) < nArmed {
		m.snapArmed = make([]bool, nArmed)
		m.snapArmedAddr = make([]int, nArmed)
	}
	m.snapArmed = m.snapArmed[:nArmed]
	m.snapArmedAddr = m.snapArmedAddr[:nArmed]
}

// save snapshots the mutable simulation state (faulty array, and for
// dynamic faults the armed sequences) into depth slot d.
func (m *machine) save(d, nb int, hasDynamic bool) {
	copy(m.snapFaulty[d*len(m.faulty):], m.faulty)
	if hasDynamic {
		copy(m.snapArmed[d*nb:(d+1)*nb], m.armed)
		copy(m.snapArmedAddr[d*nb:(d+1)*nb], m.armedAddr)
	}
}

// restore rewinds the mutable simulation state to depth slot d.
func (m *machine) restore(d, nb int, hasDynamic bool) {
	copy(m.faulty, m.snapFaulty[d*len(m.faulty):(d+1)*len(m.faulty)])
	if hasDynamic {
		copy(m.armed, m.snapArmed[d*nb:(d+1)*nb])
		copy(m.armedAddr, m.snapArmedAddr[d*nb:(d+1)*nb])
	}
}

func (m *machine) reset(f linked.Fault, s Scenario) {
	m.ensureBindings(len(f.FPs))
	for i := range m.good {
		m.good[i] = fp.V0
		m.faulty[i] = fp.V0
	}
	for c, addr := range s.Placement {
		m.good[addr] = s.Init[c]
		m.faulty[addr] = s.Init[c]
	}
	m.disarm()
}

// states returns the faulty-machine states of a binding's aggressor and
// victim cells.
func (m *machine) states(b linked.Binding, placement []int) (aState, vState fp.Value) {
	aState = fp.VX
	if b.A >= 0 {
		aState = m.faulty[placement[b.A]]
	}
	return aState, m.faulty[placement[b.V]]
}

// settleStateFaults applies state-triggered primitives (SF, CFst) until a
// fixpoint, bounded to avoid oscillation between mutually linked state
// conditions. It returns true if any cell changed.
func (m *machine) settleStateFaults(f linked.Fault, placement []int) bool {
	changed := false
	for iter := 0; iter <= len(f.FPs); iter++ {
		progress := false
		for _, b := range f.FPs {
			if b.FP.Trigger != fp.TrigState {
				continue
			}
			aState, vState := m.states(b, placement)
			if b.FP.MatchesState(aState, vState) && m.faulty[placement[b.V]] != b.FP.F {
				m.faulty[placement[b.V]] = b.FP.F
				progress = true
				changed = true
			}
		}
		if !progress {
			break
		}
	}
	return changed
}

// applyWait models the wait operation 't': time passes for the whole array,
// sensitizing data retention faults on any fault cell whose state matches.
func (m *machine) applyWait(f linked.Fault, placement []int) {
	for _, b := range f.FPs {
		if b.FP.Trigger != fp.TrigOp || b.FP.Op.Kind != fp.OpWait {
			continue
		}
		aState, vState := m.states(b, placement)
		if b.FP.MatchesOp(fp.Wait, fp.RoleVictim, aState, vState) {
			m.faulty[placement[b.V]] = b.FP.F
		}
	}
	m.settleStateFaults(f, placement)
}

// evalTriggers evaluates operation triggers against the pre-operation
// faulty state. Static primitives match on the single operation; dynamic
// ones fire when the current operation completes a sequence armed on the
// previous step, and (re-)arm when it matches their first operation. The
// returned slice is the machine's matched scratch buffer, valid until the
// next step.
func (m *machine) evalTriggers(f linked.Fault, placement []int, addr int, op fp.Op) []bool {
	matched, nextArmed, nextArmedAddr := m.matched, m.nextArmed, m.nextArmedAddr
	for i := range matched {
		matched[i] = false
		nextArmed[i] = false
	}
	for i, b := range f.FPs {
		if b.FP.Trigger != fp.TrigOp {
			continue
		}
		var role fp.Role
		switch {
		case placement[b.V] == addr:
			role = fp.RoleVictim
		case b.A >= 0 && placement[b.A] == addr:
			role = fp.RoleAggressor
		default:
			continue
		}
		aState, vState := m.states(b, placement)
		if b.FP.IsDynamic() {
			if m.armed[i] && m.armedAddr[i] == addr && b.FP.MatchesSecondOp(op, role) {
				matched[i] = true
			} else if b.FP.MatchesFirstOp(op, role, aState, vState) {
				nextArmed[i] = true
				nextArmedAddr[i] = addr
			}
			continue
		}
		if b.FP.MatchesOp(op, role, aState, vState) {
			matched[i] = true
		}
	}
	// Back-to-back means consecutive in the operation stream: whatever this
	// step did not re-arm is disarmed.
	m.armed, m.nextArmed = nextArmed, m.armed
	m.armedAddr, m.nextArmedAddr = nextArmedAddr, m.armedAddr
	return matched
}

// applyEffects applies the fault effects of the matched bindings, in binding
// order (FP1 before FP2, so the linked masking sequence plays out
// deterministically), and returns the possibly overridden faulty read value.
func (m *machine) applyEffects(f linked.Fault, placement []int, addr int, isRead bool, matched []bool, retFaulty fp.Value) fp.Value {
	for i, b := range f.FPs {
		if !matched[i] {
			continue
		}
		m.faulty[placement[b.V]] = b.FP.F
		if isRead && placement[b.V] == addr && b.FP.OpRole == fp.RoleVictim && b.FP.R.IsBinary() {
			retFaulty = b.FP.R
		}
	}
	return retFaulty
}

// step applies one march operation to address addr and reports whether the
// operation was a read that detected the fault (faulty return value differs
// from the fault-free one), along with the read values of both machines
// (VX for non-reads).
func (m *machine) step(f linked.Fault, placement []int, addr int, op fp.Op) (bool, fp.Value, fp.Value) {
	if op.Kind == fp.OpWait {
		m.applyWait(f, placement)
		m.disarm() // a wait breaks back-to-back sequences
		return false, fp.VX, fp.VX
	}

	// 1. Evaluate operation triggers against the pre-operation faulty state.
	matched := m.evalTriggers(f, placement, addr, op)

	// 2. Base operation semantics on both machines.
	retGood, retFaulty := fp.VX, fp.VX
	isRead := op.Kind == fp.OpRead
	switch op.Kind {
	case fp.OpWrite:
		m.good[addr] = op.Data
		m.faulty[addr] = op.Data
	case fp.OpRead:
		retGood = m.good[addr]
		retFaulty = m.faulty[addr]
	}

	// 3. Fault effects.
	retFaulty = m.applyEffects(f, placement, addr, isRead, matched, retFaulty)

	// 4. State-triggered primitives settle on the new state.
	m.settleStateFaults(f, placement)

	return isRead && retFaulty != retGood, retGood, retFaulty
}

// run simulates the full test for one scenario and reports whether any read
// detects the fault. It is the uncompiled reference path: the compiled
// schedule (schedule.go) must produce bit-identical verdicts, which
// schedule_test.go asserts for every library test and shipped fault list.
func (m *machine) run(t march.Test, f linked.Fault, s Scenario, size int) bool {
	m.reset(f, s)
	m.settleStateFaults(f, s.Placement)
	for ei, e := range t.Elems {
		for _, addr := range s.Orders[ei].Addresses(size) {
			for _, op := range e.Ops {
				if det, _, _ := m.step(f, s.Placement, addr, op); det {
					// Detection anywhere suffices; subsequent state is
					// irrelevant once detected.
					return true
				}
			}
		}
	}
	return false
}
