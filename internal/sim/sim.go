// Package sim is the memory fault simulator the paper relies on for
// validation (its reference [13], "Specification and design of a new memory
// fault simulator"): it decides whether a march test detects a functional
// fault.
//
// The simulator runs the faulty machine over the operation stream a march
// test induces on a small memory and compares every read with the
// fault-free ("good") value, which depends only on the test and is compiled
// once per schedule (schedule.go). Fault primitives are evaluated against
// the faulty machine's state, so the masking behavior of linked faults
// (Section 3 of the paper) emerges from the semantics instead of being
// special-cased: both primitives of a linked pair are simultaneously active
// and the second naturally cancels the first when the test gives it the
// chance.
//
// A fault model is *detected* by a test only if every concrete scenario is
// detected: every placement of the fault's cells onto memory addresses,
// every initial value of those cells (march tests must work for arbitrary
// power-up content), and — for ⇕ elements — every concrete address order.
package sim

import (
	"fmt"
	"strings"

	"marchgen/internal/fp"
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
	// path.
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

// machine is the faulty memory of the compiled schedule path; the
// fault-free values come from the schedule's good trace (opStep.good). For
// dynamic (m = 2) fault primitives it tracks which bindings are "armed": the
// first sensitizing operation matched on the immediately preceding step of
// the operation stream, so the primitive fires if the current operation
// completes the back-to-back sequence on the same cell.
//
// A machine is reused across faults and scenarios (Schedule keeps them in a
// sync.Pool); the per-fault buffers are resized by ensureBindings so faults
// may bind any number of primitives.
type machine struct {
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
	// snapshots the scalar runner (runTree) keeps for the order-choice trie
	// walk (trie.walk): slot d of snapFaulty holds size cells, slot d of
	// the armed pair holds one entry per binding.
	snapFaulty    []fp.Value
	snapArmed     []bool
	snapArmedAddr []int
	// plan, laneLeafMiss and laneSnap are the bit-parallel engine's per-fault
	// plan, per-leaf miss masks and walk snapshots (lanes.go), reused across
	// faults like ctxs.
	plan         lanePlan
	laneLeafMiss []uint64
	laneSnap     []uint64
}

func newMachine(size int) *machine {
	return &machine{
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
