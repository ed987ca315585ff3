package oracle

import (
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// automaton is the explicit Mealy machine of one fault under one placement.
//
// State space: the 2^n possible memory contents (one bit per cell — every
// reachable cell value is binary: cells start at a binary value and writes
// and fault effects store binary values) crossed with the arming status of
// each dynamic fault-primitive binding (disarmed, or armed on one of the n
// addresses). Input alphabet: {w0, w1, r} applied to each address, plus the
// global wait 't'. Output alphabet: the value a read returns (reads are the
// only observing inputs).
//
// The transition function delta is computed directly from the fault
// primitive definitions (Definition 3 of the paper) for one (state, input)
// pair at a time and memoized per placement — a plain function table, not a
// compiled schedule: no op-stream sharing, no good-trace annotations, no
// placement equivalence. The fault-free machine is not part of this
// automaton; run simulates it explicitly alongside (it is the trivial
// memory automaton: writes store, reads return, wait does nothing).
type automaton struct {
	size int
	f    linked.Fault
	// dynIdx lists the positions of the dynamic (two-operation) bindings in
	// f.FPs; only those carry arming status in the automaton state.
	dynIdx    []int
	placement []int

	// memStates = 2^size; armRadix = size+1 (disarmed, or armed on one of
	// the size addresses); stateCount = memStates * armRadix^len(dynIdx).
	memStates  int
	armRadix   int
	stateCount int
	inputCount int

	// table memoizes delta per (state, input); tableGen marks which entries
	// belong to the current placement (bumping gen invalidates them all
	// without clearing). A dense table is used when the state space is
	// small enough, otherwise the sparse map.
	table    []trans
	tableGen []uint32
	gen      uint32
	sparse   map[int64]trans

	// scratch buffers of the transition computation.
	cells     []fp.Value
	armed     []int // per binding: 0 = disarmed, 1+addr = armed on addr
	nextArmed []int
	matched   []bool
}

// trans is one memoized transition: successor state and, for read inputs,
// the value the faulty machine returns (-1 for non-observing inputs).
type trans struct {
	next int
	out  int8
}

// denseTableLimit bounds the dense memo allocation (entries); larger state
// spaces fall back to the sparse map.
const denseTableLimit = 1 << 22

func newAutomaton(f linked.Fault, size int) *automaton {
	a := &automaton{
		size:       size,
		f:          f,
		memStates:  1 << size,
		armRadix:   size + 1,
		inputCount: 1 + 3*size, // wait + {w0,w1,r} per address
		cells:      make([]fp.Value, size),
		armed:      make([]int, len(f.FPs)),
		nextArmed:  make([]int, len(f.FPs)),
		matched:    make([]bool, len(f.FPs)),
	}
	for i, b := range f.FPs {
		if b.FP.IsDynamic() {
			a.dynIdx = append(a.dynIdx, i)
		}
	}
	a.stateCount = a.memStates
	for range a.dynIdx {
		a.stateCount *= a.armRadix
	}
	if n := a.stateCount * a.inputCount; n <= denseTableLimit {
		a.table = make([]trans, n)
		a.tableGen = make([]uint32, n)
	} else {
		a.sparse = make(map[int64]trans)
	}
	return a
}

// setPlacement rebinds the automaton to a placement of the fault cells and
// invalidates the transition memo.
func (a *automaton) setPlacement(placement []int) {
	a.placement = placement
	a.gen++
	if a.sparse != nil && len(a.sparse) > 0 {
		a.sparse = make(map[int64]trans)
	}
}

// input indices: 0 is the wait; operation k on address addr is
// 1 + addr*3 + k with k = 0 (w0), 1 (w1), 2 (read).
const (
	inWait   = 0
	inWrite0 = 0
	inWrite1 = 1
	inRead   = 2
)

func inputIndex(addr int, op fp.Op) int {
	switch op.Kind {
	case fp.OpWait:
		return inWait
	case fp.OpWrite:
		if op.Data == fp.V1 {
			return 1 + addr*3 + inWrite1
		}
		return 1 + addr*3 + inWrite0
	default: // fp.OpRead; the expected value is not part of the input:
		// trigger matching is on cell state, detection on the fault-free
		// machine's value.
		return 1 + addr*3 + inRead
	}
}

// run replays the full operation stream of the test under the given
// concrete element orders, starting from the given memory contents (placed
// cells initialized, bystanders zero), and reports whether any read
// detects the fault. The fault-free machine is simulated explicitly as a
// bit vector alongside the automaton walk.
//
// A nil fail stops the walk at the first detecting read, as a verdict
// needs; otherwise every detecting read goes to fail (element, operation
// index, address), the walk runs to the end and the result is false.
func (a *automaton) run(t march.Test, orders []march.AddrOrder, initWord uint32, fail func(elem, opIdx, addr int)) bool {
	state := a.settleInitial(int(initWord))
	good := initWord
	for ei, e := range t.Elems {
		// The concrete traversal: ⇑ ascending, ⇓ descending. Orders are
		// already resolved by expandOrders, so ⇕ cannot appear here.
		start, stop, step := 0, a.size, 1
		if orders[ei] == march.Down {
			start, stop, step = a.size-1, -1, -1
		}
		for addr := start; addr != stop; addr += step {
			for oi, op := range e.Ops {
				in := inputIndex(addr, op)
				tr := a.delta(state, in)
				state = tr.next
				switch op.Kind {
				case fp.OpWrite:
					if op.Data == fp.V1 {
						good |= 1 << addr
					} else {
						good &^= 1 << addr
					}
				case fp.OpRead:
					if tr.out != int8(good>>addr&1) {
						if fail == nil {
							// Detection anywhere suffices.
							return true
						}
						fail(ei, oi, addr)
					}
				}
			}
		}
	}
	return false
}

// settleInitial applies the state-triggered primitives to the power-up
// contents before the first operation (the paper's state faults hold from
// the moment the condition holds) and returns the initial automaton state,
// with every dynamic binding disarmed.
func (a *automaton) settleInitial(memWord int) int {
	a.decodeMem(memWord)
	for i := range a.armed {
		a.armed[i] = 0
	}
	a.settleStateFaults()
	return a.encode()
}

// delta returns the memoized transition for (state, input), computing it
// from the fault-primitive definitions on first use.
func (a *automaton) delta(state, in int) trans {
	if a.table != nil {
		idx := state*a.inputCount + in
		if a.tableGen[idx] == a.gen {
			return a.table[idx]
		}
		tr := a.compute(state, in)
		a.table[idx] = tr
		a.tableGen[idx] = a.gen
		return tr
	}
	key := int64(state)*int64(a.inputCount) + int64(in)
	if tr, ok := a.sparse[key]; ok {
		return tr
	}
	tr := a.compute(state, in)
	a.sparse[key] = tr
	return tr
}

// compute evaluates one Mealy transition: decode the state, apply the
// operation with its fault-primitive semantics, re-encode.
//
// The per-step semantics are the paper's (and, by construction, the
// contract internal/sim implements — the equivalence tests pin this):
//
//  1. wait sensitizes data-retention primitives on every matching cell,
//     breaks armed back-to-back sequences, and lets state faults settle;
//  2. any other operation first evaluates the operation triggers against
//     the pre-operation faulty state (dynamic primitives fire if armed on
//     this address by the immediately preceding operation, and (re-)arm if
//     the operation matches their first sensitizing operation), then
//  3. applies the base memory semantics,
//  4. applies the fault effects of the matched bindings in binding order
//     (FP1 before FP2, so linked masking plays out deterministically), a
//     read on a victim returning the primitive's R value when specified,
//  5. and finally lets state-triggered primitives settle to a fixpoint.
func (a *automaton) compute(state, in int) trans {
	a.decode(state)

	if in == inWait {
		for _, b := range a.f.FPs {
			p := b.FP
			if p.Trigger != fp.TrigOp || p.Op.Kind != fp.OpWait || p.IsDynamic() {
				continue
			}
			if p.OpRole != fp.RoleVictim {
				continue
			}
			aState, vState := a.bindingStates(b)
			if !matchInitStates(p, aState, vState) {
				continue
			}
			a.cells[a.placement[b.V]] = p.F
		}
		a.settleStateFaults()
		for i := range a.armed {
			a.armed[i] = 0 // a wait breaks back-to-back sequences
		}
		return trans{next: a.encode(), out: -1}
	}

	addr := (in - 1) / 3
	opk := (in - 1) % 3
	isRead := opk == inRead

	// 1. Operation triggers against the pre-operation faulty state.
	for i := range a.matched {
		a.matched[i] = false
		a.nextArmed[i] = 0
	}
	for i, b := range a.f.FPs {
		p := b.FP
		if p.Trigger != fp.TrigOp {
			continue
		}
		var role fp.Role
		switch {
		case a.placement[b.V] == addr:
			role = fp.RoleVictim
		case b.A >= 0 && a.placement[b.A] == addr:
			role = fp.RoleAggressor
		default:
			continue
		}
		aState, vState := a.bindingStates(b)
		if p.IsDynamic() {
			if a.armed[i] == 1+addr && matchOpShape(p.Op2, p.OpRole, role, opk) {
				a.matched[i] = true
			} else if matchOpShape(p.Op, p.OpRole, role, opk) && matchInitStates(p, aState, vState) {
				a.nextArmed[i] = 1 + addr
			}
			continue
		}
		if matchOpShape(p.Op, p.OpRole, role, opk) && matchInitStates(p, aState, vState) {
			a.matched[i] = true
		}
	}

	// 2. Base memory semantics of the faulty machine.
	out := int8(-1)
	switch opk {
	case inWrite0:
		a.cells[addr] = fp.V0
	case inWrite1:
		a.cells[addr] = fp.V1
	case inRead:
		out = int8(a.cells[addr].Bit())
	}

	// 3. Fault effects, in binding order.
	for i, b := range a.f.FPs {
		if !a.matched[i] {
			continue
		}
		a.cells[a.placement[b.V]] = b.FP.F
		if isRead && a.placement[b.V] == addr && b.FP.OpRole == fp.RoleVictim && b.FP.R.IsBinary() {
			out = int8(b.FP.R.Bit())
		}
	}

	// 4. State faults settle on the new contents.
	a.settleStateFaults()

	// Whatever this operation did not (re-)arm is disarmed: back-to-back
	// means consecutive in the operation stream.
	a.armed, a.nextArmed = a.nextArmed, a.armed

	return trans{next: a.encode(), out: out}
}

// settleStateFaults applies state-triggered primitives (SF, CFst) to the
// scratch cells until a fixpoint, bounded to len(FPs)+1 passes so mutually
// linked state conditions cannot oscillate forever.
func (a *automaton) settleStateFaults() {
	for iter := 0; iter <= len(a.f.FPs); iter++ {
		progress := false
		for _, b := range a.f.FPs {
			p := b.FP
			if p.Trigger != fp.TrigState {
				continue
			}
			aState, vState := a.bindingStates(b)
			if p.Cells == 2 && p.AInit.IsBinary() && aState != p.AInit {
				continue
			}
			if !p.VInit.IsBinary() || vState != p.VInit {
				continue
			}
			if a.cells[a.placement[b.V]] != p.F {
				a.cells[a.placement[b.V]] = p.F
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// bindingStates returns the faulty states of a binding's aggressor and
// victim cells (aggressor VX when the binding has none).
func (a *automaton) bindingStates(b linked.Binding) (aState, vState fp.Value) {
	aState = fp.VX
	if b.A >= 0 {
		aState = a.cells[a.placement[b.A]]
	}
	return aState, a.cells[a.placement[b.V]]
}

// matchOpShape reports whether an input operation of kind opk applied to a
// cell with the given role matches a primitive's sensitizing operation
// shape: same role, same kind, and for writes the same data. Reads match
// regardless of the primitive's recorded expected value — that value
// documents the fault-free cell content, it is not a trigger condition.
func matchOpShape(sens fp.Op, sensRole, role fp.Role, opk int) bool {
	if role != sensRole {
		return false
	}
	switch sens.Kind {
	case fp.OpWrite:
		return (opk == inWrite0 && sens.Data == fp.V0) || (opk == inWrite1 && sens.Data == fp.V1)
	case fp.OpRead:
		return opk == inRead
	default:
		return false
	}
}

// matchInitStates reports whether the pre-operation cell states satisfy a
// primitive's initial conditions (binary conditions constrain, VX does not).
func matchInitStates(p fp.FP, aState, vState fp.Value) bool {
	if p.Cells == 2 && p.AInit.IsBinary() && aState != p.AInit {
		return false
	}
	if p.VInit.IsBinary() && vState != p.VInit {
		return false
	}
	return true
}

// decode expands an automaton state into the scratch cells and armed
// buffers.
func (a *automaton) decode(state int) {
	a.decodeMem(state % a.memStates)
	code := state / a.memStates
	for i := range a.armed {
		a.armed[i] = 0
	}
	for _, i := range a.dynIdx {
		a.armed[i] = code % a.armRadix
		code /= a.armRadix
	}
}

func (a *automaton) decodeMem(memWord int) {
	for c := 0; c < a.size; c++ {
		a.cells[c] = fp.ValueOf(uint8(memWord >> c & 1))
	}
}

// encode packs the scratch cells and armed buffers into an automaton state.
func (a *automaton) encode() int {
	word := 0
	for c := 0; c < a.size; c++ {
		if a.cells[c] == fp.V1 {
			word |= 1 << c
		}
	}
	code := 0
	for j := len(a.dynIdx) - 1; j >= 0; j-- {
		code = code*a.armRadix + a.armed[a.dynIdx[j]]
	}
	return word + a.memStates*code
}
