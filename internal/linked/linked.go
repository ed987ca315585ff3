// Package linked models memory faults as bindings of fault primitives to
// abstract cells, covering both simple (un-linked) faults and the static
// linked faults that are the paper's subject (Section 3).
//
// A linked fault "FP1 → FP2" (Definition 6) is a pair of fault primitives
// where FP2 masks FP1: the fault effect of FP2 is the complement of FP1's
// (F2 = NOT F1) and FP2's sensitizing operation is applied after FP1's, on an
// f-cell of FP1. Detecting a linked fault requires detecting at least one of
// the two primitives in isolation.
//
// The taxonomy follows Hamdioui et al. (the paper's reference [10]):
//
//	LF1   single-cell linked faults (both FPs on the same cell)
//	LF2aa two-cell linked faults, both FPs coupling faults with the same
//	      aggressor and victim
//	LF2av two-cell linked faults, FP1 a coupling fault, FP2 a single-cell
//	      fault on the victim
//	LF2va two-cell linked faults, FP1 a single-cell fault on the victim,
//	      FP2 a coupling fault
//	LF3   three-cell linked faults, two coupling faults with distinct
//	      aggressors sharing the victim (Figure 1 of the paper)
package linked

import (
	"fmt"
	"strings"

	"marchgen/internal/fp"
)

// Kind classifies a fault by its structure.
type Kind uint8

// Fault kinds.
const (
	Simple Kind = iota // a single fault primitive, not linked
	LF1                // single-cell linked fault
	LF2aa              // two-cell, coupling → coupling, same aggressor
	LF2av              // two-cell, coupling → single-cell on the victim
	LF2va              // two-cell, single-cell on the victim → coupling
	LF3                // three-cell, two aggressors, shared victim
)

var kindNames = [...]string{"Simple", "LF1", "LF2aa", "LF2av", "LF2va", "LF3"}

// String returns the taxonomy name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsLinked reports whether the kind denotes a linked fault.
func (k Kind) IsLinked() bool { return k != Simple }

// Binding attaches a fault primitive to the abstract cells of a Fault. Cell
// indices are positions in the fault's cell set (0 .. Cells-1); the fault
// simulator maps them to concrete memory addresses when placing the fault.
type Binding struct {
	FP fp.FP
	// A is the index of the aggressor cell; -1 when the primitive has no
	// aggressor (single-cell primitives).
	A int
	// V is the index of the victim cell.
	V int
}

// Validate checks that the binding's cell indices are consistent with the
// primitive's shape and lie inside a fault with cells cells.
func (b Binding) Validate(cells int) error {
	if err := b.FP.Validate(); err != nil {
		return err
	}
	if b.V < 0 || b.V >= cells {
		return fmt.Errorf("linked: binding %v: victim index %d out of range [0,%d)", b.FP, b.V, cells)
	}
	if b.FP.Cells == 1 {
		if b.A != -1 {
			return fmt.Errorf("linked: binding %v: single-cell primitive cannot have an aggressor index", b.FP)
		}
		return nil
	}
	if b.A < 0 || b.A >= cells {
		return fmt.Errorf("linked: binding %v: aggressor index %d out of range [0,%d)", b.FP, b.A, cells)
	}
	if b.A == b.V {
		return fmt.Errorf("linked: binding %v: aggressor and victim must be distinct cells", b.FP)
	}
	return nil
}

// Fault is a functional fault: one fault primitive (Simple) or a linked pair
// (FP1 → FP2) bound to a common set of abstract cells. All bound primitives
// are simultaneously active; for linked faults the masking behavior emerges
// from simulating both.
type Fault struct {
	// Kind is the structural class.
	Kind Kind
	// Cells is the number of distinct cells involved (1, 2 or 3).
	Cells int
	// FPs holds the bound primitives in link order (FP1 first). A Simple
	// fault has exactly one entry; linked faults have exactly two.
	FPs []Binding
}

// FP1 returns the first (masked) primitive.
func (f Fault) FP1() Binding { return f.FPs[0] }

// FP2 returns the second (masking) primitive of a linked fault. It panics
// for simple faults.
func (f Fault) FP2() Binding {
	if len(f.FPs) < 2 {
		panic("linked: FP2 on a simple fault")
	}
	return f.FPs[1]
}

// ID returns a stable human-readable identifier, e.g.
// "LF3{CFds<0w1;0/1/->(a0,v2) -> CFds<0w1;1/0/->(a1,v2)}".
func (f Fault) ID() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	b.WriteByte('{')
	for i, fb := range f.FPs {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(fb.FP.ID())
		b.WriteByte('(')
		if fb.A >= 0 {
			fmt.Fprintf(&b, "a%d,", fb.A)
		}
		fmt.Fprintf(&b, "v%d", fb.V)
		b.WriteByte(')')
	}
	b.WriteByte('}')
	return b.String()
}

// String is the same as ID.
func (f Fault) String() string { return f.ID() }

// Validate checks the structural invariants of the fault, including the
// linking conditions of Definition 6 for linked kinds.
func (f Fault) Validate() error {
	if f.Cells < 1 || f.Cells > 3 {
		return fmt.Errorf("linked: %s: Cells must be 1..3", f.ID())
	}
	switch f.Kind {
	case Simple:
		if len(f.FPs) != 1 {
			return fmt.Errorf("linked: %s: simple fault must bind exactly one primitive", f.ID())
		}
	case LF1, LF2aa, LF2av, LF2va, LF3:
		if len(f.FPs) != 2 {
			return fmt.Errorf("linked: %s: linked fault must bind exactly two primitives", f.ID())
		}
	default:
		return fmt.Errorf("linked: %s: unknown kind", f.ID())
	}
	for _, b := range f.FPs {
		if err := b.Validate(f.Cells); err != nil {
			return err
		}
	}
	if f.Kind == Simple {
		return nil
	}
	f1, f2 := f.FP1(), f.FP2()
	if f1.V != f2.V {
		return fmt.Errorf("linked: %s: linked primitives must share the victim cell", f.ID())
	}
	if err := CheckLink(f1.FP, f2.FP, f.Kind); err != nil {
		return fmt.Errorf("linked: %s: %v", f.ID(), err)
	}
	// Kind-specific aggressor topology.
	switch f.Kind {
	case LF1:
		if f.Cells != 1 || f1.FP.Cells != 1 || f2.FP.Cells != 1 {
			return fmt.Errorf("linked: %s: LF1 must bind two single-cell primitives on one cell", f.ID())
		}
	case LF2aa:
		if f.Cells != 2 || f1.FP.Cells != 2 || f2.FP.Cells != 2 || f1.A != f2.A {
			return fmt.Errorf("linked: %s: LF2aa must bind two coupling primitives with a shared aggressor", f.ID())
		}
	case LF2av:
		if f.Cells != 2 || f1.FP.Cells != 2 || f2.FP.Cells != 1 {
			return fmt.Errorf("linked: %s: LF2av must link a coupling primitive to a single-cell primitive", f.ID())
		}
	case LF2va:
		if f.Cells != 2 || f1.FP.Cells != 1 || f2.FP.Cells != 2 {
			return fmt.Errorf("linked: %s: LF2va must link a single-cell primitive to a coupling primitive", f.ID())
		}
	case LF3:
		if f.Cells != 3 || f1.FP.Cells != 2 || f2.FP.Cells != 2 || f1.A == f2.A {
			return fmt.Errorf("linked: %s: LF3 must bind two coupling primitives with distinct aggressors", f.ID())
		}
	}
	return nil
}

// AggressorFinal returns the state of a primitive's aggressor cell after its
// sensitizing sequence: a write on the aggressor leaves the written value,
// anything else leaves the required initial state.
func AggressorFinal(f fp.FP) fp.Value {
	if f.Cells != 2 {
		return fp.VX
	}
	if f.Trigger == fp.TrigOp && f.OpRole == fp.RoleAggressor && f.Op.Kind == fp.OpWrite {
		return f.Op.Data
	}
	return f.AInit
}

// linkRule names the first linking condition a pair of primitives breaks,
// in the order CheckLink tests them; linkOK means the pair links.
type linkRule uint8

const (
	linkOK linkRule = iota
	linkFP1StateTriggered
	linkFP2StateTriggered
	linkFP1KeepsState
	linkFP1Misreads
	linkNotMasking
	linkVictimState
	linkAggressorState
)

// linkRuleOf evaluates the linking conditions once, without allocating.
func linkRuleOf(f1, f2 fp.FP, kind Kind) linkRule {
	switch {
	case f1.Trigger != fp.TrigOp:
		return linkFP1StateTriggered
	case f2.Trigger != fp.TrigOp:
		return linkFP2StateTriggered
	case !f1.ChangesState():
		return linkFP1KeepsState
	case f1.Misreads():
		return linkFP1Misreads
	case f2.F != f1.F.Not():
		return linkNotMasking
	case f2.VInit.IsBinary() && f2.VInit != f1.F:
		return linkVictimState
	}
	if kind == LF2aa && f2.AInit.IsBinary() {
		if af := AggressorFinal(f1); af.IsBinary() && f2.AInit != af {
			return linkAggressorState
		}
	}
	return linkOK
}

// Links reports whether f1 → f2 satisfies the linking conditions of
// CheckLink. It allocates nothing, so enumerators can reject the bulk of
// the pair space before building a Fault.
func Links(f1, f2 fp.FP, kind Kind) bool { return linkRuleOf(f1, f2, kind) == linkOK }

// CheckLink verifies the linking conditions of Definition 6 (and the state
// chaining of Definition 7) between two primitives destined to share a
// victim:
//
//  1. FP2 masks FP1: F2 = NOT F1.
//  2. FP2 is sensitized by a memory operation applied after S1 (FP2 must be
//     operation-triggered) on the faulty state left by FP1: FP2's required
//     victim state equals F1 (I2 = Fv1 on the victim).
//  3. FP1 is maskable: it corrupts stored data (ChangesState) and is not
//     already detected by its own sensitizing read (not Misreads).
//  4. For kinds where both primitives constrain the same aggressor cell
//     (LF2aa), FP2's required aggressor state must equal the state S1 leaves
//     in the aggressor (the full-state chaining I2 = Fv1 of Definition 7).
//
// The error names the first condition the pair breaks.
func CheckLink(f1, f2 fp.FP, kind Kind) error {
	switch linkRuleOf(f1, f2, kind) {
	case linkFP1StateTriggered:
		return fmt.Errorf("FP1 %v must be operation-triggered (state faults are excluded from the linked lists, see DESIGN.md)", f1)
	case linkFP2StateTriggered:
		return fmt.Errorf("FP2 %v must be operation-triggered", f2)
	case linkFP1KeepsState:
		return fmt.Errorf("FP1 %v does not corrupt stored data and cannot be masked", f1)
	case linkFP1Misreads:
		return fmt.Errorf("FP1 %v is detected by its own sensitizing read and cannot be masked", f1)
	case linkNotMasking:
		return fmt.Errorf("FP2 %v does not mask FP1 %v: F2 must be the complement of F1", f2, f1)
	case linkVictimState:
		return fmt.Errorf("FP2 %v cannot follow FP1 %v: required victim state %s differs from the faulty state %s left by FP1 (I2 = Fv1)",
			f2, f1, f2.VInit, f1.F)
	case linkAggressorState:
		return fmt.Errorf("FP2 %v cannot follow FP1 %v on the same aggressor: required aggressor state %s differs from the state %s left by S1",
			f2, f1, f2.AInit, AggressorFinal(f1))
	}
	return nil
}

// TrulyMasks reports whether applying S2 immediately after S1 leaves the
// faulty machine indistinguishable from the fault-free one (the victim holds
// the fault-free value and S2's read, if any, returns the fault-free value).
// Pairs for which this is false still satisfy Definition 6 but are detected
// at or after S2 without needing an isolating observation; Hamdioui et al.
// call only the truly masking pairs "realistic".
func TrulyMasks(f1, f2 fp.FP) bool {
	if !Links(f1, f2, Simple) { // Simple: skip kind-specific aggressor check
		return false
	}
	goodV := f1.GoodVictimFinal() // fault-free victim value after S1
	if !goodV.IsBinary() {
		return false
	}
	if f2.OpRole == fp.RoleVictim {
		switch f2.Op.Kind {
		case fp.OpWrite:
			// The fault-free machine also executes the write.
			return f2.F == f2.Op.Data
		case fp.OpRead:
			// Fault-free read returns goodV; FP2 returns R2 and stores F2.
			return f2.F == goodV && f2.R == goodV
		case fp.OpWait:
			return f2.F == goodV
		}
		return false
	}
	// S2 on the aggressor: the fault-free victim is untouched.
	return f2.F == goodV
}

// NewSimple wraps a single fault primitive as a fault. Single-cell
// primitives occupy one abstract cell; coupling primitives occupy two, with
// the aggressor at index 0 and the victim at index 1.
func NewSimple(f fp.FP) (Fault, error) {
	var ft Fault
	switch f.Cells {
	case 1:
		ft = Fault{Kind: Simple, Cells: 1, FPs: []Binding{{FP: f, A: -1, V: 0}}}
	case 2:
		ft = Fault{Kind: Simple, Cells: 2, FPs: []Binding{{FP: f, A: 0, V: 1}}}
	default:
		return Fault{}, fmt.Errorf("linked: unsupported cell count %d", f.Cells)
	}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}

// NewLF1 links two single-cell primitives on one cell.
func NewLF1(f1, f2 fp.FP) (Fault, error) {
	ft := Fault{Kind: LF1, Cells: 1, FPs: []Binding{
		{FP: f1, A: -1, V: 0},
		{FP: f2, A: -1, V: 0},
	}}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}

// NewLF2aa links two coupling primitives sharing the aggressor (cell 0) and
// the victim (cell 1).
func NewLF2aa(f1, f2 fp.FP) (Fault, error) {
	ft := Fault{Kind: LF2aa, Cells: 2, FPs: []Binding{
		{FP: f1, A: 0, V: 1},
		{FP: f2, A: 0, V: 1},
	}}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}

// NewLF2av links a coupling primitive (aggressor cell 0, victim cell 1) to a
// single-cell primitive on the victim.
func NewLF2av(f1, f2 fp.FP) (Fault, error) {
	ft := Fault{Kind: LF2av, Cells: 2, FPs: []Binding{
		{FP: f1, A: 0, V: 1},
		{FP: f2, A: -1, V: 1},
	}}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}

// NewLF2va links a single-cell primitive on the victim (cell 1) to a
// coupling primitive with aggressor cell 0.
func NewLF2va(f1, f2 fp.FP) (Fault, error) {
	ft := Fault{Kind: LF2va, Cells: 2, FPs: []Binding{
		{FP: f1, A: -1, V: 1},
		{FP: f2, A: 0, V: 1},
	}}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}

// NewLF3 links two coupling primitives with distinct aggressors (cells 0 and
// 1) sharing the victim (cell 2), the configuration of Figure 1 of the
// paper.
func NewLF3(f1, f2 fp.FP) (Fault, error) {
	ft := Fault{Kind: LF3, Cells: 3, FPs: []Binding{
		{FP: f1, A: 0, V: 2},
		{FP: f2, A: 1, V: 2},
	}}
	if err := ft.Validate(); err != nil {
		return Fault{}, err
	}
	return ft, nil
}
