package fp

import (
	"fmt"
)

// Role identifies which faulty cell (f-cell) of a fault primitive an
// operation or condition applies to. Following Section 2 of the paper,
// aggressor cells (a-cells) sensitize a fault while victim cells (v-cells)
// show its effect. A single-cell fault primitive has only a victim.
type Role uint8

// Cell roles.
const (
	RoleNone Role = iota // no cell (pure state condition)
	RoleAggressor
	RoleVictim
)

// String returns a short role name.
func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleAggressor:
		return "aggressor"
	case RoleVictim:
		return "victim"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// Class is the Functional Fault Model (FFM) a fault primitive belongs to,
// using the standard taxonomy of van de Goor and Al-Ars.
type Class uint8

// Functional fault model classes. The first block is single-cell, the second
// block is two-cell (coupling) faults.
const (
	ClassUnknown Class = iota

	SF   // State Fault:                    <x / x̄ / ->
	TF   // Transition Fault:               <x w x̄ / x / ->
	WDF  // Write Destructive Fault:        <x w x / x̄ / ->
	RDF  // Read Destructive Fault:         <x r x / x̄ / x̄>
	DRDF // Deceptive Read Destructive:     <x r x / x̄ / x>
	IRF  // Incorrect Read Fault:           <x r x / x / x̄>
	DRF  // Data Retention Fault:           <x t / x̄ / ->

	CFst // State Coupling Fault:           <y ; x / x̄ / ->
	CFds // Disturb Coupling Fault:         <x op ; y / ȳ / ->
	CFtr // Transition Coupling Fault:      <y ; x w x̄ / x / ->
	CFwd // Write Destructive Coupling:     <y ; x w x / x̄ / ->
	CFrd // Read Destructive Coupling:      <y ; x r x / x̄ / x̄>
	CFdr // Deceptive Read Destructive CF:  <y ; x r x / x̄ / x>
	CFir // Incorrect Read Coupling Fault:  <y ; x r x / x / x̄>

	// Dynamic fault models (m = 2: two-operation sensitization, the
	// extension of the group's companion paper "Automatic March Tests
	// Generation for Static and Dynamic Faults in SRAMs", ETS 2005).
	DyRDF  // Dynamic Read Destructive:            <x op ry / ȳ / ȳ>
	DyDRDF // Dynamic Deceptive Read Destructive:  <x op ry / ȳ / y>
	DyIRF  // Dynamic Incorrect Read:              <x op ry / y / ȳ>
	DyCFds // Dynamic Disturb Coupling (2-op aggressor sequence)
	DyCFrd // Dynamic Read Destructive Coupling
	DyCFdr // Dynamic Deceptive Read Destructive Coupling
	DyCFir // Dynamic Incorrect Read Coupling
)

var classNames = map[Class]string{
	ClassUnknown: "?",
	SF:           "SF",
	TF:           "TF",
	WDF:          "WDF",
	RDF:          "RDF",
	DRDF:         "DRDF",
	IRF:          "IRF",
	DRF:          "DRF",
	CFst:         "CFst",
	CFds:         "CFds",
	CFtr:         "CFtr",
	CFwd:         "CFwd",
	CFrd:         "CFrd",
	CFdr:         "CFdr",
	CFir:         "CFir",
	DyRDF:        "dRDF",
	DyDRDF:       "dDRDF",
	DyIRF:        "dIRF",
	DyCFds:       "dCFds",
	DyCFrd:       "dCFrd",
	DyCFdr:       "dCFdr",
	DyCFir:       "dCFir",
}

// String returns the conventional FFM abbreviation ("TF", "CFds", ...).
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// ParseClass parses a conventional FFM abbreviation.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s && c != ClassUnknown {
			return c, nil
		}
	}
	return ClassUnknown, fmt.Errorf("fp: unknown fault class %q", s)
}

// IsCoupling reports whether the class involves two cells.
func (c Class) IsCoupling() bool {
	switch c {
	case CFst, CFds, CFtr, CFwd, CFrd, CFdr, CFir, DyCFds, DyCFrd, DyCFdr, DyCFir:
		return true
	}
	return false
}

// IsDynamicClass reports whether the class needs a two-operation
// sensitization.
func (c Class) IsDynamicClass() bool {
	switch c {
	case DyRDF, DyDRDF, DyIRF, DyCFds, DyCFrd, DyCFdr, DyCFir:
		return true
	}
	return false
}

// Trigger discriminates how a fault primitive is sensitized.
type Trigger uint8

// Trigger kinds.
const (
	// TrigState marks fault primitives sensitized by the state of the
	// involved cells alone (SF, CFst): the victim cannot hold a value while
	// the condition is satisfied.
	TrigState Trigger = iota
	// TrigOp marks fault primitives sensitized by exactly one memory
	// operation (all other static FFMs).
	TrigOp
)

// FP is a static Fault Primitive <S / F / R> (Definition 3 of the paper)
// involving at most two cells. S is encoded as the required pre-operation
// states of the aggressor and victim cells (AInit, VInit) plus, for
// operation-triggered primitives, the single sensitizing operation Op applied
// to the cell identified by OpRole. F is the value the victim holds after
// sensitization and R the value returned by the sensitizing read operation
// (VX when S contains no read on the victim, rendered '-').
//
// FP is a comparable value type; two FPs are the same fault iff they are ==.
type FP struct {
	// Class is the functional fault model the primitive belongs to. It is
	// descriptive only; the behavioral content is in the remaining fields.
	Class Class

	// Cells is the number of distinct cells involved: 1 (victim only) or
	// 2 (aggressor and victim).
	Cells int

	// AInit is the state the aggressor cell must hold for the fault to be
	// sensitized. VX when Cells == 1 or when the aggressor state is
	// unconstrained.
	AInit Value

	// VInit is the state the victim cell must hold for the fault to be
	// sensitized; VX if unconstrained.
	VInit Value

	// Trigger tells whether the primitive is sensitized by cell state alone
	// (TrigState) or by a single memory operation (TrigOp).
	Trigger Trigger

	// OpRole identifies the cell the sensitizing operation is applied to
	// (RoleVictim for single-cell faults and victim-operation coupling
	// faults, RoleAggressor for disturb-style coupling faults). RoleNone for
	// state-triggered primitives.
	OpRole Role

	// Op is the sensitizing operation. The zero Op for state-triggered
	// primitives. For read operations the Data field records the value the
	// addressed cell holds when the fault is sensitized (equal to VInit or
	// AInit); trigger matching is on the cell state, not on this field.
	Op Op

	// Op2 is the second sensitizing operation of a dynamic (m = 2) fault
	// primitive, applied back-to-back on the same cell as Op. The zero Op
	// for static primitives. Its Data field for reads records the value
	// the cell holds after Op.
	Op2 Op

	// F is the faulty value stored in the victim after sensitization.
	F Value

	// R is the value returned by the last sensitizing read when that read
	// addresses the victim; VX ('-') otherwise.
	R Value
}

// IsDynamic reports whether the primitive needs two sensitizing operations
// (the m = 2 classification of Section 2).
func (f FP) IsDynamic() bool { return !f.Op2.IsZero() }

// lastOp returns the final sensitizing operation (Op2 for dynamic
// primitives).
func (f FP) lastOp() Op {
	if f.IsDynamic() {
		return f.Op2
	}
	return f.Op
}

// Validate checks that the primitive is well-formed: a static primitive has
// at most one sensitizing operation (m = 1, Section 2), a dynamic one has
// exactly two applied to the same cell.
func (f FP) Validate() error {
	if f.Cells != 1 && f.Cells != 2 {
		return fmt.Errorf("fp: %v: Cells must be 1 or 2, got %d", f, f.Cells)
	}
	if !f.F.IsBinary() {
		return fmt.Errorf("fp: %v: fault value F must be binary", f)
	}
	if f.Cells == 1 && f.AInit != VX {
		return fmt.Errorf("fp: %v: single-cell primitive cannot constrain an aggressor state", f)
	}
	switch f.Trigger {
	case TrigState:
		if !f.Op.IsZero() || !f.Op2.IsZero() || f.OpRole != RoleNone {
			return fmt.Errorf("fp: %v: state-triggered primitive cannot carry an operation", f)
		}
		if !f.VInit.IsBinary() {
			return fmt.Errorf("fp: %v: state fault needs a binary victim state", f)
		}
		if f.R != VX {
			return fmt.Errorf("fp: %v: state-triggered primitive cannot specify a read result", f)
		}
		if f.F == f.VInit {
			return fmt.Errorf("fp: %v: state fault must flip the victim", f)
		}
	case TrigOp:
		if f.Op.IsZero() {
			return fmt.Errorf("fp: %v: operation-triggered primitive needs an operation", f)
		}
		switch f.OpRole {
		case RoleVictim:
		case RoleAggressor:
			if f.Cells != 2 {
				return fmt.Errorf("fp: %v: aggressor operation needs two cells", f)
			}
		default:
			return fmt.Errorf("fp: %v: operation-triggered primitive needs an operation role", f)
		}
		if f.IsDynamic() {
			if f.Op.Kind == OpWait || f.Op2.Kind == OpWait {
				return fmt.Errorf("fp: %v: dynamic primitives cannot contain wait operations", f)
			}
			if f.Op2.Kind == OpWrite && !f.Op2.Data.IsBinary() {
				return fmt.Errorf("fp: %v: second write needs a binary value", f)
			}
		}
		last := f.lastOp()
		if f.R != VX && !(last.Kind == OpRead && f.OpRole == RoleVictim) {
			return fmt.Errorf("fp: %v: read result R requires a final sensitizing read on the victim", f)
		}
		if last.Kind == OpRead && f.OpRole == RoleVictim && f.R == VX {
			return fmt.Errorf("fp: %v: final sensitizing read on the victim must specify the read result R", f)
		}
	default:
		return fmt.Errorf("fp: %v: unknown trigger %d", f, f.Trigger)
	}
	return nil
}

// GoodVictimFinal returns the value the victim holds after the sensitizing
// sequence on a fault-free memory (the Gv component of Definition 4),
// assuming the victim starts at VInit. VX if the result is unconstrained
// (victim state unconstrained and untouched).
func (f FP) GoodVictimFinal() Value {
	v := f.VInit
	if f.Trigger == TrigOp && f.OpRole == RoleVictim {
		if f.Op.Kind == OpWrite {
			v = f.Op.Data
		}
		if f.Op2.Kind == OpWrite {
			v = f.Op2.Data
		}
	}
	return v
}

// ChangesState reports whether sensitizing the fault leaves the victim in a
// state different from the fault-free one (i.e. the fault corrupts stored
// data, as opposed to only returning a wrong read value like IRF).
func (f FP) ChangesState() bool {
	g := f.GoodVictimFinal()
	return g.IsBinary() && g != f.F
}

// Misreads reports whether the final sensitizing operation is a read on the
// victim that returns a value different from the fault-free read.
func (f FP) Misreads() bool {
	if f.Trigger != TrigOp || f.OpRole != RoleVictim || f.lastOp().Kind != OpRead {
		return false
	}
	// The fault-free final read returns the fault-free pre-read value: the
	// initial state for static primitives, or the value left by Op for
	// dynamic ones.
	goodRead := f.VInit
	if f.IsDynamic() && f.Op.Kind == OpWrite {
		goodRead = f.Op.Data
	}
	return f.R.IsBinary() && goodRead.IsBinary() && f.R != goodRead
}

// MatchesOp reports whether applying operation op to the cell with role
// opRole sensitizes the primitive, given the current (faulty-machine) states
// of the aggressor and victim cells. For single-cell primitives aState is
// ignored. Read operations match on the cell state: the Data field of op
// (the march test's expected value, which refers to the fault-free machine)
// is deliberately not compared.
func (f FP) MatchesOp(op Op, opRole Role, aState, vState Value) bool {
	if f.Trigger != TrigOp || f.IsDynamic() {
		return false
	}
	if opRole != f.OpRole {
		return false
	}
	if op.Kind != f.Op.Kind {
		return false
	}
	if op.Kind == OpWrite && op.Data != f.Op.Data {
		return false
	}
	if f.Cells == 2 && f.AInit.IsBinary() && aState != f.AInit {
		return false
	}
	if f.VInit.IsBinary() && vState != f.VInit {
		return false
	}
	return true
}

// MatchesState reports whether the current cell states sensitize a
// state-triggered primitive (SF, CFst).
func (f FP) MatchesState(aState, vState Value) bool {
	if f.Trigger != TrigState {
		return false
	}
	if f.Cells == 2 && f.AInit.IsBinary() && aState != f.AInit {
		return false
	}
	return f.VInit.IsBinary() && vState == f.VInit
}

// ID returns a stable, human-readable identifier combining the FFM class and
// the FP notation, e.g. "TF<0w1/0/->".
func (f FP) ID() string {
	return f.Class.String() + f.String()
}
