package mport

import (
	"fmt"

	"marchgen/internal/fp"
)

// Class enumerates the weak two-port fault models. All of them are
// invisible to single-port accesses: each component disturbance is too weak
// to flip a cell on its own and only the superposition of two simultaneous
// accesses manifests the fault.
type Class uint8

// Two-port fault classes.
const (
	// W2RDF: a simultaneous double read of one cell flips it and both
	// ports return the flipped value.
	W2RDF Class = iota
	// W2DRDF: the deceptive variant — the cell flips but both ports return
	// the expected value.
	W2DRDF
	// W2IRF: both ports return the wrong value without flipping the cell.
	W2IRF
	// WCC: weak coupled concurrent fault — two weak disturb components on
	// two physically adjacent aggressor cells fire in the same cycle and
	// together flip a third victim cell.
	WCC
)

var classNames = [...]string{"W2RDF", "W2DRDF", "W2IRF", "WCC"}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// WeakCond is one component of a WCC fault: an operation on an aggressor
// cell holding a required state, too weak to disturb the victim alone.
type WeakCond struct {
	// Init is the required aggressor state before the operation.
	Init fp.Value
	// Op is the sensitizing operation (a write with its value, or a read).
	Op fp.Op
}

// String renders "0w1" or "1r".
func (w WeakCond) String() string {
	op := w.Op
	if op.Kind == fp.OpRead {
		return w.Init.String() + "r"
	}
	return w.Init.String() + op.String()
}

// matches reports whether applying op to a cell holding state satisfies the
// condition.
func (w WeakCond) matches(op fp.Op, state fp.Value) bool {
	if state != w.Init {
		return false
	}
	if op.Kind != w.Op.Kind {
		return false
	}
	if op.Kind == fp.OpWrite && op.Data != w.Op.Data {
		return false
	}
	return true
}

// Fault is a two-port fault instance template. W2* faults involve one cell;
// WCC faults involve two adjacent aggressors (a and a+1) plus a distinct
// victim.
type Fault struct {
	Class Class
	// State is the sensitized cell state for W2* faults, or the victim's
	// required state for WCC.
	State fp.Value
	// R is the value both ports return on the sensitizing double read
	// (W2* only).
	R fp.Value
	// C1 and C2 are the weak conditions on the lower and upper adjacent
	// aggressor (WCC only).
	C1, C2 WeakCond
}

// F returns the faulty value the sensitized cell flips to (W2IRF keeps the
// stored value).
func (f Fault) F() fp.Value {
	if f.Class == W2IRF {
		return f.State
	}
	return f.State.Not()
}

// ID returns a stable identifier, e.g. "W2RDF<0rr/1/1>" or
// "WCC{0w1&1w0;0/1}".
func (f Fault) ID() string {
	if f.Class == WCC {
		return fmt.Sprintf("WCC{%s&%s;%s/%s}", f.C1, f.C2, f.State, f.State.Not())
	}
	return fmt.Sprintf("%s<%srr/%s/%s>", f.Class, f.State, f.F(), f.R)
}

// Validate checks the fault template.
func (f Fault) Validate() error {
	switch f.Class {
	case W2RDF, W2DRDF, W2IRF:
		if !f.State.IsBinary() {
			return fmt.Errorf("mport: %s: sensitized state must be binary", f.ID())
		}
		if !f.R.IsBinary() {
			return fmt.Errorf("mport: %s: read result must be binary", f.ID())
		}
		want := map[Class]fp.Value{W2RDF: f.State.Not(), W2DRDF: f.State, W2IRF: f.State.Not()}[f.Class]
		if f.R != want {
			return fmt.Errorf("mport: %s: read result %s inconsistent with class", f.ID(), f.R)
		}
	case WCC:
		if !f.State.IsBinary() {
			return fmt.Errorf("mport: %s: victim state must be binary", f.ID())
		}
		for _, c := range []WeakCond{f.C1, f.C2} {
			if !c.Init.IsBinary() {
				return fmt.Errorf("mport: %s: weak condition needs a binary state", f.ID())
			}
			switch c.Op.Kind {
			case fp.OpWrite:
				if !c.Op.Data.IsBinary() {
					return fmt.Errorf("mport: %s: weak write needs a value", f.ID())
				}
			case fp.OpRead:
			default:
				return fmt.Errorf("mport: %s: weak condition needs a read or write", f.ID())
			}
		}
	default:
		return fmt.Errorf("mport: unknown class %d", f.Class)
	}
	return nil
}

// Catalog enumerates the two-port fault models: 6 same-cell double-read
// faults and 32 weak coupled concurrent faults (4 weak conditions per
// adjacent aggressor × 2 victim states).
func Catalog() []Fault {
	var out []Fault
	for _, s := range []fp.Value{fp.V0, fp.V1} {
		out = append(out,
			Fault{Class: W2RDF, State: s, R: s.Not()},
			Fault{Class: W2DRDF, State: s, R: s},
			Fault{Class: W2IRF, State: s, R: s.Not()},
		)
	}
	conds := []WeakCond{
		{Init: fp.V0, Op: fp.W1},
		{Init: fp.V1, Op: fp.W0},
		{Init: fp.V0, Op: fp.RX},
		{Init: fp.V1, Op: fp.RX},
	}
	for _, c1 := range conds {
		for _, c2 := range conds {
			for _, v := range []fp.Value{fp.V0, fp.V1} {
				out = append(out, Fault{Class: WCC, State: v, C1: c1, C2: c2})
			}
		}
	}
	return out
}
