package mport

import (
	"errors"
	"fmt"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// Element is a two-port march element: a sequence of operation pairs
// applied to every cell (port A marches; port B follows its target rule).
type Element struct {
	Order march.AddrOrder
	Ops   []PairOp
}

// String renders "⇑(r0:r0,w1:-)".
func (e Element) String() string {
	parts := make([]string, len(e.Ops))
	for i, op := range e.Ops {
		parts[i] = op.String()
	}
	return e.Order.String() + "(" + strings.Join(parts, ",") + ")"
}

// ASCII renders the element with ASCII order markers.
func (e Element) ASCII() string {
	parts := make([]string, len(e.Ops))
	for i, op := range e.Ops {
		parts[i] = op.String()
	}
	return e.Order.ASCII() + "(" + strings.Join(parts, ",") + ")"
}

// Test is a two-port march test.
type Test struct {
	Name  string
	Elems []Element
}

// Length returns the number of cycles per cell (each pair is one cycle).
func (t Test) Length() int {
	total := 0
	for _, e := range t.Elems {
		total += len(e.Ops)
	}
	return total
}

// Complexity renders "12n" style complexity.
func (t Test) Complexity() string { return fmt.Sprintf("%dn", t.Length()) }

// String renders the full test.
func (t Test) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, " ")
}

// ASCII renders the full test with ASCII markers.
func (t Test) ASCII() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.ASCII()
	}
	return strings.Join(parts, " ")
}

// Validate checks structural well-formedness of every element and pair.
func (t Test) Validate() error {
	if len(t.Elems) == 0 {
		return fmt.Errorf("mport: test %q has no elements", t.Name)
	}
	for i, e := range t.Elems {
		if len(e.Ops) == 0 {
			return fmt.Errorf("mport: test %q element %d is empty", t.Name, i)
		}
		for _, op := range e.Ops {
			if err := op.Validate(); err != nil {
				return fmt.Errorf("mport: test %q element %d: %v", t.Name, i, err)
			}
		}
	}
	return nil
}

// Clone deep-copies the test.
func (t Test) Clone() Test {
	out := t
	out.Elems = make([]Element, len(t.Elems))
	for i, e := range t.Elems {
		out.Elems[i] = Element{Order: e.Order, Ops: append([]PairOp(nil), e.Ops...)}
	}
	return out
}

// Equal reports whether two tests have the same element sequence.
func (t Test) Equal(u Test) bool {
	if len(t.Elems) != len(u.Elems) {
		return false
	}
	for i := range t.Elems {
		a, b := t.Elems[i], u.Elems[i]
		if a.Order != b.Order || len(a.Ops) != len(b.Ops) {
			return false
		}
		for j := range a.Ops {
			if a.Ops[j] != b.Ops[j] {
				return false
			}
		}
	}
	return true
}

// Parse parses the two-port notation, e.g.
// "c(w0:-) ^(r0:r0) ^(r0:r0,w1:-,r1:r1)".
func Parse(name, s string) (Test, error) {
	t := Test{Name: name}
	rest := strings.TrimSpace(s)
	for rest != "" {
		open := strings.IndexByte(rest, '(')
		if open < 0 {
			return Test{}, fmt.Errorf("mport: %q: element %q has no operation list", name, rest)
		}
		marker := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest[:open]), ";"))
		order, err := parseOrder(marker)
		if err != nil {
			return Test{}, fmt.Errorf("mport: %q: %v", name, err)
		}
		closeIdx := strings.IndexByte(rest[open:], ')')
		if closeIdx < 0 {
			return Test{}, fmt.Errorf("mport: %q: unterminated operation list", name)
		}
		closeIdx += open
		var ops []PairOp
		for _, tok := range strings.Split(rest[open+1:closeIdx], ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			op, err := ParsePairOp(tok)
			if err != nil {
				return Test{}, fmt.Errorf("mport: %q: %v", name, err)
			}
			ops = append(ops, op)
		}
		t.Elems = append(t.Elems, Element{Order: order, Ops: ops})
		rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest[closeIdx+1:]), ";"))
	}
	if err := t.Validate(); err != nil {
		return Test{}, err
	}
	return t, nil
}

func parseOrder(marker string) (march.AddrOrder, error) {
	switch strings.ToLower(marker) {
	case "⇕", "c", "b", "any":
		return march.Any, nil
	case "⇑", "^", "u", "up":
		return march.Up, nil
	case "⇓", "v", "d", "down":
		return march.Down, nil
	}
	return march.Any, fmt.Errorf("invalid address-order marker %q", marker)
}

// MustParse is like Parse but panics on error.
func MustParse(name, s string) Test {
	t, err := Parse(name, s)
	if err != nil {
		panic(err)
	}
	return t
}

// ErrWaitOp is the refusal Lift wraps for a test with a wait operation.
var ErrWaitOp = errors.New("wait operations are not modeled on two-port timing")

// Lift converts a single-port march test into a two-port test with port B
// idle — used to show that single-port tests miss the weak two-port faults.
// A test with a wait operation has no two-port form: the error wraps
// ErrWaitOp.
func Lift(t march.Test) (Test, error) {
	out := Test{Name: t.Name}
	for _, e := range t.Elems {
		var ops []PairOp
		for _, op := range e.Ops {
			if op.Kind == fp.OpWait {
				return Test{}, fmt.Errorf("mport: cannot lift %q: %w", t.Name, ErrWaitOp)
			}
			ops = append(ops, PairOp{A: op, BTarget: None})
		}
		out.Elems = append(out.Elems, Element{Order: e.Order, Ops: ops})
	}
	return out, out.Validate()
}
