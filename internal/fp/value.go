// Package fp implements the Fault Primitive (FP) notation of van de Goor and
// Al-Ars ("Functional Memory Faults: A Formal Notation and a Taxonomy", VTS
// 2000), as adopted by Benso et al. (DATE 2006, Definitions 1-3) to describe
// the faulty behaviors an SRAM march test must detect.
//
// The package provides:
//
//   - the memory value alphabet C = {0, 1, -} (Definition 1),
//   - the memory operation alphabet X = {w0, w1, r, t} (Definition 2),
//   - the fault primitive <S / F / R> (Definition 3) for static faults
//     involving one or two cells,
//   - a parser and printer for the textual FP notation, and
//   - the catalog of standard static functional fault models (SF, TF, WDF,
//     RDF, DRDF, IRF, DRF, CFst, CFds, CFtr, CFwd, CFrd, CFdr, CFir).
package fp

import (
	"fmt"
	"strings"
)

// Value is an element of the memory state alphabet C = {0, 1, -}
// (Definition 1 of the paper). X denotes the don't-care value '-'.
type Value uint8

// Memory values.
const (
	V0 Value = iota // logic 0
	V1              // logic 1
	VX              // don't care / unspecified ('-')
)

// String returns the single-character notation used by the paper: "0", "1"
// or "-".
func (v Value) String() string {
	switch v {
	case V0:
		return "0"
	case V1:
		return "1"
	case VX:
		return "-"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v))
	}
}

// Not returns the complement of a binary value. The complement of the
// don't-care value is the don't-care value.
func (v Value) Not() Value {
	switch v {
	case V0:
		return V1
	case V1:
		return V0
	default:
		return VX
	}
}

// IsBinary reports whether v is a concrete logic value (0 or 1).
func (v Value) IsBinary() bool { return v == V0 || v == V1 }

// Bit returns the value as 0 or 1. It panics if v is not binary; callers must
// check IsBinary first when the value may be unspecified.
func (v Value) Bit() uint8 {
	switch v {
	case V0:
		return 0
	case V1:
		return 1
	}
	panic("fp: Bit called on non-binary value " + v.String())
}

// ValueOf converts a bit (0 or 1) to a Value.
func ValueOf(bit uint8) Value {
	if bit == 0 {
		return V0
	}
	return V1
}

// ParseValue parses "0", "1" or "-" into a Value.
func ParseValue(s string) (Value, error) {
	switch s {
	case "0":
		return V0, nil
	case "1":
		return V1, nil
	case "-":
		return VX, nil
	}
	return VX, fmt.Errorf("fp: invalid memory value %q (want 0, 1 or -)", s)
}

// OpKind discriminates the members of the operation alphabet X
// (Definition 2 of the paper).
type OpKind uint8

// Operation kinds.
const (
	OpNone  OpKind = iota // absence of an operation (pure state condition)
	OpWrite               // wd: write the value d
	OpRead                // rd: read, optionally with an expected value d
	OpWait                // t: wait for a defined period (data retention)
)

// String returns a human-readable kind name.
func (k OpKind) String() string {
	switch k {
	case OpNone:
		return "none"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpWait:
		return "wait"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is a memory operation, an element of the alphabet
// X = {w0, w1, r0, r1, r, t} (Definition 2). For a write, Data is the value
// written. For a read, Data is the value the fault-free memory is expected to
// return; it may be VX when the expectation is unspecified. For a wait, Data
// is ignored.
type Op struct {
	Kind OpKind
	Data Value
}

// Convenience constructors for the operation alphabet.
var (
	W0   = Op{Kind: OpWrite, Data: V0} // write 0
	W1   = Op{Kind: OpWrite, Data: V1} // write 1
	R0   = Op{Kind: OpRead, Data: V0}  // read, expect 0
	R1   = Op{Kind: OpRead, Data: V1}  // read, expect 1
	RX   = Op{Kind: OpRead, Data: VX}  // read, no expectation
	Wait = Op{Kind: OpWait, Data: VX}  // wait (data retention)
)

// W returns a write operation of value v.
func W(v Value) Op { return Op{Kind: OpWrite, Data: v} }

// R returns a read operation expecting value v.
func R(v Value) Op { return Op{Kind: OpRead, Data: v} }

// IsZero reports whether the operation is the zero Op (no operation).
func (o Op) IsZero() bool { return o.Kind == OpNone }

// String renders the operation in the paper's notation: "w0", "w1", "r0",
// "r1", "r" (read without expectation) or "t".
func (o Op) String() string {
	var buf [8]byte
	return string(o.appendTo(buf[:0]))
}

// appendTo appends the notation String renders to b.
func (o Op) appendTo(b []byte) []byte {
	switch o.Kind {
	case OpNone:
		return b
	case OpWrite:
		return append(append(b, 'w'), o.Data.String()...)
	case OpRead:
		b = append(b, 'r')
		if o.Data == VX {
			return b
		}
		return append(b, o.Data.String()...)
	case OpWait:
		return append(b, 't')
	default:
		return fmt.Appendf(b, "Op(%d,%s)", uint8(o.Kind), o.Data)
	}
}

// ParseOp parses an operation in the paper's notation ("w0", "w1", "r0",
// "r1", "r", "t").
func ParseOp(s string) (Op, error) {
	switch {
	case s == "t":
		return Wait, nil
	case s == "r":
		return RX, nil
	case len(s) == 2 && (s[0] == 'w' || s[0] == 'r'):
		v, err := ParseValue(s[1:])
		if err != nil {
			return Op{}, fmt.Errorf("fp: invalid operation %q: %v", s, err)
		}
		if s[0] == 'w' {
			if !v.IsBinary() {
				return Op{}, fmt.Errorf("fp: invalid operation %q: write needs a binary value", s)
			}
			return W(v), nil
		}
		return R(v), nil
	}
	return Op{}, fmt.Errorf("fp: invalid operation %q (want w0, w1, r0, r1, r or t)", s)
}

// ParseOps parses a comma-separated list of operations, e.g. "r0,w1,r1".
func ParseOps(s string) ([]Op, error) {
	parts := strings.Split(s, ",")
	ops := make([]Op, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		op, err := ParseOp(p)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("fp: empty operation list %q", s)
	}
	return ops, nil
}

// FormatOps renders a list of operations separated by commas.
func FormatOps(ops []Op) string {
	var b strings.Builder
	for i, op := range ops {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(op.String())
	}
	return b.String()
}
