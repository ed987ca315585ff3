package fp

import (
	"fmt"
	"strings"
)

// String renders the primitive in the paper's <S/F/R> notation, e.g.
// "<0w1/0/->" for a transition fault or "<1;0w0/1/->" for a write destructive
// coupling fault. The aggressor part appears first, separated from the victim
// part by ';', exactly as in Definition 3.
func (f FP) String() string {
	var buf [24]byte
	return string(f.AppendTo(buf[:0]))
}

// AppendTo appends the notation String renders to b and returns the
// extended buffer, so encoders can render primitives without a string per
// primitive.
func (f FP) AppendTo(b []byte) []byte {
	b = append(b, '<')
	if f.Cells == 2 {
		b = append(b, f.AInit.String()...)
		if f.Trigger == TrigOp && f.OpRole == RoleAggressor {
			b = f.Op2.appendTo(f.Op.appendTo(b))
		}
		b = append(b, ';')
	}
	b = append(b, f.VInit.String()...)
	if f.Trigger == TrigOp && f.OpRole == RoleVictim {
		b = f.Op2.appendTo(f.Op.appendTo(b))
	}
	b = append(b, '/')
	b = append(b, f.F.String()...)
	b = append(b, '/')
	b = append(b, f.R.String()...)
	return append(b, '>')
}

// sensPart is one parsed component of the sensitizing sequence S: a state
// condition plus up to two operations ("0w1" static, "0w1r1" dynamic).
type sensPart struct {
	init Value
	ops  []Op
}

// tokenizeOps splits a concatenated operation string ("w1r1", "r0r0", "t")
// into operations.
func tokenizeOps(s string) ([]Op, error) {
	var ops []Op
	for i := 0; i < len(s); {
		switch s[i] {
		case 't':
			ops = append(ops, Wait)
			i++
		case 'w':
			if i+1 >= len(s) {
				return nil, fmt.Errorf("fp: write without a value in %q", s)
			}
			v, err := ParseValue(s[i+1 : i+2])
			if err != nil || !v.IsBinary() {
				return nil, fmt.Errorf("fp: bad write value in %q", s)
			}
			ops = append(ops, W(v))
			i += 2
		case 'r':
			if i+1 < len(s) && (s[i+1] == '0' || s[i+1] == '1') {
				v, _ := ParseValue(s[i+1 : i+2])
				ops = append(ops, R(v))
				i += 2
			} else {
				ops = append(ops, RX)
				i++
			}
		default:
			return nil, fmt.Errorf("fp: bad operation character %q in %q", s[i], s)
		}
	}
	return ops, nil
}

func parseSensPart(s string) (sensPart, error) {
	p := sensPart{init: VX}
	if s == "" {
		return p, fmt.Errorf("fp: empty sensitizing component")
	}
	rest := s
	switch s[0] {
	case '0', '1', '-':
		v, _ := ParseValue(s[:1])
		p.init = v
		rest = s[1:]
	}
	if rest != "" {
		ops, err := tokenizeOps(rest)
		if err != nil {
			return p, fmt.Errorf("fp: bad sensitizing component %q: %v", s, err)
		}
		if len(ops) > 2 {
			return p, fmt.Errorf("fp: sensitizing component %q has %d operations; at most two (dynamic) are supported", s, len(ops))
		}
		p.ops = ops
	}
	return p, nil
}

// ParseFP parses the <S/F/R> notation of Definition 3 into an FP. Accepted
// forms include "<0/1/->" (state fault), "<0w1/0/->" (transition fault),
// "<1r1/0/0>" (read destructive fault), "<0w1;0/1/->" (disturb coupling) and
// "<1;0w0/1/->" (write destructive coupling). The FFM class is inferred from
// the structure.
func ParseFP(s string) (FP, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '<' || t[len(t)-1] != '>' {
		return FP{}, fmt.Errorf("fp: fault primitive %q must be enclosed in <>", s)
	}
	t = t[1 : len(t)-1]
	fields := strings.Split(t, "/")
	if len(fields) != 3 {
		return FP{}, fmt.Errorf("fp: fault primitive %q must have the form <S/F/R>", s)
	}
	sens, fStr, rStr := strings.TrimSpace(fields[0]), strings.TrimSpace(fields[1]), strings.TrimSpace(fields[2])

	fVal, err := ParseValue(fStr)
	if err != nil {
		return FP{}, fmt.Errorf("fp: %q: bad fault value: %v", s, err)
	}
	rVal, err := ParseValue(rStr)
	if err != nil {
		return FP{}, fmt.Errorf("fp: %q: bad read result: %v", s, err)
	}

	parts := strings.Split(sens, ";")
	var f FP
	f.F = fVal
	f.R = rVal
	setOps := func(ops []Op, init Value, role Role) {
		f.Trigger = TrigOp
		f.OpRole = role
		norm := normalizeSensOps(ops, init)
		f.Op = norm[0]
		if len(norm) == 2 {
			f.Op2 = norm[1]
		}
	}
	switch len(parts) {
	case 1:
		v, err := parseSensPart(strings.TrimSpace(parts[0]))
		if err != nil {
			return FP{}, fmt.Errorf("fp: %q: %v", s, err)
		}
		f.Cells = 1
		f.AInit = VX
		f.VInit = v.init
		if len(v.ops) == 0 {
			f.Trigger = TrigState
			f.OpRole = RoleNone
		} else {
			setOps(v.ops, v.init, RoleVictim)
		}
	case 2:
		a, err := parseSensPart(strings.TrimSpace(parts[0]))
		if err != nil {
			return FP{}, fmt.Errorf("fp: %q: aggressor: %v", s, err)
		}
		v, err := parseSensPart(strings.TrimSpace(parts[1]))
		if err != nil {
			return FP{}, fmt.Errorf("fp: %q: victim: %v", s, err)
		}
		if len(a.ops) > 0 && len(v.ops) > 0 {
			return FP{}, fmt.Errorf("fp: %q: the sensitizing operations must address a single cell", s)
		}
		f.Cells = 2
		f.AInit = a.init
		f.VInit = v.init
		switch {
		case len(a.ops) > 0:
			setOps(a.ops, a.init, RoleAggressor)
		case len(v.ops) > 0:
			setOps(v.ops, v.init, RoleVictim)
		default:
			f.Trigger = TrigState
			f.OpRole = RoleNone
		}
	default:
		return FP{}, fmt.Errorf("fp: %q: at most two cells (one ';') are supported", s)
	}
	f.Class = Classify(f)
	if err := f.Validate(); err != nil {
		return FP{}, err
	}
	return f, nil
}

// normalizeSensOps canonicalizes a sensitizing operation sequence: a read in
// S always reads the current cell value, so its Data field is pinned to the
// value the addressed cell holds at that point of the sequence.
func normalizeSensOps(ops []Op, init Value) []Op {
	out := make([]Op, len(ops))
	cur := init
	for i, op := range ops {
		if op.Kind == OpRead {
			op.Data = cur
		}
		if op.Kind == OpWrite {
			cur = op.Data
		}
		out[i] = op
	}
	return out
}

// MustParseFP is like ParseFP but panics on error. It is intended for
// package-level fault catalogs and tests.
func MustParseFP(s string) FP {
	f, err := ParseFP(s)
	if err != nil {
		panic(err)
	}
	return f
}

// Classify infers the functional fault model class of a primitive from its
// structure, per the standard taxonomy. Dynamic primitives whose sequence
// does not end in a read (outside the published realistic dynamic models)
// classify as ClassUnknown but remain usable.
func Classify(f FP) Class {
	if f.IsDynamic() {
		return classifyDynamic(f)
	}
	if f.Cells == 1 {
		switch f.Trigger {
		case TrigState:
			return SF
		case TrigOp:
			switch f.Op.Kind {
			case OpWait:
				return DRF
			case OpWrite:
				if f.Op.Data != f.VInit {
					return TF
				}
				return WDF
			case OpRead:
				if f.F != f.VInit { // victim flips
					if f.R == f.F {
						return RDF
					}
					return DRDF
				}
				return IRF
			}
		}
		return ClassUnknown
	}
	switch f.Trigger {
	case TrigState:
		return CFst
	case TrigOp:
		if f.OpRole == RoleAggressor {
			return CFds
		}
		switch f.Op.Kind {
		case OpWrite:
			if f.Op.Data != f.VInit {
				return CFtr
			}
			return CFwd
		case OpRead:
			if f.F != f.VInit {
				if f.R == f.F {
					return CFrd
				}
				return CFdr
			}
			return CFir
		}
	}
	return ClassUnknown
}

func classifyDynamic(f FP) Class {
	if f.Trigger != TrigOp {
		return ClassUnknown
	}
	if f.OpRole == RoleAggressor {
		return DyCFds
	}
	if f.Op2.Kind != OpRead {
		return ClassUnknown
	}
	good := f.GoodVictimFinal()
	flips := good.IsBinary() && f.F != good
	if f.Cells == 1 {
		if flips {
			if f.R == f.F {
				return DyRDF
			}
			return DyDRDF
		}
		return DyIRF
	}
	if flips {
		if f.R == f.F {
			return DyCFrd
		}
		return DyCFdr
	}
	return DyCFir
}
