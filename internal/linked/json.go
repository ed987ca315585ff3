package linked

import (
	"encoding/json"
	"fmt"

	"marchgen/internal/fp"
)

// faultJSON is the wire form of a fault: primitives travel in the <S/F/R>
// notation, the kind as its taxonomy name.
type faultJSON struct {
	Kind string   `json:"kind"`
	FPs  []string `json:"fps"`
}

// MarshalJSON encodes the fault with its taxonomy kind and primitive
// notations (bindings are implied by the kind). It writes exactly the bytes
// json.Marshal writes for the equivalent faultJSON — cache keys and stored
// documents hash and embed these bytes — but into one buffer, without
// reflection or a string per primitive.
func (f Fault) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 32+32*len(f.FPs))
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, f.Kind.String())
	if len(f.FPs) == 0 {
		return append(b, `,"fps":null}`...), nil
	}
	b = append(b, `,"fps":[`...)
	var notation [24]byte
	for i, fb := range f.FPs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, fb.FP.AppendTo(notation[:0]))
	}
	return append(b, "]}"...), nil
}

// appendJSONString appends s as json.Marshal quotes it. s is a kind name
// or an FP notation, both printable ASCII, so the only bytes to escape are
// the quote, the backslash and json's HTML-unsafe '<', '>' and '&'.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '<', '>', '&':
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// UnmarshalJSON decodes and re-validates a fault from its wire form.
func (f *Fault) UnmarshalJSON(data []byte) error {
	var w faultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	prims := make([]fp.FP, len(w.FPs))
	for i, s := range w.FPs {
		p, err := fp.ParseFP(s)
		if err != nil {
			return err
		}
		prims[i] = p
	}
	var (
		out Fault
		err error
	)
	switch w.Kind {
	case "Simple":
		if len(prims) != 1 {
			return fmt.Errorf("linked: simple fault needs exactly one primitive, got %d", len(prims))
		}
		out, err = NewSimple(prims[0])
	case "LF1", "LF2aa", "LF2av", "LF2va", "LF3":
		if len(prims) != 2 {
			return fmt.Errorf("linked: %s needs exactly two primitives, got %d", w.Kind, len(prims))
		}
		switch w.Kind {
		case "LF1":
			out, err = NewLF1(prims[0], prims[1])
		case "LF2aa":
			out, err = NewLF2aa(prims[0], prims[1])
		case "LF2av":
			out, err = NewLF2av(prims[0], prims[1])
		case "LF2va":
			out, err = NewLF2va(prims[0], prims[1])
		case "LF3":
			out, err = NewLF3(prims[0], prims[1])
		}
	default:
		return fmt.Errorf("linked: unknown fault kind %q", w.Kind)
	}
	if err != nil {
		return err
	}
	*f = out
	return nil
}
