package word

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// Transparent derives the in-field ("transparent") variant of a march test
// for word-oriented memories, after Li et al. (arXiv:0710.4747): the leading
// write-only initialization element is dropped and the memory's existing
// content plays the role of the d=0 data background, so the test can run
// periodically in the field without destroying user data.
//
// The transformation is valid only when the remaining test (a) is readable
// starting from the content convention — every read before the first write
// of a cell expects d=0, i.e. the content itself — and (b) restores the
// content: the fault-free exit value must be 0 so the array holds its
// original data when the test finishes.
func Transparent(t march.Test) (march.Test, error) {
	if len(t.Elems) == 0 {
		return march.Test{}, fmt.Errorf("word: transparent transform of empty test")
	}
	first := t.Elems[0]
	if len(first.Ops) == 0 {
		return march.Test{}, fmt.Errorf("word: transparent transform: empty first element")
	}
	for _, op := range first.Ops {
		if op.Kind != fp.OpWrite {
			return march.Test{}, fmt.Errorf("word: transparent transform: first element %s is not write-only initialization", first.String())
		}
	}
	rest := t.Clone()
	rest.Elems = rest.Elems[1:]
	if len(rest.Elems) == 0 {
		return march.Test{}, fmt.Errorf("word: transparent transform: test is initialization only")
	}
	// Walk the fault-free value under the content convention (content = d0):
	// reads must agree with the running value, and the test must exit at 0.
	v := fp.V0
	for _, e := range rest.Elems {
		for _, op := range e.Ops {
			switch op.Kind {
			case fp.OpRead:
				if op.Data.IsBinary() && op.Data != v {
					return march.Test{}, fmt.Errorf("word: transparent transform: element %s reads %s where content convention holds %s", e.String(), op.Data, v)
				}
			case fp.OpWrite:
				if op.Data.IsBinary() {
					v = op.Data
				}
			}
		}
	}
	if v != fp.V0 {
		return march.Test{}, fmt.Errorf("word: transparent transform: test exits at %s, content not restored", v)
	}
	if rest.Name != "" {
		rest.Name += " (transparent)"
	}
	return rest, nil
}

// DetectsTransparent reports whether the transparent test detects the
// intra-word fault for at least one memory content in the representative
// set. In transparent mode the tester does not choose the data background —
// the content is the background — so the set of backgrounds stands in for
// the contents the in-field scheduler will encounter across runs; a fault
// counts as transparently detectable when some representative content
// sensitizes and observes it.
func DetectsTransparent(t march.Test, f Fault, bgs []Background, cfg Config) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	if f.AggBit >= cfg.width() || f.VicBit >= cfg.width() {
		return false, fmt.Errorf("word: fault bits (%d,%d) exceed width %d", f.AggBit, f.VicBit, cfg.width())
	}
	for _, bg := range bgs {
		if err := bg.Validate(); err != nil {
			return false, err
		}
		if len(bg) != cfg.width() {
			return false, fmt.Errorf("word: background width %d, memory width %d", len(bg), cfg.width())
		}
		d, err := runTransparent(t, f, bg, cfg)
		if err != nil {
			return false, err
		}
		if d {
			return true, nil
		}
	}
	return false, nil
}

// runTransparent applies the (already transformed) transparent test with the
// memory content initialized to the background pattern itself: bit i of every
// word starts at bg[i], exactly the state the dropped initialization element
// would have produced, except no write ever happens before the first read.
func runTransparent(t march.Test, f Fault, bg Background, cfg Config) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	m := newWMemory(cfg.words(), cfg.width())
	for w := range m.good {
		for i := range m.good[w] {
			m.good[w][i] = bg[i]
			m.faulty[w][i] = bg[i]
		}
	}
	for w := range m.faulty {
		m.settle(f, w)
	}
	for _, e := range t.Elems {
		for _, w := range e.Order.Addresses(cfg.words()) {
			for _, op := range e.Ops {
				switch op.Kind {
				case fp.OpWrite:
					m.applyWrite(f, bg, w, op.Data)
				case fp.OpRead:
					if m.applyRead(f, w) {
						return true, nil
					}
				}
			}
		}
	}
	return false, nil
}
