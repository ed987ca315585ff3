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
func DetectsTransparent(t march.Test, f Fault, bgs []Background) (bool, error) {
	if err := checkBackgrounds(f, bgs); err != nil {
		return false, err
	}
	for _, bg := range bgs {
		d, err := runTransparent(t, f, bg)
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
func runTransparent(t march.Test, f Fault, bg Background) (bool, error) {
	m := newWMemory(len(bg))
	for w := range m.good {
		copy(m.good[w], bg)
		copy(m.faulty[w], bg)
	}
	return m.run(t, f, bg)
}
