// Package diagnose builds fault dictionaries and locates faults from march
// test failure signatures — the diagnosis counterpart of the generation
// flow. A production tester runs the march test and records which reads
// failed (the syndrome); matching the syndrome against the simulated
// signatures of every fault model narrows the defect down to the candidate
// faults (and, with placement-resolved signatures, to the failing cells).
//
// Every signature comes from one signature table (table), which runs the
// compiled schedule that certifies generated tests, so diagnosis and
// generation share one semantic model and one simulator.
package diagnose

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// ReadID identifies one read operation of a march test applied to a memory
// of a given size: the element, the visited cell, and the operation index
// within the element.
type ReadID struct {
	Element int
	Addr    int
	OpIndex int
}

// String renders "M1#3@2": element, op index within the element, address.
func (r ReadID) String() string {
	return fmt.Sprintf("M%d#%d@%d", r.Element, r.OpIndex, r.Addr)
}

// Syndrome is the set of failing reads of one march test run.
type Syndrome map[ReadID]bool

// Key returns a canonical string for the syndrome (sorted read IDs), usable
// as a dictionary key.
func (s Syndrome) Key() string {
	ids := make([]string, 0, len(s))
	for r := range s {
		ids = append(ids, r.String())
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// Entry is one dictionary entry: a fault instance and the syndrome it
// produces.
type Entry struct {
	Candidate
	Syndrome Syndrome
}

// Dictionary maps syndrome keys to the fault instances that produce them.
type Dictionary struct {
	Test    march.Test
	Size    int
	Entries []Entry
	byKey   map[string][]int
}

// table is the signature table of a march test over fault instances, and
// the only way this package simulates. It compiles the test once, under
// the diagnosis convention: all-zero initial state and ⇕ run upward (a
// schedule compiled without ExhaustiveOrders resolves ⇕ to ⇑). Each
// instance's run records every failing read, not just the first, and the
// syndromes are indexed by key.
func table(t march.Test, cands []Candidate, cfg sim.Config) (*Dictionary, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	cfg.ExhaustiveOrders = false
	sched, err := sim.NewSchedule(t, cfg)
	if err != nil {
		return nil, err
	}
	d := &Dictionary{Test: t, Size: cfg.Canonical().Size, Entries: make([]Entry, 0, len(cands)), byKey: map[string][]int{}}
	for _, c := range cands {
		if err := c.Fault.Validate(); err != nil {
			return nil, err
		}
		syn := Syndrome{}
		err := sched.FailingReads(c.Fault, c.Placement, make([]fp.Value, c.Fault.Cells), func(elem, op, addr int) {
			syn[ReadID{Element: elem, Addr: addr, OpIndex: op}] = true
		})
		if err != nil {
			return nil, err
		}
		key := syn.Key()
		d.byKey[key] = append(d.byKey[key], len(d.Entries))
		d.Entries = append(d.Entries, Entry{Candidate: c, Syndrome: syn})
	}
	return d, nil
}

// instances enumerates every placement of every fault on the configured
// memory, fault by fault, placements in lexicographic order. Like the
// simulator it refuses a fault that leaves no bystander cell.
func instances(faults []linked.Fault, cfg sim.Config) ([]Candidate, error) {
	size := cfg.Canonical().Size
	var out []Candidate
	for _, f := range faults {
		if f.Cells >= size {
			return nil, fmt.Errorf("diagnose: %d-cell fault needs an array larger than %d", f.Cells, size)
		}
		var place func(pl []int)
		place = func(pl []int) {
			if len(pl) == f.Cells {
				out = append(out, Candidate{Fault: f, Placement: pl})
				return
			}
			for a := 0; a < size; a++ {
				if !slices.Contains(pl, a) {
					place(append(slices.Clip(pl), a))
				}
			}
		}
		place(nil)
	}
	return out, nil
}

// Build simulates every fault of the list in every placement (from the
// all-zero initial state, ⇕ run upward) and records the failure
// signatures. Faults that produce no failing read under the test are
// recorded with an empty syndrome — they are undiagnosable by this test,
// which Coverage-style analysis must have flagged already.
func Build(t march.Test, faults []linked.Fault, cfg sim.Config) (*Dictionary, error) {
	cands, err := instances(faults, cfg)
	if err != nil {
		return nil, err
	}
	return table(t, cands, cfg)
}

// Lookup returns the fault instances whose signature matches the syndrome
// exactly.
func (d *Dictionary) Lookup(s Syndrome) []Entry {
	var out []Entry
	for _, idx := range d.byKey[s.Key()] {
		out = append(out, d.Entries[idx])
	}
	return out
}

// Diagnose simulates a fault instance as the "device under test" and looks
// its syndrome up in the dictionary — the round trip a tester performs.
func (d *Dictionary) Diagnose(c Candidate) ([]Entry, Syndrome, error) {
	dut, err := table(d.Test, []Candidate{c}, sim.Config{Size: d.Size})
	if err != nil {
		return nil, nil, err
	}
	syn := dut.Entries[0].Syndrome
	return d.Lookup(syn), syn, nil
}

// Resolution summarizes how well the dictionary separates faults: how many
// distinct signatures exist, the largest ambiguity class, and how many
// instances are undiagnosable (empty syndrome).
type Resolution struct {
	Instances     int
	Signatures    int
	LargestClass  int
	Undiagnosable int
	PerfectUnique int // instances with a signature shared by no other
}

// Resolution computes the dictionary's diagnostic resolution.
func (d *Dictionary) Resolution() Resolution {
	r := Resolution{Instances: len(d.Entries), Signatures: len(d.byKey)}
	for key, idxs := range d.byKey {
		if key == "" {
			r.Undiagnosable += len(idxs)
			continue
		}
		if len(idxs) > r.LargestClass {
			r.LargestClass = len(idxs)
		}
		if len(idxs) == 1 {
			r.PerfectUnique++
		}
	}
	return r
}

// String renders the resolution summary.
func (r Resolution) String() string {
	return fmt.Sprintf("instances=%d signatures=%d unique=%d largestClass=%d undiagnosable=%d",
		r.Instances, r.Signatures, r.PerfectUnique, r.LargestClass, r.Undiagnosable)
}
