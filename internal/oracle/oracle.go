// Package oracle is an independent reference fault simulator used to
// cross-check internal/sim (DESIGN.md §11).
//
// Every march test this repository produces is certified by internal/sim —
// the same simulator the generator searched against. A bug in the shared
// fault semantics would therefore certify wrong tests without any test
// noticing: the loop is closed. This package breaks the loop the way the
// paper does with its separate in-house fault simulator (reference [13]):
// a second implementation of the fault semantics, written from the paper's
// definitions rather than from internal/sim's code, so the two can disagree.
//
// The oracle is deliberately written for clarity, not speed, and avoids
// every optimization internal/sim uses:
//
//   - no compiled op-stream schedules (internal/sim's trie of shared
//     order-choice prefixes): every scenario replays the full operation
//     stream from the start;
//   - no good-trace cache: the fault-free machine is simulated explicitly,
//     step by step, in lockstep with the faulty one;
//   - no placement-equivalence classes: every placement of the fault cells
//     is simulated, even when it is a relabeling of one already seen.
//
// Instead, the faulty memory is modeled as an explicit Mealy automaton
// (mealy.go): the state space is the 2^n memory contents crossed with the
// arming status of each dynamic fault-primitive binding, the input alphabet
// is the march operations applied to each address, and the output is the
// value a read returns. One automaton is built per (fault, placement); its
// transition function is evaluated state by state from the fault-primitive
// definitions. The two implementations share only the data model (fp,
// linked, march) — none of the verdict-path code.
//
// The semantic contract both implementations answer is the paper's: a fault
// is detected only if in *every* concrete scenario — every placement of the
// fault cells onto addresses, every initial value of those cells, and (for
// ⇕ elements under exhaustive expansion) every concrete address order —
// some read returns a value different from the fault-free machine's.
package oracle

import (
	"fmt"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// Config controls the simulated scenario space. It mirrors the knobs of
// internal/sim's Config (same defaults, so verdicts are comparable), but is
// a distinct type: the oracle resolves its defaults with its own code.
type Config struct {
	// Size is the number of memory cells; at least one more than the number
	// of fault cells so bystander behavior is exercised. 0 means 4.
	Size int
	// ExhaustiveOrders expands every ⇕ element into both concrete address
	// orders and requires detection under all combinations. When false, ⇕
	// iterates upward.
	ExhaustiveOrders bool
	// MaxAnyElements caps the ⇕ expansion; 0 means 12.
	MaxAnyElements int
}

// DefaultConfig matches internal/sim's DefaultConfig: 4 cells, exhaustive ⇕
// expansion.
func DefaultConfig() Config {
	return Config{Size: 4, ExhaustiveOrders: true}
}

func (c Config) size() int {
	if c.Size <= 0 {
		return 4
	}
	return c.Size
}

func (c Config) maxAnyElements() int {
	if c.MaxAnyElements <= 0 {
		return 12
	}
	return c.MaxAnyElements
}

// Scenario is one concrete simulation instance, in the same shape and with
// the same rendering as internal/sim's Scenario so witnesses can be compared
// textually across the two implementations.
type Scenario struct {
	// Placement maps fault cell index to memory address.
	Placement []int
	// Init holds the initial value of each fault cell; bystanders start at 0.
	Init []fp.Value
	// Orders is the concrete address order of every march element.
	Orders []march.AddrOrder
}

// String renders "cells@a,b init=vv orders=^v" — the same format
// sim.Scenario uses, so witness traces diff cleanly.
func (s Scenario) String() string {
	var b strings.Builder
	b.WriteString("cells@")
	for i, a := range s.Placement {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", a)
	}
	b.WriteString(" init=")
	for _, v := range s.Init {
		b.WriteString(v.String())
	}
	b.WriteString(" orders=")
	for _, o := range s.Orders {
		b.WriteString(o.ASCII())
	}
	return b.String()
}

// Result is the oracle's outcome for one fault.
type Result struct {
	Fault    linked.Fault
	Detected bool
	// Witness is one undetected scenario when Detected is false: the first
	// one in the reference enumeration order (placements in ascending
	// depth-first order, then initial values, then ⇕ order combinations),
	// which is also the order internal/sim reports, so witnesses agree when
	// the verdicts do.
	Witness *Scenario
	// Err is set when the fault could not be simulated.
	Err error
}

// Report aggregates the oracle simulation of a test against a fault list.
// Results are in fault-list order.
type Report struct {
	Test    march.Test
	Results []Result
}

// Total returns the number of faults simulated.
func (r Report) Total() int { return len(r.Results) }

// Detected returns the number of detected faults.
func (r Report) Detected() int {
	n := 0
	for _, res := range r.Results {
		if res.Detected {
			n++
		}
	}
	return n
}

// Full reports whether every fault was detected (vacuously true for an
// empty list, matching sim.Report.Full).
func (r Report) Full() bool { return r.Detected() == r.Total() }

// Missed returns the undetected faults.
func (r Report) Missed() []Result {
	var out []Result
	for _, res := range r.Results {
		if !res.Detected {
			out = append(out, res)
		}
	}
	return out
}

// Err returns the first simulation error, if any.
func (r Report) Err() error {
	for _, res := range r.Results {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// Detects reports whether the test detects the fault in every scenario.
// When it does not, the returned witness is the first undetected scenario
// in the reference enumeration order.
func Detects(t march.Test, f linked.Fault, cfg Config) (bool, *Scenario, error) {
	if err := checkBindings(f); err != nil {
		return false, nil, err
	}
	size := cfg.size()
	if f.Cells >= size {
		return false, nil, fmt.Errorf("oracle: memory of %d cells cannot place a %d-cell fault with a bystander", size, f.Cells)
	}
	orderSets, err := expandOrders(t, cfg)
	if err != nil {
		return false, nil, err
	}
	if err := checkOps(t); err != nil {
		return false, nil, err
	}

	a := newAutomaton(f, size)
	k := f.Cells
	placement := make([]int, k)
	used := make([]bool, size)

	var witness *Scenario
	// place enumerates injective placements of the k fault cells onto the
	// size addresses, in ascending depth-first order. It returns false once
	// a missed scenario is found (witness set).
	var place func(depth int) bool
	place = func(depth int) bool {
		if depth == k {
			a.setPlacement(placement)
			for bits := 0; bits < 1<<k; bits++ {
				initWord := uint32(0)
				for c := 0; c < k; c++ {
					if bits>>c&1 == 1 {
						initWord |= 1 << placement[c]
					}
				}
				for _, orders := range orderSets {
					if a.run(t, orders, initWord, nil) {
						continue
					}
					init := make([]fp.Value, k)
					for c := 0; c < k; c++ {
						init[c] = fp.ValueOf(uint8(bits>>c) & 1)
					}
					witness = &Scenario{
						Placement: append([]int(nil), placement...),
						Init:      init,
						Orders:    append([]march.AddrOrder(nil), orders...),
					}
					return false
				}
			}
			return true
		}
		for addr := 0; addr < size; addr++ {
			if used[addr] {
				continue
			}
			used[addr] = true
			placement[depth] = addr
			ok := place(depth + 1)
			used[addr] = false
			if !ok {
				return false
			}
		}
		return true
	}
	if !place(0) {
		return false, witness, nil
	}
	return true, nil, nil
}

// FailingReads replays one scenario of the fault and calls fn for every
// read whose faulty value differs from the fault-free one, in stream order.
// Unlike a verdict it runs past the first detection: the reads are the
// syndrome a tester records. It is the reference for internal/sim's
// per-scenario paths (Schedule.FailingReads and TraceScenario), and takes
// only the scenarios Detects enumerates: every fault cell at a distinct
// address, at least one bystander cell, binary initial values and one
// order per element.
func FailingReads(t march.Test, f linked.Fault, s Scenario, cfg Config, fn func(elem, opIdx, addr int)) error {
	if err := checkBindings(f); err != nil {
		return err
	}
	size := cfg.size()
	k := f.Cells
	if k >= size {
		return fmt.Errorf("oracle: memory of %d cells cannot place a %d-cell fault with a bystander", size, k)
	}
	if len(s.Placement) != k || len(s.Init) != k || len(s.Orders) != len(t.Elems) {
		return fmt.Errorf("oracle: scenario %s does not fit a %d-cell fault under a %d-element test", s, k, len(t.Elems))
	}
	if err := checkOps(t); err != nil {
		return err
	}
	used, initWord := uint32(0), uint32(0)
	for c, addr := range s.Placement {
		if addr < 0 || addr >= size || used>>addr&1 == 1 {
			return fmt.Errorf("oracle: scenario %s: address %d is outside the memory or placed twice", s, addr)
		}
		used |= 1 << addr
		switch s.Init[c] {
		case fp.V1:
			initWord |= 1 << addr
		case fp.V0:
		default:
			return fmt.Errorf("oracle: scenario %s: initial values must be 0 or 1", s)
		}
	}
	a := newAutomaton(f, size)
	a.setPlacement(s.Placement)
	a.run(t, s.Orders, initWord, fn)
	return nil
}

// Simulate runs every fault through the oracle, sequentially (no worker
// fan-out: the oracle trades speed for a single, obviously ordered loop).
func Simulate(t march.Test, faults []linked.Fault, cfg Config) Report {
	rep := Report{Test: t, Results: make([]Result, len(faults))}
	for i, f := range faults {
		det, w, err := Detects(t, f, cfg)
		rep.Results[i] = Result{Fault: f, Detected: det, Witness: w, Err: err}
	}
	return rep
}

// expandOrders resolves the ⇕ elements into the concrete address-order
// assignments the configuration requires: a single upward resolution when
// exhaustive expansion is off, otherwise every combination, with bit j of
// the combination index choosing the direction of the j-th ⇕ element
// (0 = up). This is the same combination ordering internal/sim enumerates,
// re-derived here so witness scenarios are reported in the same order.
func expandOrders(t march.Test, cfg Config) ([][]march.AddrOrder, error) {
	var anyIdx []int
	base := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		base[i] = e.Order
		if e.Order == march.Any {
			anyIdx = append(anyIdx, i)
		}
	}
	if !cfg.ExhaustiveOrders || len(anyIdx) == 0 {
		resolved := make([]march.AddrOrder, len(base))
		for i, o := range base {
			if o == march.Any {
				o = march.Up
			}
			resolved[i] = o
		}
		return [][]march.AddrOrder{resolved}, nil
	}
	if len(anyIdx) > cfg.maxAnyElements() {
		return nil, fmt.Errorf("oracle: test %q has %d ⇕ elements; exhaustive order expansion capped at %d", t.Name, len(anyIdx), cfg.maxAnyElements())
	}
	n := 1 << len(anyIdx)
	out := make([][]march.AddrOrder, 0, n)
	for bits := 0; bits < n; bits++ {
		orders := make([]march.AddrOrder, len(base))
		copy(orders, base)
		for j, idx := range anyIdx {
			if bits>>j&1 == 0 {
				orders[idx] = march.Up
			} else {
				orders[idx] = march.Down
			}
		}
		out = append(out, orders)
	}
	return out, nil
}

// checkBindings rejects faults whose binding indices lie outside the
// fault's cells. linked.Binding.Validate enforces the same ranges, but a
// hand-built fault bypasses it, and the automaton indexes the placement with
// every binding's victim and aggressor.
func checkBindings(f linked.Fault) error {
	for i, b := range f.FPs {
		if b.V < 0 || b.V >= f.Cells {
			return fmt.Errorf("oracle: binding %d (%s): victim index %d outside the fault's %d cells", i, b.FP.ID(), b.V, f.Cells)
		}
		if b.A < -1 || b.A >= f.Cells {
			return fmt.Errorf("oracle: binding %d (%s): aggressor index %d outside the fault's %d cells", i, b.FP.ID(), b.A, f.Cells)
		}
	}
	return nil
}

// checkOps rejects operations the automaton's input alphabet cannot encode
// (writes of a non-binary value); march.Test.Validate already forbids them,
// but the oracle must not silently mis-simulate hand-built tests.
func checkOps(t march.Test) error {
	for _, e := range t.Elems {
		for _, op := range e.Ops {
			if op.Kind == fp.OpWrite && !op.Data.IsBinary() {
				return fmt.Errorf("oracle: test %q writes a non-binary value", t.Name)
			}
		}
	}
	return nil
}
