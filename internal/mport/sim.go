package mport

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/march"
)

// arrayCells is the size of the simulated two-port array: room for a
// three-cell WCC fault plus a bystander.
const arrayCells = 4

// placement pins a fault template to concrete addresses. For W2* faults
// only Cell is used; for WCC faults A1 and A1+1 are the adjacent aggressors
// and Cell is the victim.
type placement struct {
	Cell int // sensitized cell (W2*) or victim (WCC)
	A1   int // lower aggressor (WCC); -1 otherwise
}

// mach simulates the good and faulty two-port machines in lockstep. The two
// sweep orders are precomputed once: address enumeration sits on the hot
// path of every scenario.
type mach struct {
	good, faulty []fp.Value
	up, down     []int
}

func newMach(n int) *mach {
	up := make([]int, n)
	down := make([]int, n)
	for i := 0; i < n; i++ {
		up[i] = i
		down[i] = n - 1 - i
	}
	return &mach{good: make([]fp.Value, n), faulty: make([]fp.Value, n), up: up, down: down}
}

// addrs returns the precomputed sweep for a concrete order.
func (m *mach) addrs(o march.AddrOrder) []int {
	if o == march.Down {
		return m.down
	}
	return m.up
}

// stepPair applies one operation pair at port-A address addrA and reports
// whether either port's read detects the fault.
func (m *mach) stepPair(f Fault, pl placement, p PairOp, addrA, n int) bool {
	addrB := p.bAddr(addrA, n)

	// Reads observe the pre-operation state (read-before-write on
	// write/read conflicts).
	var retGA, retFA, retGB, retFB fp.Value
	bActive := p.BTarget != None && addrB >= 0
	readA := p.A.Kind == fp.OpRead
	readB := bActive && p.B.Kind == fp.OpRead
	if readA {
		retGA, retFA = m.good[addrA], m.faulty[addrA]
	}
	if readB {
		retGB, retFB = m.good[addrB], m.faulty[addrB]
	}

	// Fault triggers, evaluated on the pre-operation faulty state.
	fire := false
	switch f.Class {
	case W2RDF, W2DRDF, W2IRF:
		if readA && readB && addrA == addrB && addrA == pl.Cell && m.faulty[pl.Cell] == f.State {
			fire = true
			retFA, retFB = f.R, f.R
		}
	case WCC:
		if bActive && addrA != addrB && m.faulty[pl.Cell] == f.State {
			a2 := pl.A1 + 1
			hit := func(cond1, cond2 WeakCond) bool {
				return addrA == pl.A1 && addrB == a2 &&
					cond1.matches(p.A, m.faulty[pl.A1]) && cond2.matches(p.B, m.faulty[a2]) ||
					addrA == a2 && addrB == pl.A1 &&
						cond2.matches(p.A, m.faulty[a2]) && cond1.matches(p.B, m.faulty[pl.A1])
			}
			if hit(f.C1, f.C2) {
				fire = true
			}
		}
	}

	// Base write semantics on both machines.
	if p.A.Kind == fp.OpWrite {
		m.good[addrA] = p.A.Data
		m.faulty[addrA] = p.A.Data
	}
	if bActive && p.B.Kind == fp.OpWrite {
		m.good[addrB] = p.B.Data
		m.faulty[addrB] = p.B.Data
	}

	// Fault effect.
	if fire {
		m.faulty[pl.Cell] = f.F()
	}

	return readA && retFA != retGA || readB && retFB != retGB
}

// run simulates the whole test for one placement and initial state of the
// fault cells, returning whether any read detects the fault.
func (m *mach) run(t Test, f Fault, pl placement, init []fp.Value, cells []int, orders []march.AddrOrder, n int) bool {
	for i := range m.good {
		m.good[i] = fp.V0
		m.faulty[i] = fp.V0
	}
	for i, c := range cells {
		m.good[c] = init[i]
		m.faulty[c] = init[i]
	}
	for ei, e := range t.Elems {
		for _, addr := range m.addrs(orders[ei]) {
			for _, p := range e.Ops {
				if m.stepPair(f, pl, p, addr, n) {
					return true
				}
			}
		}
	}
	return false
}

// faultCells lists the concrete addresses a placement binds.
func faultCells(f Fault, pl placement) []int {
	if f.Class == WCC {
		return []int{pl.A1, pl.A1 + 1, pl.Cell}
	}
	return []int{pl.Cell}
}

// placements enumerates the placements of a fault on an n-cell array. WCC
// aggressors are physically adjacent (non-wrapping), and the victim is any
// other cell.
func placements(f Fault, n int) []placement {
	var out []placement
	if f.Class == WCC {
		for a1 := 0; a1+1 < n; a1++ {
			for v := 0; v < n; v++ {
				if v == a1 || v == a1+1 {
					continue
				}
				out = append(out, placement{Cell: v, A1: a1})
			}
		}
		return out
	}
	for c := 0; c < n; c++ {
		out = append(out, placement{Cell: c, A1: -1})
	}
	return out
}

// Detects reports whether the test detects the fault in every placement,
// every initial value of the fault cells, and every concrete order of its
// ⇕ elements. It stops at the first scenario the test misses: the
// generator's minimizer asks it once per fault per trial, and most trials
// fail on their first missed scenario.
func Detects(t Test, f Fault) (bool, error) {
	every := true
	err := scenarios(t, f, func(det bool) bool {
		every = det
		return det
	})
	return err == nil && every, err
}

// DetectsCount returns how many of the fault's scenarios (placement ×
// initial values × concrete orders) the test detects, out of how many.
func DetectsCount(t Test, f Fault) (detected, total int, err error) {
	err = scenarios(t, f, func(det bool) bool {
		total++
		if det {
			detected++
		}
		return true
	})
	if err != nil {
		return 0, 0, err
	}
	return detected, total, nil
}

// scenarios simulates the test over the fault's scenarios (placement ×
// initial values of the fault cells × concrete orders of its ⇕ elements)
// and calls fn with each verdict, stopping when fn returns false.
func scenarios(t Test, f Fault, fn func(detected bool) bool) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := f.Validate(); err != nil {
		return err
	}
	orderSets := orderCombos(t)
	m := newMach(arrayCells)
	for _, pl := range placements(f, arrayCells) {
		cells := faultCells(f, pl)
		for bits := 0; bits < 1<<len(cells); bits++ {
			init := make([]fp.Value, len(cells))
			for i := range cells {
				init[i] = fp.ValueOf(uint8(bits>>i) & 1)
			}
			for _, orders := range orderSets {
				if !fn(m.run(t, f, pl, init, cells, orders, arrayCells)) {
					return nil
				}
			}
		}
	}
	return nil
}

func orderCombos(t Test) [][]march.AddrOrder {
	var anyIdx []int
	base := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		base[i] = e.Order
		if e.Order == march.Any {
			anyIdx = append(anyIdx, i)
		}
	}
	out := make([][]march.AddrOrder, 0, 1<<len(anyIdx))
	for bits := 0; bits < 1<<len(anyIdx); bits++ {
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
	return out
}

// Report summarizes a two-port simulation.
type Report struct {
	Test     Test
	Total    int
	Detected int
	Missed   []Fault
}

// Full reports complete coverage.
func (r Report) Full() bool { return r.Total > 0 && r.Detected == r.Total }

// Coverage returns the detected percentage.
func (r Report) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Detected) / float64(r.Total)
}

// Summary renders a one-line report.
func (r Report) Summary() string {
	return fmt.Sprintf("%s (%s): %d/%d detected (%.1f%%)",
		r.Test.Name, r.Test.Complexity(), r.Detected, r.Total, r.Coverage())
}

// Simulate runs the test against every fault.
func Simulate(t Test, faults []Fault) (Report, error) {
	r := Report{Test: t, Total: len(faults)}
	for _, f := range faults {
		det, err := Detects(t, f)
		if err != nil {
			return r, err
		}
		if det {
			r.Detected++
		} else {
			r.Missed = append(r.Missed, f)
		}
	}
	return r, nil
}

// CheckConsistency verifies the declared read expectations against the
// fault-free machine for every uniform initial array value and every
// concrete ⇕ order. Port-B neighbor reads at wrap-around boundaries see the
// already-processed neighbor, so expectations are checked exactly as the
// machine computes them.
func (t Test) CheckConsistency(n int) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for _, initBit := range []fp.Value{fp.V0, fp.V1} {
		for _, orders := range orderCombos(t) {
			mem := make([]fp.Value, n)
			for i := range mem {
				mem[i] = initBit
			}
			written := make([]bool, n)
			for ei, e := range t.Elems {
				for _, addr := range orders[ei].Addresses(n) {
					for _, p := range e.Ops {
						addrB := p.bAddr(addr, n)
						bActive := p.BTarget != None && addrB >= 0
						if p.A.Kind == fp.OpRead && p.A.Data.IsBinary() && written[addr] && mem[addr] != p.A.Data {
							return fmt.Errorf("mport: test %q: element %d expects %s on port A but fault-free memory holds %s",
								t.Name, ei, p.A.Data, mem[addr])
						}
						if bActive && p.B.Kind == fp.OpRead && p.B.Data.IsBinary() && written[addrB] && mem[addrB] != p.B.Data {
							return fmt.Errorf("mport: test %q: element %d expects %s on port B but fault-free memory holds %s",
								t.Name, ei, p.B.Data, mem[addrB])
						}
						if p.A.Kind == fp.OpWrite {
							mem[addr] = p.A.Data
							written[addr] = true
						}
						if bActive && p.B.Kind == fp.OpWrite {
							mem[addrB] = p.B.Data
							written[addrB] = true
						}
					}
				}
			}
		}
	}
	return nil
}
