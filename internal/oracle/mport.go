package oracle

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/march"
	"marchgen/internal/mport"
)

// This file is the independent two-port reference used to cross-check
// internal/mport. Where mport's simulator interleaves trigger evaluation,
// base writes and fault effects inside one stepPair method, the reference
// expands every cycle into an explicit event record (pre-state snapshot,
// port addresses, returned values) and applies the fault calculus over the
// record, so the two implementations only agree when the semantics —
// read-before-write, boundary clamping, firing conditions, effect values —
// agree.

// pairEvent is one fully resolved two-port cycle.
type pairEvent struct {
	addrA, addrB int // addrB < 0 when port B idles this cycle
	opA, opB     fp.Op
	preA, preB   fp.Value // faulty pre-state at the port addresses
	goodA, goodB fp.Value // good pre-state (what a fault-free read returns)
	faultyA      fp.Value // faulty value a port-A read returns
	faultyB      fp.Value
}

// resolveB reimplements port B's addressing rule from its documented
// semantics: Same shares port A's cell, Next/Prev clamp at the array
// boundary (port B idles when the neighbor does not exist).
func resolveB(p mport.PairOp, addrA, n int) int {
	switch p.BTarget {
	case mport.Same:
		return addrA
	case mport.Next:
		if addrA+1 < n {
			return addrA + 1
		}
	case mport.Prev:
		if addrA > 0 {
			return addrA - 1
		}
	}
	return -1
}

// weakCondHolds reimplements the WCC weak-condition predicate: the aggressor
// holds the required state and the port applies the required operation (any
// read matches a read condition; writes must match the written value).
func weakCondHolds(c mport.WeakCond, op fp.Op, state fp.Value) bool {
	if state != c.Init || op.Kind != c.Op.Kind {
		return false
	}
	return op.Kind != fp.OpWrite || op.Data == c.Op.Data
}

// mportMach is the reference two-port machine.
type mportMach struct {
	good, fault []fp.Value
}

// step resolves one cycle into an event, fires the fault calculus, applies
// the writes, and reports detection (any port's faulty read differing from
// the good machine's).
func (m *mportMach) step(f mport.Fault, cell, a1 int, p mport.PairOp, addrA, n int) bool {
	ev := pairEvent{addrA: addrA, addrB: resolveB(p, addrA, n), opA: p.A, opB: p.B}
	if p.BTarget == mport.None {
		ev.addrB = -1
	}
	ev.preA, ev.goodA = m.fault[ev.addrA], m.good[ev.addrA]
	ev.faultyA = ev.preA
	if ev.addrB >= 0 {
		ev.preB, ev.goodB = m.fault[ev.addrB], m.good[ev.addrB]
		ev.faultyB = ev.preB
	}

	// Fault calculus over the event.
	fire := false
	switch f.Class {
	case mport.WCC:
		if ev.addrB >= 0 && ev.addrA != ev.addrB && m.fault[cell] == f.State {
			a2 := a1 + 1
			forward := ev.addrA == a1 && ev.addrB == a2 &&
				weakCondHolds(f.C1, ev.opA, m.fault[a1]) && weakCondHolds(f.C2, ev.opB, m.fault[a2])
			backward := ev.addrA == a2 && ev.addrB == a1 &&
				weakCondHolds(f.C2, ev.opA, m.fault[a2]) && weakCondHolds(f.C1, ev.opB, m.fault[a1])
			fire = forward || backward
		}
	default: // W2RDF, W2DRDF, W2IRF
		if ev.opA.Kind == fp.OpRead && ev.addrB == ev.addrA && ev.opB.Kind == fp.OpRead &&
			ev.addrA == cell && m.fault[cell] == f.State {
			fire = true
			ev.faultyA, ev.faultyB = f.R, f.R
		}
	}

	// Writes land after the snapshot (read-before-write).
	if ev.opA.Kind == fp.OpWrite {
		m.good[ev.addrA] = ev.opA.Data
		m.fault[ev.addrA] = ev.opA.Data
	}
	if ev.addrB >= 0 && ev.opB.Kind == fp.OpWrite {
		m.good[ev.addrB] = ev.opB.Data
		m.fault[ev.addrB] = ev.opB.Data
	}
	if fire {
		m.fault[cell] = f.F()
	}

	detA := ev.opA.Kind == fp.OpRead && ev.faultyA != ev.goodA
	detB := ev.addrB >= 0 && ev.opB.Kind == fp.OpRead && ev.faultyB != ev.goodB
	return detA || detB
}

// mportScenario is one concrete instance of the fault.
type mportScenario struct {
	cell, a1 int
	init     []fp.Value
	orders   []march.AddrOrder
}

// mportScenarios enumerates placement × initial values × concrete orders,
// independently of mport's own enumeration.
func mportScenarios(t mport.Test, f mport.Fault, n int) []mportScenario {
	var placements []mportScenario
	if f.Class == mport.WCC {
		for a1 := 0; a1+1 < n; a1++ {
			for v := 0; v < n; v++ {
				if v != a1 && v != a1+1 {
					placements = append(placements, mportScenario{cell: v, a1: a1})
				}
			}
		}
	} else {
		for c := 0; c < n; c++ {
			placements = append(placements, mportScenario{cell: c, a1: -1})
		}
	}

	var anyIdx []int
	base := make([]march.AddrOrder, len(t.Elems))
	for i, e := range t.Elems {
		base[i] = e.Order
		if e.Order == march.Any {
			anyIdx = append(anyIdx, i)
		}
	}

	var out []mportScenario
	for _, pl := range placements {
		cells := refFaultCells(f, pl)
		for bits := 0; bits < 1<<len(cells); bits++ {
			init := make([]fp.Value, len(cells))
			for i := range cells {
				init[i] = fp.ValueOf(uint8(bits>>i) & 1)
			}
			for combo := 0; combo < 1<<len(anyIdx); combo++ {
				orders := append([]march.AddrOrder(nil), base...)
				for j, idx := range anyIdx {
					if combo>>j&1 == 0 {
						orders[idx] = march.Up
					} else {
						orders[idx] = march.Down
					}
				}
				out = append(out, mportScenario{cell: pl.cell, a1: pl.a1, init: init, orders: orders})
			}
		}
	}
	return out
}

func refFaultCells(f mport.Fault, pl mportScenario) []int {
	if f.Class == mport.WCC {
		return []int{pl.a1, pl.a1 + 1, pl.cell}
	}
	return []int{pl.cell}
}

// refPortCells is the reference two-port array's size: room for a
// three-cell WCC fault plus a bystander.
const refPortCells = 4

// MportDetects is the reference verdict: the test detects the fault in every
// scenario on a refPortCells-cell array.
func MportDetects(t mport.Test, f mport.Fault) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	if err := f.Validate(); err != nil {
		return false, err
	}
	n := refPortCells
	m := &mportMach{good: make([]fp.Value, n), fault: make([]fp.Value, n)}
	for _, sc := range mportScenarios(t, f, n) {
		for i := range m.good {
			m.good[i] = fp.V0
			m.fault[i] = fp.V0
		}
		for i, c := range refFaultCells(f, sc) {
			m.good[c] = sc.init[i]
			m.fault[c] = sc.init[i]
		}
		detected := false
	run:
		for ei, e := range t.Elems {
			for _, addr := range sc.orders[ei].Addresses(n) {
				for _, p := range e.Ops {
					if m.step(f, sc.cell, sc.a1, p, addr, n) {
						detected = true
						break run
					}
				}
			}
		}
		if !detected {
			return false, nil
		}
	}
	return true, nil
}

// MportDiff records a verdict divergence between internal/mport and the
// event-based reference.
type MportDiff struct {
	Fault mport.Fault
	Mport bool // internal/mport verdict
	Ref   bool // reference verdict
}

// String renders the divergence.
func (d MportDiff) String() string {
	return fmt.Sprintf("%s: internal/mport=%v reference=%v", d.Fault.ID(), d.Mport, d.Ref)
}

// CrossCheckMport runs both two-port implementations over every fault and
// returns the divergences (empty means agreement).
func CrossCheckMport(t mport.Test, faults []mport.Fault) ([]MportDiff, error) {
	var diffs []MportDiff
	for _, f := range faults {
		got, err := mport.Detects(t, f)
		if err != nil {
			return nil, err
		}
		want, err := MportDetects(t, f)
		if err != nil {
			return nil, err
		}
		if got != want {
			diffs = append(diffs, MportDiff{Fault: f, Mport: got, Ref: want})
		}
	}
	return diffs, nil
}
