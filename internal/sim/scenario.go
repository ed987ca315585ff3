package sim

import (
	"fmt"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// checkScenario rejects a scenario the simulator cannot run: it must place
// every fault cell at a distinct address inside the memory, leave at least
// one bystander cell, and start every fault cell at 0 or 1. Those are
// exactly the scenarios DetectsFault enumerates. TraceScenario and
// Schedule.FailingReads share it; it allocates only to report an error.
func checkScenario(f linked.Fault, placement []int, init []fp.Value, size int) error {
	if len(placement) != f.Cells || len(init) != f.Cells {
		return fmt.Errorf("sim: scenario places %d cells with %d initial values, fault has %d", len(placement), len(init), f.Cells)
	}
	if f.Cells >= size {
		return fmt.Errorf("sim: memory of %d cells cannot place a %d-cell fault with a bystander", size, f.Cells)
	}
	for c, a := range placement {
		if a < 0 || a >= size {
			return fmt.Errorf("sim: address %d outside a memory of %d cells", a, size)
		}
		for _, b := range placement[:c] {
			if a == b {
				return fmt.Errorf("sim: scenario places two fault cells at address %d", a)
			}
		}
		if !init[c].IsBinary() {
			return fmt.Errorf("sim: fault cell %d starts at %s, not 0 or 1", c, init[c])
		}
	}
	return nil
}

// orderCombinations resolves the ⇕ elements of a test into the concrete
// address-order assignments the configuration requires.
func orderCombinations(t march.Test, cfg Config) ([][]march.AddrOrder, error) {
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
	if err := checkAnyElements(t.Name, len(anyIdx), cfg); err != nil {
		return nil, err
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

// checkAnyElements refuses, under exhaustive orders, a test named name with
// n ⇕ elements when n exceeds Config.MaxAnyElements: every ⇕ doubles the
// order combinations.
func checkAnyElements(name string, n int, cfg Config) error {
	maxAny := cfg.MaxAnyElements
	if maxAny <= 0 {
		maxAny = 12
	}
	if cfg.ExhaustiveOrders && n > maxAny {
		return fmt.Errorf("sim: test %q has %d ⇕ elements; exhaustive order expansion capped at %d", name, n, maxAny)
	}
	return nil
}

// anyElements counts the ⇕ elements.
func anyElements(elems []march.Element) int {
	n := 0
	for _, e := range elems {
		if e.Order == march.Any {
			n++
		}
	}
	return n
}

// cloneScenario deep-copies a scenario for retention as a witness.
func cloneScenario(s Scenario) *Scenario {
	return &Scenario{
		Placement: append([]int(nil), s.Placement...),
		Init:      append([]fp.Value(nil), s.Init...),
		Orders:    append([]march.AddrOrder(nil), s.Orders...),
	}
}

// DetectsFault reports whether the test detects the fault in every scenario.
// When it does not, the returned witness is one undetected scenario.
//
// The schedule is compiled once per call; callers checking one test against
// many faults should build a Schedule explicitly and reuse it.
func DetectsFault(t march.Test, f linked.Fault, cfg Config) (bool, *Scenario, error) {
	s, err := NewSchedule(t, cfg)
	if err != nil {
		return false, nil, err
	}
	return s.DetectsFault(f)
}
