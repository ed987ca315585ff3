package diagnose

import (
	"maps"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// TestTableMatchesTrace pins the compiled signature table to the reference
// trace: for every library march, every fault instance and memories of 4
// and 5 cells, an instance's syndrome is exactly the set of steps
// sim.TraceScenario marks Detected from the all-zero state with ⇕ run
// upward. The lists cover one-, two- and three-cell, linked and dynamic
// faults; List #1 is strided to keep the sweep short.
func TestTableMatchesTrace(t *testing.T) {
	const stride = 10
	var list1 []linked.Fault
	for i, f := range faultlist.List1() {
		if i%stride == 0 {
			list1 = append(list1, f)
		}
	}
	lists := []struct {
		name   string
		faults []linked.Fault
	}{
		{"simple", faultlist.SimpleStatic()},
		{"list2", faultlist.List2()},
		{"dynamic", faultlist.Dynamic()},
		{"list1 strided", list1},
	}
	compared := 0
	for _, size := range []int{4, 5} {
		cfg := sim.Config{Size: size}
		for _, l := range lists {
			cands, err := instances(l.faults, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range march.Lib() {
				d, err := table(m, cands, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The reference side spells the convention out itself.
				orders := make([]march.AddrOrder, len(m.Elems))
				for i, e := range m.Elems {
					orders[i] = e.Order
					if orders[i] == march.Any {
						orders[i] = march.Up
					}
				}
				for _, e := range d.Entries {
					s := sim.Scenario{Placement: e.Placement, Init: make([]fp.Value, e.Fault.Cells), Orders: orders}
					tr, err := sim.TraceScenario(m, e.Fault, s, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := Syndrome{}
					for _, st := range tr.Steps {
						if st.Detected {
							want[ReadID{Element: st.Element, Addr: st.Addr, OpIndex: st.OpIndex}] = true
						}
					}
					if !maps.Equal(e.Syndrome, want) {
						t.Fatalf("%s, %s on %d cells, %s: table %q, trace %q",
							l.name, m.Name, size, e.Candidate, e.Syndrome.Key(), want.Key())
					}
					compared++
				}
			}
		}
	}
	t.Logf("%d instances agree", compared)
}
