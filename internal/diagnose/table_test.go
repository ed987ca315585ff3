package diagnose

import (
	"maps"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/oracle"
	"marchgen/internal/sim"
)

// TestTableMatchesTrace pins the compiled signature table to the failing
// reads the independent oracle traces: for every library march, every fault
// instance and memories of 4 and 5 cells, an instance's syndrome is exactly
// the set of reads oracle.FailingReads reports from the all-zero state with
// ⇕ run upward. The lists cover one-, two- and three-cell, linked and
// dynamic faults; List #1 is strided to keep the sweep short.
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
					s := oracle.Scenario{Placement: e.Placement, Init: make([]fp.Value, e.Fault.Cells), Orders: orders}
					want := Syndrome{}
					err := oracle.FailingReads(m, e.Fault, s, oracle.ConfigFromSim(cfg), func(elem, opIdx, addr int) {
						want[ReadID{Element: elem, Addr: addr, OpIndex: opIdx}] = true
					})
					if err != nil {
						t.Fatal(err)
					}
					if !maps.Equal(e.Syndrome, want) {
						t.Fatalf("%s, %s on %d cells, %s: table %q, oracle %q",
							l.name, m.Name, size, e.Candidate, e.Syndrome.Key(), want.Key())
					}
					compared++
				}
			}
		}
	}
	t.Logf("%d instances agree", compared)
}
