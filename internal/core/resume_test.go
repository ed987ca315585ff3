package core

import (
	"context"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// TestCheckpointResumeMatchesFromScratch is the differential test of the
// repair phase's resume: for a prefix test, a checkpoint's verdict on
// prefix+element must equal compiling prefix+element from scratch and
// asking DetectsFault, for every fault the prefix misses. The checkpoint's
// miss set must equal the from-scratch misses of the prefix.
//
// Prefixes are the first j elements of every library march (j = 0 included)
// and the walker's candidate for each distinct list; elements are every
// repair template (both orders) plus its ⇕ form; faults are the union of
// every named list, which includes the dynamic faults planLanes declines;
// configurations are lazy and exhaustive at 4 and 5 cells. A stride samples
// the (configuration, prefix, element) triples, sparser under -short. The
// full sweep, stride 1, compares 44,630,700 verdicts over 93,744 triples in
// about 4 minutes on a 2-vCPU guest.
func TestCheckpointResumeMatchesFromScratch(t *testing.T) {
	stride := 61
	if testing.Short() {
		stride = 307
	}

	var faults []linked.Fault
	seen := map[string]bool{}
	for _, name := range faultlist.Names() {
		list, _ := faultlist.ByName(name)
		for _, f := range list {
			if id := f.ID(); !seen[id] {
				seen[id] = true
				faults = append(faults, f)
			}
		}
	}

	var elems []march.Element
	for _, tpl := range buildTemplates() {
		elems = append(elems, march.NewElement(tpl.order, tpl.ops...))
		if tpl.order == march.Up {
			elems = append(elems, march.NewElement(march.Any, tpl.ops...))
		}
	}

	var prefixes []march.Test
	for _, m := range march.Lib() {
		for j := 0; j <= len(m.Elems); j++ {
			p := m.Clone()
			p.Elems = p.Elems[:j]
			prefixes = append(prefixes, p)
		}
	}
	for _, name := range []string{"list1", "list2", "simple", "dynamic"} {
		list, _ := faultlist.ByName(name)
		start := march.Test{Name: "walk-" + name, Elems: []march.Element{march.NewElement(march.Any, fp.W0)}}
		prefixes = append(prefixes, walk(context.Background(), start, list, Options{}, &Stats{}))
	}

	configs := []sim.Config{
		{Size: 4},
		{Size: 4, ExhaustiveOrders: true},
		{Size: 5},
		{Size: 5, ExhaustiveOrders: true},
	}

	n, checked, verdicts := 0, 0, 0
	for _, cfg := range configs {
		for _, prefix := range prefixes {
			// The stride skips every triple of this prefix: do not pay for
			// its checkpoint.
			if (n+len(elems)-1)/stride*stride < n {
				n += len(elems)
				continue
			}
			sched, err := sim.NewSchedule(prefix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sched.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			missed := cp.Missed()
			rep := sched.Simulate(faults)
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			want := rep.Missed()
			if len(missed) != len(want) {
				t.Fatalf("%v %q: checkpoint misses %d faults, Simulate %d", cfg, prefix, len(missed), len(want))
			}
			for i := range want {
				if missed[i].ID() != want[i].Fault.ID() {
					t.Fatalf("%v %q: missed[%d] = %s, Simulate says %s", cfg, prefix, i, missed[i].ID(), want[i].Fault.ID())
				}
			}
			for _, e := range elems {
				n++
				if (n-1)%stride != 0 {
					continue
				}
				checked++
				got, err := cp.Resume(e)
				if err != nil {
					t.Fatalf("%v %q + %s: %v", cfg, prefix, e, err)
				}
				ext := prefix.Clone()
				ext.Elems = append(ext.Elems, e)
				full, err := sim.NewSchedule(ext, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range missed {
					det, _, err := full.DetectsFault(f)
					if err != nil {
						t.Fatal(err)
					}
					verdicts++
					if got[i] != det {
						t.Errorf("%v %q + %s, %s: resumed %t, from scratch %t", cfg, prefix, e, f.ID(), got[i], det)
					}
				}
			}
		}
	}
	t.Logf("%d prefixes × %d elements × %d configs, stride %d: %d triples, %d verdicts compared",
		len(prefixes), len(elems), len(configs), stride, checked, verdicts)
}
