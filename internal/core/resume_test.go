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
// repair phase's resume: for a prefix test, a checkpoint resumed from its
// last boundary with one element must give, for every fault the prefix
// misses, the verdict of compiling prefix+element from scratch and asking
// DetectsFault, and miss no fault the prefix detects. The checkpoint's miss
// set must equal the from-scratch misses of the prefix.
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

	faults := unionFaults()

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
	prefixes = append(prefixes, walkerCandidates()...)
	configs := resumeConfigs

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
				ext := prefix.Clone()
				ext.Elems = append(ext.Elems, e)
				got, _, err := cp.Resume(ext, len(faults), nil)
				if err != nil {
					t.Fatalf("%v %q + %s: %v", cfg, prefix, e, err)
				}
				resumed := make([]bool, len(faults))
				for _, i := range got {
					resumed[i] = true
				}
				full, err := sim.NewSchedule(ext, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i, r := range rep.Results {
					if r.Detected {
						if resumed[i] {
							t.Errorf("%v %q + %s, %s: detected by the prefix, resumed as missed", cfg, prefix, e, r.Fault.ID())
						}
						continue
					}
					det, _, err := full.DetectsFault(r.Fault)
					if err != nil {
						t.Fatal(err)
					}
					verdicts++
					if resumed[i] == det {
						t.Errorf("%v %q + %s, %s: resumed %t, from scratch %t", cfg, prefix, e, r.Fault.ID(), !resumed[i], det)
					}
				}
			}
		}
	}
	t.Logf("%d prefixes × %d elements × %d configs, stride %d: %d triples, %d verdicts compared",
		len(prefixes), len(elems), len(configs), stride, checked, verdicts)
}

// resumeConfigs are the configurations the resume tests run under: lazy and
// exhaustive ⇕ resolution at 4 and 5 cells.
var resumeConfigs = []sim.Config{
	{Size: 4},
	{Size: 4, ExhaustiveOrders: true},
	{Size: 5},
	{Size: 5, ExhaustiveOrders: true},
}

// unionFaults is the union of every named fault list, in list order. It
// includes the dynamic faults planLanes declines, which resume from scratch.
func unionFaults() []linked.Fault {
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
	return faults
}

// walkerCandidates returns the walker's candidate for every named list.
func walkerCandidates() []march.Test {
	var out []march.Test
	for _, name := range []string{"list1", "list2", "simple", "dynamic"} {
		list, _ := faultlist.ByName(name)
		start := march.Test{Name: "walk-" + name, Elems: []march.Element{march.NewElement(march.Any, fp.W0)}}
		out = append(out, walk(context.Background(), start, list, Options{}, &Stats{}))
	}
	return out
}

// boundaryEdits returns every test the minimizer's search passes can try by
// editing element b of t: dropping the element, one operation or a pair of
// operations, and merging it with element b+1 (whatever their orders).
func boundaryEdits(t march.Test, b int) []march.Test {
	var out []march.Test
	edit := func(f func(elems []march.Element) []march.Element) {
		c := t.Clone()
		c.Elems = f(c.Elems)
		out = append(out, c)
	}
	edit(func(es []march.Element) []march.Element { return append(es[:b], es[b+1:]...) })
	ops := t.Elems[b].Ops
	for j := range ops {
		if len(ops) > 1 {
			edit(func(es []march.Element) []march.Element {
				es[b].Ops = append(es[b].Ops[:j], es[b].Ops[j+1:]...)
				return es
			})
		}
		for k := j + 1; k < len(ops) && len(ops) > 2; k++ {
			edit(func(es []march.Element) []march.Element {
				o := es[b].Ops
				es[b].Ops = append(append(o[:j:j], o[j+1:k]...), o[k+1:]...)
				return es
			})
		}
	}
	if b+1 < len(t.Elems) {
		edit(func(es []march.Element) []march.Element {
			es[b].Ops = append(es[b].Ops, es[b+1].Ops...)
			return append(es[:b+1], es[b+2:]...)
		})
	}
	return out
}

// TestBoundaryResumeMatchesFromScratch is the differential test of the
// minimizer's resume: a checkpoint of a test, resumed with the test's
// elements from boundary b on edited, must give every fault the verdict of
// compiling the edited test from scratch and asking DetectsFault, and
// Covers must agree with it. The edits are the minimizer's at every
// boundary (boundaryEdits); the tests are every library march and the
// walker's candidate for each named list; the faults are the union of the
// named lists, dynamic ones included; the configurations are
// resumeConfigs. Boundaries run from the first to the last, and the test
// walks on the way as the minimizer does: every third checked edit is
// committed, so later resumes start from states an earlier resume recorded,
// and a fault Covers reports missed moves to the front. A stride samples the
// edits, sparser under -short.
func TestBoundaryResumeMatchesFromScratch(t *testing.T) {
	stride := 23
	if testing.Short() {
		stride = 131
	}
	faults := unionFaults()
	tests := append(march.Lib(), walkerCandidates()...)

	n, checked, commits, verdicts := 0, 0, 0, 0
	for _, cfg := range resumeConfigs {
		for _, test := range tests {
			sched, err := sim.NewSchedule(test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sched.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			cur := test
			for b := 0; b < len(cur.Elems); b++ {
				for _, trial := range boundaryEdits(cur, b) {
					n++
					if (n-1)%stride != 0 {
						continue
					}
					checked++
					missed, _, err := cp.Resume(trial, len(faults), nil)
					if err != nil {
						t.Fatalf("%v %q from %d as %q: %v", cfg, cur, b, trial, err)
					}
					full, err := sim.NewSchedule(trial, cfg)
					if err != nil {
						t.Fatal(err)
					}
					resumed := make([]bool, len(faults))
					for _, i := range missed {
						resumed[i] = true
					}
					var want []int
					wantIDs := map[string]bool{}
					for i, f := range cp.Faults() {
						det, _, err := full.DetectsFault(f)
						if err != nil {
							t.Fatal(err)
						}
						verdicts++
						if !det {
							want = append(want, i)
							wantIDs[f.ID()] = true
						}
						if resumed[i] == det {
							t.Errorf("%v %q from %d as %q, %s: resumed %t, from scratch %t",
								cfg, cur, b, trial, f.ID(), !resumed[i], det)
						}
					}

					covered, first, err := cp.Covers(trial)
					if err != nil {
						t.Fatal(err)
					}
					if covered != (len(want) == 0) || !covered && first != want[0] {
						t.Errorf("%v %q from %d as %q: Covers %t at %d, from scratch misses %v",
							cfg, cur, b, trial, covered, first, want)
					}
					switch {
					case !covered:
						cp.MoveToFront(first)
						if checked%3 != 0 {
							continue
						}
						if _, _, err := cp.Resume(trial, len(faults), nil); err != nil {
							t.Fatal(err)
						}
					case checked%3 != 0:
						continue
					}
					cp.Commit()
					commits++
					cur = trial
					got := cp.Missed()
					for _, f := range got {
						if !wantIDs[f.ID()] {
							t.Errorf("%v committed %q: misses %s, detected from scratch", cfg, cur, f.ID())
						}
					}
					if len(got) != len(want) {
						t.Errorf("%v committed %q: misses %d faults, from scratch %d", cfg, cur, len(got), len(want))
					}
					break // cur changed: its edits at b are new
				}
			}
		}
	}
	t.Logf("%d tests × %d configs, stride %d: %d of %d edits checked, %d committed, %d verdicts compared",
		len(tests), len(resumeConfigs), stride, checked, n, commits, verdicts)
}
