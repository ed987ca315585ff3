package sim

import (
	"fmt"
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// rejoinFaults returns every stride-th fault of List #1 ∪ the dynamic
// faults: lane-planned faults, which rejoin, and dynamic ones, which the
// lanes decline, so the same resumes run the scalar fallback too.
func rejoinFaults(stride int) []linked.Fault {
	var out []linked.Fault
	for i, f := range append(faultlist.List1(), faultlist.Dynamic()...) {
		if i%stride == 0 {
			out = append(out, f)
		}
	}
	return out
}

// checkResume resumes cp with ed on a budget nothing exceeds and compares
// every fault's verdict with DetectsFault on NewSchedule of ed, then checks
// that Covers agrees. It leaves cp's last resume the unbudgeted one, which
// Commit and Fork may adopt.
func checkResume(t *testing.T, cp *Checkpoint, ed march.Test, cfg Config, what string) {
	t.Helper()
	full, err := NewSchedule(ed, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var want []int
	for i, f := range cp.Faults() {
		det, _, err := full.DetectsFault(f)
		if err != nil {
			t.Fatal(err)
		}
		if !det {
			want = append(want, i)
		}
	}
	covered, first, err := cp.Covers(ed)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if covered != (len(want) == 0) || !covered && first != want[0] {
		t.Errorf("%s (exhaustive %t): Covers %t at %d, from scratch misses %v", what, cfg.ExhaustiveOrders, covered, first, want)
	}
	missed, _, err := cp.Resume(ed, len(cp.Faults()), nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !slices.Equal(missed, want) {
		t.Errorf("%s (exhaustive %t): resumed misses %v, from scratch %v", what, cfg.ExhaustiveOrders, missed, want)
	}
}

// sameAsBuilt checks that cp holds the states a checkpoint built from
// scratch of its test holds: every fault's verdict, lane plan presence and
// nodes, word for word.
func sameAsBuilt(t *testing.T, cp *Checkpoint, cfg Config, what string) {
	t.Helper()
	s, err := NewSchedule(cp.Test(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	built, err := s.Checkpoint(cp.Faults())
	if err != nil {
		t.Fatal(err)
	}
	for i, fs := range cp.states {
		bs := built.states[i]
		if fs.missed != bs.missed || (fs.plan == nil) != (bs.plan == nil) || !slices.Equal(fs.nodes, bs.nodes) {
			t.Errorf("%s, %s: missed %t, nodes %v; built from scratch: missed %t, nodes %v",
				what, cp.Faults()[i].ID(), fs.missed, fs.nodes, bs.missed, bs.nodes)
			return
		}
	}
}

// copyOf returns a checkpoint of cp's test with cp's states, made by
// forking cp's resume of its own test.
func copyOf(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	if _, _, err := cp.Resume(cp.Test(), len(cp.Faults()), nil); err != nil {
		t.Fatal(err)
	}
	return cp.Fork()
}

// withElems returns test with its elements replaced.
func withElems(test march.Test, elems ...march.Element) march.Test {
	out := test
	out.Elems = elems
	return out
}

// elemEdits returns the edits of test at element i that end in the same
// elements as test: delete element i, insert before it an element that
// reads the good value and one that writes its complement, split it, merge
// it with the next, flip its address order, repeat it and delete its last
// operation. The inserted read leaves every cell word as it was and only
// the detect masks change; the inserted write changes the good trace the
// common tail is entered with.
func elemEdits(test march.Test, i int) map[string]march.Test {
	es := test.Elems
	e := es[i]
	at := func(elems ...march.Element) march.Test {
		return withElems(test, slices.Concat(es[:i], elems, es[i+1:])...)
	}
	written, v := goodTrace(es[:i], false, fp.V0)
	if !written {
		v = fp.V0
	}
	out := map[string]march.Test{
		"delete":       withElems(test, slices.Concat(es[:i], es[i+1:])...),
		"insert read":  at(march.NewElement(march.Up, fp.R(v)), e),
		"insert write": at(march.NewElement(march.Down, fp.W(v.Not())), e),
		"repeat":       at(e, e),
	}
	flipped := e
	switch e.Order {
	case march.Up:
		flipped.Order = march.Down
	case march.Down:
		flipped.Order = march.Any
	default:
		flipped.Order = march.Up
	}
	out["flip"] = at(flipped)
	if n := len(e.Ops); n > 1 {
		out["split"] = at(march.NewElement(e.Order, e.Ops[:n/2]...), march.NewElement(e.Order, e.Ops[n/2:]...))
		out["delete op"] = at(march.NewElement(e.Order, e.Ops[:n-1]...))
	}
	if i+1 < len(es) && (e.Order == es[i+1].Order || e.Order == march.Any || es[i+1].Order == march.Any) {
		order := e.Order
		if order == march.Any {
			order = es[i+1].Order
		}
		merged := march.NewElement(order, slices.Concat(e.Ops, es[i+1].Ops)...)
		out["merge"] = withElems(test, slices.Concat(es[:i], []march.Element{merged}, es[i+2:])...)
	}
	return out
}

// pastEC returns edits of ed from its boundary ec on: dropping its last
// element and flipping element ec, or appending a read when nothing of ed
// lies past ec. A resume of the first starts past ec, where a checkpoint of
// ed holds the nodes its rejoin spliced in; the second rejoins ed one
// element past ec, comparing with those nodes.
func pastEC(ed march.Test, ec int) map[string]march.Test {
	es := ed.Elems
	if ec >= len(es) {
		written, v := goodTrace(es, false, fp.V0)
		if !written {
			v = fp.V0
		}
		return map[string]march.Test{"append": withElems(ed, slices.Concat(es, []march.Element{march.NewElement(march.Up, fp.R(v))})...)}
	}
	flipped := es[ec]
	if flipped.Order == march.Down {
		flipped.Order = march.Up
	} else {
		flipped.Order = march.Down
	}
	out := map[string]march.Test{
		"flip at ec": withElems(ed, slices.Concat(es[:ec], []march.Element{flipped}, es[ec+1:])...),
	}
	if len(es)-1 > ec {
		out["drop last"] = withElems(ed, es[:len(es)-1]...)
	}
	return out
}

// TestRejoinMatchesFromScratch pins resumes that rejoin to from-scratch
// verdicts. Every library test is checkpointed under lazy and exhaustive
// orders over a stride of List #1 ∪ the dynamic faults, and edited at every
// element (elemEdits): most edits end in elements of the checkpointed test
// at another position (ec ≠ ep). Each edit's resume must give every fault
// the verdict DetectsFault gives it on NewSchedule of the edit. The edit is
// then adopted, by a fork of the checkpoint or by a commit on a copy of it,
// which must hold the nodes a checkpoint built from scratch of the edit
// holds, and edits of it past ec (pastEC) must match from scratch too: they
// read the nodes the rejoin spliced in at their new boundaries. Under
// -short the stride is sparser.
func TestRejoinMatchesFromScratch(t *testing.T) {
	stride := 11
	if testing.Short() {
		stride = 37
	}
	faults := rejoinFaults(stride)
	shifted, rejoins, edits := 0, 0, 0
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		for _, test := range march.Lib() {
			s, err := NewSchedule(test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := s.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			for i := range test.Elems {
				edited := elemEdits(test, i)
				names := make([]string, 0, len(edited))
				for name := range edited {
					names = append(names, name)
				}
				slices.Sort(names)
				for k, name := range names {
					ed := edited[name]
					what := fmt.Sprintf("%s, %s at %d", test.Name, name, i)
					edits++
					ec, ep := cp.rejoin(ed, cp.shared(ed))
					if ec < len(ed.Elems) {
						rejoins++
						if ec != ep {
							shifted++
						}
					}
					checkResume(t, cp, ed, cfg, what)
					var adopted *Checkpoint
					if k%2 == 0 {
						adopted = cp.Fork()
					} else {
						adopted = copyOf(t, cp)
						if _, _, err := adopted.Resume(ed, len(faults), nil); err != nil {
							t.Fatal(err)
						}
						adopted.Commit()
					}
					if !adopted.Test().Equal(ed) {
						t.Fatalf("%s: adopted %s", what, adopted.Test())
					}
					sameAsBuilt(t, adopted, cfg, what)
					for second, ed2 := range pastEC(ed, ec) {
						checkResume(t, adopted, ed2, cfg, what+", then "+second)
					}
				}
			}
		}
	}
	if shifted < edits/2 {
		t.Errorf("only %d of %d edits rejoin at ec ≠ ep", shifted, edits)
	}
	t.Logf("%d faults: %d edits, %d rejoin, %d of them at ec ≠ ep", len(faults), edits, rejoins, shifted)
}

// TestForkIsolation pins a fork and its receiver apart: after a fork, each
// resumes, commits and forks again in either order, and every checkpoint
// of the family must still hold the nodes a checkpoint built from scratch
// of its test holds and give the from-scratch verdict of every edit that
// drops one of its elements, which resumes from each of its boundaries.
// The fork edits the last element, so it shares the nodes of the faults
// detected before it with its receiver, and both then commit the drop of
// an early element, which touches those faults and shortens their nodes: a
// commit that wrote into the node slices the other shares would change the
// other's states.
func TestForkIsolation(t *testing.T) {
	faults := rejoinFaults(7)
	drop := func(test march.Test, i int) march.Test {
		return withElems(test, slices.Concat(test.Elems[:i], test.Elems[i+1:])...)
	}
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		for _, forkFirst := range []bool{false, true} {
			s, err := NewSchedule(march.MarchSS, cfg)
			if err != nil {
				t.Fatal(err)
			}
			parent, err := s.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			es := slices.Clone(march.MarchSS.Elems)
			last := len(es) - 1
			es[last].Order = march.Down
			checkResume(t, parent, withElems(march.MarchSS, es...), cfg, "fork")
			fork := parent.Fork()
			commit := func(cp *Checkpoint, ed march.Test, what string) {
				checkResume(t, cp, ed, cfg, what)
				cp.Commit()
			}
			edParent, edFork := drop(parent.Test(), 1), drop(fork.Test(), 2)
			if forkFirst {
				commit(fork, edFork, "fork's commit")
				commit(parent, edParent, "parent's commit")
			} else {
				commit(parent, edParent, "parent's commit")
				commit(fork, edFork, "fork's commit")
			}
			// A second fork of each, after the commits.
			checkResume(t, parent, parent.Test(), cfg, "parent itself")
			parentFork := parent.Fork()
			checkResume(t, fork, fork.Test(), cfg, "fork itself")
			forkFork := fork.Fork()
			for name, cp := range map[string]*Checkpoint{"parent": parent, "fork": fork, "parent's fork": parentFork, "fork's fork": forkFork} {
				sameAsBuilt(t, cp, cfg, fmt.Sprintf("%s (fork first %t)", name, forkFirst))
				for i := range cp.Test().Elems {
					what := fmt.Sprintf("%s (fork first %t) dropping element %d", name, forkFirst, i)
					checkResume(t, cp, drop(cp.Test(), i), cfg, what)
				}
			}
		}
	}
}
