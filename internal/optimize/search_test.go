package optimize

import (
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// TestCoversMatchesFromScratch is the differential test of the search's
// coverage judge: a checkpoint resumed with any edit of its test, however
// far the edit is from the checkpointed test, must give every fault the
// verdict of compiling the edit from scratch and asking DetectsFault, and
// Covers must agree with it.
//
// Each seed gets one checkpoint, as a search does: March SL and March SS
// (List #1), March ABL1 (List #2) and a test with several ⇕ elements, under
// the optimizer's default configuration (exhaustive, 4 cells) and a lazy
// one. The faults are a stride of List #1 ∪ List #2 plus a few dynamic
// faults, which planLanes declines, so the scalar fallback runs too. The
// edits are seeded chains of the search's own mutate and splice children,
// each child the next one's parent, and after every chain the edits a chain
// seldom draws (edgeChildren). Every child that covers is committed, and so
// is every third resume, so the checkpointed test drifts away from the
// chain; a fault Covers reports missed moves to the front. Under -short the
// stride is sparser and the chains fewer and shorter.
func TestCoversMatchesFromScratch(t *testing.T) {
	stride, chains, steps := 5, 4, 25
	if testing.Short() {
		stride, chains, steps = 23, 2, 15
	}
	var union []linked.Fault
	seen := map[string]bool{}
	for _, f := range append(faultlist.List1(), faultlist.List2()...) {
		if id := f.ID(); !seen[id] {
			seen[id] = true
			union = append(union, f)
		}
	}
	var faults []linked.Fault
	for i := 0; i < len(union); i += stride {
		faults = append(faults, union[i])
	}
	for i, f := range faultlist.Dynamic() {
		if i%11 == 0 {
			faults = append(faults, f)
		}
	}

	seeds := []march.Test{
		march.MarchSL,
		march.MarchSS,
		march.MarchABL1,
		march.MustParse("several ⇕", "c(w0) c(r0,w1) ^(r1,w0) c(r0,w1,r1) v(r1,w0) c(r0)"),
	}
	configs := []sim.Config{sim.DefaultConfig(), {Size: 4}}

	checked, commits, verdicts := 0, 0, 0
	check := func(cfg sim.Config, cp *sim.Checkpoint, child march.Test) {
		t.Helper()
		checked++
		missed, _, err := cp.Resume(child, len(cp.Faults()), nil)
		full, schedErr := sim.NewSchedule(child, cfg)
		if schedErr != nil {
			_, _, coversErr := cp.Covers(child)
			for _, err := range []error{err, coversErr} {
				if err == nil || err.Error() != schedErr.Error() {
					t.Errorf("%v %q: resume error %v, NewSchedule error %v", cfg, child, err, schedErr)
				}
			}
			return
		}
		if err != nil {
			t.Fatalf("%v %q: %v", cfg, child, err)
		}
		var want []int
		for i, f := range cp.Faults() {
			det, _, err := full.DetectsFault(f)
			if err != nil {
				t.Fatal(err)
			}
			verdicts++
			if !det {
				want = append(want, i)
			}
		}
		if !slices.Equal(missed, want) {
			t.Errorf("%v %q: Resume misses %v, from scratch %v", cfg, child, missed, want)
		}
		if len(want) > 0 && checked%3 == 0 {
			cp.Commit()
			commits++
		}
		covered, first, err := cp.Covers(child)
		if err != nil {
			t.Fatal(err)
		}
		if covered != (len(want) == 0) || !covered && first != want[0] {
			t.Errorf("%v %q: Covers %t at %d, from scratch misses %v", cfg, child, covered, first, want)
		}
		if covered {
			cp.Commit()
			commits++
		} else {
			cp.MoveToFront(first)
		}
	}

	rng := Rng(1)
	for _, cfg := range configs {
		for _, seed := range seeds {
			sched, err := sim.NewSchedule(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sched.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < chains; c++ {
				cur := seed
				for s := 0; s < steps; s++ {
					var (
						child march.Test
						ok    bool
					)
					if rng.Intn(4) == 0 {
						child, _, ok = splice(rng, cur, seeds[rng.Intn(len(seeds))])
					} else {
						child, _, ok = mutate(rng, cur)
					}
					if !ok {
						continue
					}
					check(cfg, cp, child)
					cur = child
				}
				for _, child := range edgeChildren(cp.Test()) {
					check(cfg, cp, child)
				}
			}
		}
	}
	t.Logf("%d faults, %d seeds × %d configs: %d children checked, %d commits, %d verdicts compared",
		len(faults), len(seeds), len(configs), checked, commits, verdicts)
}

// edgeChildren returns the edits of t a chain seldom draws: t itself, the
// empty test, t with more ⇕ elements than the default ⇕ cap (12) allows
// under exhaustive orders and, when t has elements, a strict prefix, t with
// its middle element's address order changed and its operations kept, and
// t with its middle element repeated, so the elements it shares with t run
// past the edit.
func edgeChildren(t march.Test) []march.Test {
	anys := t.Clone()
	for range 13 {
		anys.Elems = append(anys.Elems, march.NewElement(march.Any, fp.R0, fp.W0))
	}
	out := []march.Test{t.Clone(), {Name: t.Name}, anys}
	if len(t.Elems) == 0 {
		return out
	}
	i := len(t.Elems) / 2
	prefix := t.Clone()
	prefix.Elems = prefix.Elems[:i]
	flipped := t.Clone()
	switch flipped.Elems[i].Order {
	case march.Up:
		flipped.Elems[i].Order = march.Down
	default:
		flipped.Elems[i].Order = march.Up
	}
	repeated := t.Clone()
	repeated.Elems = slices.Insert(repeated.Elems, i, repeated.Elems[i])
	return append(out, prefix, flipped, repeated)
}
