package core

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
	"marchgen/internal/sim"
)

// TestBudgetedResumeMatchesFromScratch is the differential test of repair's
// bounded trials: a checkpoint of a walker candidate, resumed with a repair
// template appended on the budgets 0, 1, n-1, n and n+1 around the n faults
// the extended test misses from scratch (DetectsFault on NewSchedule of
// it), must report over budget exactly when n exceeds the budget, and then
// the first fault it misses, and otherwise every fault it misses. An
// appended element loses no detection, so only the faults the candidate
// misses (Simulate of it, then the from-scratch misses of each committed
// extension) are simulated from scratch. The candidates are the walker's
// for each named list, the elements every repair template, the faults the
// union of the named lists and the configurations resumeConfigs. The
// candidate grows on the way as repair's does: every seventh checked
// extension, when it gains, is committed through a resume on a budget
// nothing exceeds, after the budgeted ones, so later resumes start from
// states a committed resume recorded. A stride samples the (configuration,
// candidate, template) triples, sparser under -short.
func TestBudgetedResumeMatchesFromScratch(t *testing.T) {
	stride := 3
	if testing.Short() {
		stride = 13
	}
	faults := unionFaults()
	cands := walkerCandidates()
	templates := buildTemplates()

	n, checked, commits, verdicts := 0, 0, 0, 0
	for _, cfg := range resumeConfigs {
		for _, cand := range cands {
			sched, err := sim.NewSchedule(cand, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := sched.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			var open []int // the faults the candidate misses
			for i, r := range sched.Simulate(faults).Results {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if !r.Detected {
					open = append(open, i)
				}
			}
			for _, tpl := range templates {
				n++
				if (n-1)%stride != 0 {
					continue
				}
				checked++
				trial := cand.Clone()
				trial.Elems = append(trial.Elems, march.NewElement(tpl.order, tpl.ops...))
				full, err := sim.NewSchedule(trial, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want []int
				for _, i := range open {
					det, _, err := full.DetectsFault(faults[i])
					if err != nil {
						t.Fatal(err)
					}
					verdicts++
					if !det {
						want = append(want, i)
					}
				}
				for _, budget := range []int{0, 1, len(want) - 1, len(want), len(want) + 1} {
					if budget < 0 {
						continue
					}
					got, over, err := cp.Resume(trial, budget, nil)
					if err != nil {
						t.Fatalf("%v %q: %v", cfg, trial, err)
					}
					if over != (len(want) > budget) || !over && !slices.Equal(got, want) || over && !slices.Equal(got, want[:1]) {
						t.Errorf("%v %q, budget %d: over %t, missed %v; from scratch misses %v",
							cfg, trial, budget, over, got, want)
					}
				}
				if checked%7 != 0 || len(want) == len(open) {
					continue
				}
				if _, _, err := cp.Resume(trial, len(faults), nil); err != nil {
					t.Fatal(err)
				}
				cp.Commit()
				commits++
				cand, open = trial, want
				var missed []string
				for _, i := range open {
					missed = append(missed, faults[i].ID())
				}
				if got := cp.Missed(); !slices.EqualFunc(got, missed, func(f linked.Fault, id string) bool { return f.ID() == id }) {
					t.Errorf("%v committed %q: misses %d faults, from scratch %d", cfg, cand, len(got), len(missed))
				}
			}
		}
	}
	t.Logf("%d candidates × %d templates × %d configs, stride %d: %d triples checked, %d committed, %d verdicts compared",
		len(cands), len(templates), len(resumeConfigs), stride, checked, commits, verdicts)
}

// TestRepairIgnoresScanOrder pins repair's choice to its key alone: with
// the template scan order reversed, and shuffled with a fixed seed, repair
// of each named list's walker candidate appends the same elements and
// counts the same Stats as in its own longest-first order, under the lazy
// search configuration and the exhaustive final one. Scanning longest
// first only decides how early the trials that cannot win stop.
func TestRepairIgnoresScanOrder(t *testing.T) {
	reversed := slices.Clone(longestFirst)
	slices.Reverse(reversed)
	shuffled := slices.Clone(longestFirst)
	rand.New(rand.NewPCG(22, 1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	scans := map[string][]int{"reversed": reversed, "shuffled": shuffled}
	ctx := context.Background()
	var opts Options
	for _, name := range []string{"list1", "list2", "simple", "dynamic"} {
		faults, _ := faultlist.ByName(name)
		start := march.Test{Name: name, Elems: []march.Element{march.NewElement(march.Any, fp.W0)}}
		cand := walk(ctx, start, faults, opts, &Stats{})
		for _, cfg := range []sim.Config{opts.searchConfig(), opts.finalConfig()} {
			var want Stats
			wantTest, _, err := repair(ctx, cand.Clone(), faults, cfg, opts, &want, longestFirst)
			if err != nil {
				t.Fatal(err)
			}
			for label, scan := range scans {
				var got Stats
				test, _, err := repair(ctx, cand.Clone(), faults, cfg, opts, &got, scan)
				if err != nil {
					t.Fatal(err)
				}
				if test.String() != wantTest.String() || got != want {
					t.Errorf("%s %v, %s scan: %s with %+v; longest first: %s with %+v",
						name, cfg, label, test, got, wantTest, want)
				}
			}
		}
	}
}
