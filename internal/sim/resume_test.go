package sim

import (
	"slices"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// resumeAgainstScratch checks a checkpoint of prefix against compiling
// prefix+e from scratch under the same configuration.
func resumeAgainstScratch(t *testing.T, prefix march.Test, e march.Element, faults []linked.Fault, cfg Config) {
	t.Helper()
	s, err := NewSchedule(prefix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(faults)
	if err != nil {
		t.Fatal(err)
	}
	resumeMatchesScratch(t, cp, prefix, e, cfg)
}

// resumeMatchesScratch resumes cp, a checkpoint of test, with e appended
// and compares every fault's verdict with NewSchedule of test+e.
func resumeMatchesScratch(t *testing.T, cp *Checkpoint, test march.Test, e march.Element, cfg Config) {
	t.Helper()
	ext := appended(test, e)
	missed, err := cp.Resume(ext, nil)
	if err != nil {
		t.Fatalf("%s + %s: %v", test, e, err)
	}
	got := detected(missed, len(cp.Faults()))
	full, err := NewSchedule(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range cp.Faults() {
		det, _, err := full.DetectsFault(f)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != det {
			t.Errorf("%s + %s (scalar %t, exhaustive %t), %s: resumed %t, from scratch %t",
				test, e, cfg.scalar, cfg.ExhaustiveOrders, f.ID(), got[i], det)
		}
	}
}

// appended returns a copy of test with e appended.
func appended(test march.Test, e march.Element) march.Test {
	ext := test.Clone()
	ext.Elems = append(ext.Elems, e)
	return ext
}

// detected turns the missed indices Resume returns into per-fault verdicts
// over n faults.
func detected(missed []int, n int) []bool {
	det := make([]bool, n)
	for i := range det {
		det[i] = true
	}
	for _, i := range missed {
		det[i] = false
	}
	return det
}

// The lane resume against the scalar engine: with lanes forced off every
// fault takes the from-scratch fallback, so the two checkpoints must agree
// verdict for verdict. internal/core's TestCheckpointResumeMatchesFromScratch
// sweeps the library × every repair template; this pins the lane states
// themselves to the scalar path.
func TestResumeLanesMatchScalar(t *testing.T) {
	faults := append(faultlist.List1(), faultlist.Dynamic()...)
	elems := []march.Element{
		march.NewElement(march.Up, fp.R0, fp.W1),
		march.NewElement(march.Down, fp.R1, fp.W0, fp.R0),
		march.NewElement(march.Any, fp.R0),
		march.NewElement(march.Down, fp.W1, fp.R1, fp.R1),
	}
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		for j := 0; j <= len(march.MarchCMinus.Elems); j++ {
			prefix := march.MarchCMinus.Clone()
			prefix.Elems = prefix.Elems[:j]
			lanes, err := NewSchedule(prefix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalar, err := NewSchedule(prefix, forceScalar(cfg))
			if err != nil {
				t.Fatal(err)
			}
			lcp, err := lanes.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			scp, err := scalar.Checkpoint(faults)
			if err != nil {
				t.Fatal(err)
			}
			if len(lcp.Missed()) != len(scp.Missed()) {
				t.Fatalf("%s: lanes miss %d faults, scalar %d", prefix, len(lcp.Missed()), len(scp.Missed()))
			}
			for _, e := range elems {
				lm, err := lcp.Resume(appended(prefix, e), nil)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := scp.Resume(appended(prefix, e), nil)
				if err != nil {
					t.Fatal(err)
				}
				lv, sv := detected(lm, len(faults)), detected(sm, len(faults))
				for i, f := range lcp.Faults() {
					if lv[i] != sv[i] {
						t.Errorf("%s + %s (exhaustive %t), %s: lanes %t, scalar %t",
							prefix, e, cfg.ExhaustiveOrders, f.ID(), lv[i], sv[i])
					}
				}
			}
		}
	}
}

// An appended ⇕ element resolves as the configuration says: up when lazy,
// both orders when exhaustive. Past Config.MaxAnyElements the resume
// refuses the extended test with NewSchedule's own error, and only under
// exhaustive orders; it never narrows the element to one order.
func TestResumeAnyElement(t *testing.T) {
	faults := append(faultlist.List2(), faultlist.SimpleStatic()...)
	prefix := march.MustParse("two-any", "c(w0) c(r0,w1) ^(r1,w0)")
	anyElem := march.NewElement(march.Any, fp.R0, fp.W1, fp.R1)
	for _, cfg := range []Config{{Size: 4}, DefaultConfig(), {Size: 5, ExhaustiveOrders: true}} {
		resumeAgainstScratch(t, prefix, anyElem, faults, cfg)
	}

	capped := Config{Size: 4, ExhaustiveOrders: true, MaxAnyElements: 2}
	s, err := NewSchedule(prefix, capped)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Checkpoint(faults)
	if err != nil {
		t.Fatal(err)
	}
	ext := appended(prefix, anyElem)
	_, err = cp.Resume(ext, nil)
	_, want := NewSchedule(ext, capped)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("past the ⇕ cap: Resume error %v, NewSchedule error %v", err, want)
	}
	if _, err := cp.Resume(appended(prefix, march.NewElement(march.Up, fp.R0)), nil); err != nil {
		t.Errorf("a ⇑ element does not raise the ⇕ count: %v", err)
	}
	lazy := capped
	lazy.ExhaustiveOrders = false
	resumeAgainstScratch(t, prefix, anyElem, faults, lazy)
}

// Edge prefixes and elements: the empty test (resume starts from the
// scenario's initial state, whose good values are the initial values), a
// prefix that writes nothing, elements with a don't-care write (the
// extended schedule cannot use lanes, so every fault resumes from scratch;
// the lane words would read the don't-care as 0 and let ⇑(w-,r0) sensitize
// a read disturb the scalar path does not) and an element with a wait.
func TestResumeEdgeCases(t *testing.T) {
	faults := append(faultlist.List2(), faultlist.SimpleStatic()...)
	faults = append(faults, faultlist.Dynamic()...)
	wx := fp.Op{Kind: fp.OpWrite, Data: fp.VX}
	cases := []struct {
		prefix march.Test
		e      march.Element
	}{
		{march.Test{Name: "empty"}, march.NewElement(march.Up, fp.R0, fp.W1, fp.R1)},
		{march.MustParse("reads", "^(r0) v(r0,r0)"), march.NewElement(march.Down, fp.W1, fp.R1)},
		{march.MustParse("mats", "c(w0) ^(r0,w1)"), march.NewElement(march.Down, fp.R1, wx, fp.R0)},
		{march.MustParse("init", "c(w0)"), march.NewElement(march.Up, wx, fp.R0)},
		{march.MustParse("mats", "c(w0) ^(r0,w1)"), march.NewElement(march.Up, fp.R1, fp.Wait, fp.R1)},
	}
	for _, c := range cases {
		for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
			resumeAgainstScratch(t, c.prefix, c.e, faults, cfg)
		}
	}

	// Committing the don't-care write takes every fault off lanes; a resume
	// after it still gives the verdicts of the compiled test.
	for _, cfg := range []Config{{Size: 4}, DefaultConfig()} {
		prefix := march.MustParse("mats", "c(w0) ^(r0,w1)")
		s, err := NewSchedule(prefix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Checkpoint(faults)
		if err != nil {
			t.Fatal(err)
		}
		prefix = appended(prefix, march.NewElement(march.Down, fp.R1, wx, fp.R0))
		if _, err := cp.Resume(prefix, nil); err != nil {
			t.Fatal(err)
		}
		cp.Commit()
		resumeMatchesScratch(t, cp, prefix, march.NewElement(march.Up, fp.W1, fp.R1), cfg)
	}
}

// The checkpoint fails with the first simulation error in fault-list order,
// the error Simulate's Report.Err returns, at any worker count.
func TestCheckpointFirstError(t *testing.T) {
	good := faultlist.List2()[0]
	bad := good
	bad.FPs = append([]linked.Binding(nil), good.FPs...)
	bad.FPs[0].V = good.Cells
	threeCell := faultlist.List1()[len(faultlist.List1())-1]
	if threeCell.Cells != 3 {
		t.Fatalf("%s has %d cells, want a three-cell fault", threeCell.ID(), threeCell.Cells)
	}
	for _, faults := range [][]linked.Fault{
		{good, bad, threeCell},
		{good, threeCell, bad},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			s, err := NewSchedule(march.MarchCMinus, Config{Size: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := s.Simulate(faults).Err()
			_, err = s.Checkpoint(faults)
			if err == nil || want == nil || err.Error() != want.Error() {
				t.Errorf("workers %d: Checkpoint error %v, Report.Err %v", workers, err, want)
			}
		}
	}
}

// The boundary checkpoint answers as a sequential scan does, whatever
// Config.Workers is: the same missed set when built, the same missed set
// from every Resume, the same first miss from every Covers, and the same
// missed set after a Commit. March SS misses part of List1; dropping each of
// its elements in turn, and committing one drop, leaves resumes from the
// first boundaries with enough steps to fan out (minFanOutSteps), so misses
// race in neighbouring workers.
func TestCheckpointDeterministic(t *testing.T) {
	faults := append(faultlist.List1(), faultlist.Dynamic()...)
	test := march.MarchSS
	type answers struct {
		missed []string // built, then after each commit
		resume [][]int
		first  []int
	}
	ids := func(fs []linked.Fault) []string {
		var out []string
		for _, f := range fs {
			out = append(out, f.ID())
		}
		return out
	}
	var want answers
	for _, workers := range []int{1, 2, 4, 8} {
		s, err := NewSchedule(test, Config{Size: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cp, err := s.Checkpoint(faults)
		if err != nil {
			t.Fatal(err)
		}
		var got answers
		got.missed = ids(cp.Missed())
		cur := test.Clone()
		for b := len(cur.Elems) - 1; b >= 0; b-- {
			suffix := cur.Elems[b+1:]
			if steps := 4 * (march.Test{Elems: suffix}).Length(); b == 0 && steps*len(faults) < minFanOutSteps {
				// Every fault is open at boundary 0.
				t.Fatalf("resuming from boundary 0 simulates %d steps, too few to fan out", steps*len(faults))
			}
			trial := march.Test{Name: cur.Name, Elems: append(cur.Elems[:b:b], suffix...)}
			missed, err := cp.Resume(trial, nil)
			if err != nil {
				t.Fatal(err)
			}
			got.resume = append(got.resume, missed)
			full, first, err := cp.Covers(trial)
			if err != nil {
				t.Fatal(err)
			}
			if full != (len(missed) == 0) {
				t.Errorf("workers %d, dropping element %d: Covers says %t, Resume misses %d", workers, b, full, len(missed))
			}
			got.first = append(got.first, first)
			if b == 4 {
				if _, err := cp.Resume(trial, nil); err != nil {
					t.Fatal(err)
				}
				cp.Commit()
				cur = trial
				got.missed = append(got.missed, ids(cp.Missed())...)
			}
		}
		if workers == 1 {
			want = got
			continue
		}
		if !slices.Equal(got.missed, want.missed) || !slices.Equal(got.first, want.first) ||
			!slices.EqualFunc(got.resume, want.resume, slices.Equal[[]int]) {
			t.Errorf("workers %d answer %v, one worker %v", workers, got, want)
		}
	}
}
