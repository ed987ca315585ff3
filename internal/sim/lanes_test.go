package sim

import (
	"fmt"
	"testing"

	"marchgen/internal/faultlist"
	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// forceScalar returns c with the lane engine disabled: the comparison
// baseline for every lanes-vs-scalar test.
func forceScalar(c Config) Config {
	c.scalar = true
	return c
}

// TestLanesMatchScalar compares the two execution modes of the SAME compiled
// schedule head-on: for every library test and every shipped fault, verdict,
// witness and coverage verdict must be identical with lanes on and off.
// (TestScheduleMatchesReference separately pins both modes against
// internal/oracle.)
func TestLanesMatchScalar(t *testing.T) {
	faults := append(faultlist.List2(), faultlist.SimpleStatic()...)
	faults = append(faults, faultlist.Dynamic()...)
	if !testing.Short() {
		faults = append(faults, faultlist.List1()...)
	}
	// Under ⇕(w0) ⇕(r0,w0) this List #1 pair first misses, in depth-first
	// trie order, at a leaf above the lowest missed one: the witness must
	// still name the lowest.
	lf, err := linked.NewLF2aa(fp.MustParseFP("<0w0;0/1/->"), fp.MustParseFP("<0w0;1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	faults = append(faults, lf)
	marches := append(march.Lib(), march.MustParse("two ⇕", "⇕(w0) ⇕(r0,w0)"))
	for _, cfg := range []Config{DefaultConfig(), {Size: 5, ExhaustiveOrders: true}, {Size: 4}} {
		scalar := forceScalar(cfg)
		for _, mt := range marches {
			laneSched, err := NewSchedule(mt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalSched, err := NewSchedule(mt, scalar)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				lDet, lWit, lErr := laneSched.DetectsFault(f)
				sDet, sWit, sErr := scalSched.DetectsFault(f)
				assertSameOutcome(t, fmt.Sprintf("size=%d %s vs %s", cfg.size(), mt.Name, f.ID()),
					sDet, lDet, sWit, lWit, sErr, lErr)
				lm := laneSched.getMachine()
				lVerdict, _, lvErr := laneSched.detects(lm, f, false)
				laneSched.putMachine(lm)
				sm := scalSched.getMachine()
				sVerdict, _, svErr := scalSched.detects(sm, f, false)
				scalSched.putMachine(sm)
				if (lvErr != nil) != (svErr != nil) || lVerdict != sVerdict {
					t.Fatalf("%s vs %s: verdict-only detects lanes=(%v,%v) scalar=(%v,%v)",
						mt.Name, f.ID(), lVerdict, lvErr, sVerdict, svErr)
				}
			}
		}
	}
}

// TestLaneEligibility pins the fallback taxonomy: which faults the planner
// accepts onto the bit-parallel path and which it sends back to the scalar
// engine.
func TestLaneEligibility(t *testing.T) {
	sched, err := NewSchedule(march.MarchSL, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := sched.getMachine()
	defer sched.putMachine(m)

	eligible := func(f linked.Fault) bool { return sched.planLanes(m, f) }

	// Every shipped static fault — simple, linked, state-triggered — must
	// ride the lanes; every dynamic one must not.
	for _, f := range append(faultlist.List1(), faultlist.SimpleStatic()...) {
		if anyDynamic(f) {
			continue
		}
		if !eligible(f) {
			t.Errorf("static fault %s not lane-eligible", f.ID())
		}
	}
	for _, f := range faultlist.Dynamic() {
		if eligible(f) {
			t.Errorf("dynamic fault %s must fall back to scalar", f.ID())
		}
	}

	// Data retention (wait-sensitized) primitives are time-based: scalar.
	drf := linked.Fault{Kind: linked.Simple, Cells: 1, FPs: []linked.Binding{
		{FP: fp.MustParseFP("<1t/0/->"), A: -1, V: 0},
	}}
	if eligible(drf) {
		t.Error("DRF must fall back to scalar")
	}

	// Too many cells for the 64-bit packing: scalar (here: uncached too).
	big := fourCellFault()
	if eligible(big) {
		t.Error("4-cell fault must fall back to scalar")
	}

	// The scalar field forces scalar for everything.
	off, err := NewSchedule(march.MarchSL, forceScalar(DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	mOff := off.getMachine()
	defer off.putMachine(mOff)
	for _, f := range faultlist.List2() {
		if off.planLanes(mOff, f) {
			t.Fatalf("the scalar field must force scalar, accepted %s", f.ID())
		}
	}
}

// TestOutOfRangeBindingError is the regression test for the binding-index
// audit: a hand-built fault whose aggressor index lies outside the cell set
// used to panic inside bindFault (placement[b.A] with b.A == Cells); it must
// now surface as an error from every entry point, lanes on or off.
func TestOutOfRangeBindingError(t *testing.T) {
	bad := []linked.Fault{
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<0;0w1/0/->"), A: 2, V: 0}, // aggressor out of range
		}},
		{Kind: linked.Simple, Cells: 2, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<0w1/0/->"), A: -1, V: 2}, // victim out of range
		}},
		{Kind: linked.Simple, Cells: 1, FPs: []linked.Binding{
			{FP: fp.MustParseFP("<0w1/0/->"), A: -2, V: 0}, // aggressor below -1
		}},
	}
	for _, cfg := range []Config{DefaultConfig(), forceScalar(DefaultConfig())} {
		for i, f := range bad {
			det, wit, err := DetectsFault(march.MarchSL, f, cfg)
			if err == nil {
				t.Fatalf("fault %d (lanes=%v): DetectsFault = (%v, %v, nil), want error",
					i, !cfg.scalar, det, wit)
			}
			s, err := NewSchedule(march.MarchSL, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Checkpoint([]linked.Fault{f}); err == nil {
				t.Fatalf("fault %d (lanes=%v): Checkpoint built, want error", i, !cfg.scalar)
			}
		}
	}
}

// placementClassReference is the old O(size·k) implementation: scan every
// memory address in ascending order and append the digit of the cell placed
// there. The property test pins the new sort-based rank against it.
func placementClassReference(placement []int, size int) int {
	key := 0
	for a := 0; a < size; a++ {
		for c, pa := range placement {
			if pa == a {
				key = key*classKeyBase + c + 1
			}
		}
	}
	return key
}

// TestPlacementClassProperty exhaustively compares the new placement rank
// against the old scan over every placement of 1..3 cells at several memory
// sizes, and checks the classSpace bound it feeds.
func TestPlacementClassProperty(t *testing.T) {
	for _, size := range []int{4, 5, 8, 11} {
		cfg := Config{Size: size, ExhaustiveOrders: true}
		sched, err := NewSchedule(march.MATSPlus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= maxClassCells; k++ {
			seen := map[int]bool{}
			err := sched.forEachPlacement(k, func(placement []int) bool {
				got := placementClass(placement)
				want := placementClassReference(placement, size)
				if got != want {
					t.Fatalf("size=%d placement=%v: placementClass=%d, reference=%d",
						size, placement, got, want)
				}
				if got < 0 || got >= classSpace {
					t.Fatalf("size=%d placement=%v: rank %d outside [0,%d)",
						size, placement, got, classSpace)
				}
				seen[got] = true
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			// Exactly k! distinct relative orders must appear.
			want := 1
			for i := 2; i <= k; i++ {
				want *= i
			}
			if len(seen) != want {
				t.Fatalf("size=%d k=%d: %d distinct ranks, want %d", size, k, len(seen), want)
			}
		}
	}
}

// fourCellFault builds a hand-built static fault spanning four cells — one
// more than the class memoization (and the lane packing) supports. Two
// disturb couplings from distinct aggressors share a victim, plus a fourth
// bound cell that only the placement enumeration sees.
func fourCellFault() linked.Fault {
	return linked.Fault{Kind: linked.LF3, Cells: 4, FPs: []linked.Binding{
		{FP: fp.MustParseFP("<0w1;0/1/->"), A: 0, V: 2},
		{FP: fp.MustParseFP("<0w1;1/0/->"), A: 1, V: 2},
		{FP: fp.MustParseFP("<1;0/1/->"), A: 3, V: 2},
	}}
}

// fuzzTests is the pool the fuzzer draws march tests from: a spread of
// element shapes (⇑/⇓/⇕, reads, writes, waits, back-to-back pairs).
var fuzzTests = []march.Test{
	march.MATSPlus,
	march.MarchCMinus,
	march.MarchSL,
	march.MarchRAW,
	march.MarchLF1,
	march.MarchSS,
}

// fuzzValue decodes 0/1/- from the low bits of a fuzz byte.
func fuzzValue(b byte) fp.Value {
	switch b % 3 {
	case 0:
		return fp.V0
	case 1:
		return fp.V1
	}
	return fp.VX
}

// fuzzFault decodes a hand-built fault from fuzz bytes. It deliberately
// produces the whole zoo the planner must classify — state, op and wait
// triggers, dynamic pairs, inert no-aggressor bindings, F == VInit no-ops —
// while keeping cell indices in range (out-of-range indices error before
// simulation and are covered by TestOutOfRangeBindingError).
func fuzzFault(data []byte) linked.Fault {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	cells := int(data[0])%3 + 1
	nb := int(data[1])%2 + 1
	f := linked.Fault{Kind: linked.Simple, Cells: cells}
	data = data[2:]
	for i := 0; i < nb; i++ {
		var chunk [8]byte
		copy(chunk[:], data)
		if len(data) > 8 {
			data = data[8:]
		}
		b := linked.Binding{V: int(chunk[0]) % cells, A: -1}
		if cells > 1 && chunk[1]%2 == 0 {
			b.A = int(chunk[1]/2) % cells
			if b.A == b.V {
				b.A = (b.A + 1) % cells
			}
		}
		pf := fp.FP{Cells: 1, F: fp.ValueOf(chunk[2] % 2)}
		if b.A >= 0 || chunk[2]%4 >= 2 {
			pf.Cells = 2
			pf.AInit = fuzzValue(chunk[3])
		}
		pf.VInit = fuzzValue(chunk[4])
		switch chunk[5] % 4 {
		case 0: // state-triggered
			pf.Trigger = fp.TrigState
		case 1: // wait-sensitized
			pf.Trigger = fp.TrigOp
			pf.OpRole = fp.RoleVictim
			pf.Op = fp.Wait
		default: // op-triggered, possibly dynamic
			pf.Trigger = fp.TrigOp
			pf.OpRole = fp.RoleVictim
			if b.A >= 0 && chunk[6]%2 == 0 {
				pf.OpRole = fp.RoleAggressor
			}
			ops := []fp.Op{fp.W0, fp.W1, fp.R0, fp.R1, fp.RX}
			pf.Op = ops[int(chunk[6]/2)%len(ops)]
			if chunk[5]%4 == 3 { // dynamic: a second back-to-back operation
				pf.Op2 = ops[int(chunk[7])%len(ops)]
			}
			last := pf.Op
			if !pf.Op2.IsZero() {
				last = pf.Op2
			}
			if last.Kind == fp.OpRead && pf.OpRole == fp.RoleVictim {
				pf.R = fp.ValueOf(chunk[7] % 2)
			}
		}
		f.FPs = append(f.FPs, linked.Binding{FP: pf, A: b.A, V: b.V})
	}
	return f
}

// FuzzLanesVsScalar is the differential fuzz target of the lane engine:
// whatever fault the bytes decode into — eligible or fallback — the
// lane-enabled schedule must return exactly the scalar schedule's verdict
// and witness, and its verdict-only answer, for a random march test, size
// and order mode.
func FuzzLanesVsScalar(f *testing.F) {
	f.Add([]byte{0, 0}, uint8(0))
	f.Add([]byte{2, 1, 1, 2, 1, 0, 0, 4, 1, 0}, uint8(1))
	f.Add([]byte{1, 1, 0, 0, 1, 2, 0, 3, 5, 0}, uint8(7))
	f.Add([]byte{2, 0, 0, 2, 1, 1, 2, 5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		fault := fuzzFault(data)
		mt := fuzzTests[int(pick)%len(fuzzTests)]
		cfg := Config{
			Size:             4 + int(pick/16)%2,
			ExhaustiveOrders: pick/8%2 == 0,
		}
		scalar := forceScalar(cfg)
		lDet, lWit, lErr := DetectsFault(mt, fault, cfg)
		sDet, sWit, sErr := DetectsFault(mt, fault, scalar)
		if (lErr != nil) != (sErr != nil) {
			t.Fatalf("%s vs %s: lanes err=%v scalar err=%v", mt.Name, fault.ID(), lErr, sErr)
		}
		if lErr != nil {
			return
		}
		if lDet != sDet {
			t.Fatalf("%s vs %s: lanes detected=%v scalar detected=%v", mt.Name, fault.ID(), lDet, sDet)
		}
		if (lWit == nil) != (sWit == nil) || (lWit != nil && lWit.String() != sWit.String()) {
			t.Fatalf("%s vs %s: witness lanes=%v scalar=%v", mt.Name, fault.ID(), lWit, sWit)
		}
		verdict := func(cfg Config) (bool, error) {
			s, err := NewSchedule(mt, cfg)
			if err != nil {
				return false, err
			}
			m := s.getMachine()
			defer s.putMachine(m)
			det, _, err := s.detects(m, fault, false)
			return det, err
		}
		lVerdict, lvErr := verdict(cfg)
		sVerdict, svErr := verdict(scalar)
		if (lvErr != nil) != (svErr != nil) || lVerdict != sVerdict {
			t.Fatalf("%s vs %s: verdict-only detects lanes=(%v,%v) scalar=(%v,%v)",
				mt.Name, fault.ID(), lVerdict, lvErr, sVerdict, svErr)
		}
	})
}
