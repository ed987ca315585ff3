package sim

import (
	"marchgen/internal/fp"
	"marchgen/internal/linked"
)

// The bit-parallel lane engine.
//
// For a static fault the compiled schedule already collapses placements into
// placement classes (placementClass): all that distinguishes the scenarios
// of one fault is the relative address order of its k cells (k! classes) and
// their initial values (2^k backgrounds). That is at most 3!·2³ = 48
// independent scenario variants per order combination — and every one of
// them runs the SAME operation stream, because the stream depends only on
// (test, orders, size), never on the fault.
//
// So instead of stepping the variants one at a time, the lane engine packs
// them into the bits of uint64 words, one bit per lane ("lane" = one
// class × background variant), PPSFP-style:
//
//   - lane layout: lane p·2^k + b is the representative placement of the
//     p-th cell permutation (cells packed into addresses 0..k-1, cell
//     perm[a] at address a) under init background b (bit c of b is cell c's
//     initial value);
//   - state: vs[c] holds cell c's faulty value across all lanes (bit set =
//     the cell reads 1 in that lane);
//   - the step kernels for write, read and fault effects are bitwise:
//     trigger conditions become AND-masks over vs and the placement masks,
//     effects become masked set/clear, and a read accumulates a detect mask
//     by XOR-ing the lanes' faulty read values against the shared good
//     trace;
//   - the order-choice trie is walked by the same trie.walk as the scalar
//     runner (walkLanes), with k+1 words of snapshot per depth instead of a
//     full memory image.
//
// Eligibility (planLanes) is conservative: any binding whose semantics do
// not decompose into per-lane bitwise steps — dynamic (armed) primitives,
// wait-sensitized data retention, non-binary fault values, aggressor=victim
// hand-builts — and any fault with more than maxLaneCells cells falls back
// to the scalar path, which remains the single source of truth for those.
// State-triggered primitives (SF, CFst) DO decompose: the settle fixpoint is
// a masked fixpoint iteration with the same oscillation bound as the scalar
// settleCtx, so the big SF/CFst-heavy fault lists stay on the fast path.
//
// Verdicts and witnesses are bit-identical to the scalar path: the per-class
// fold (laneClasses) recovers, for every class, the first missing init
// background and the lowest missing order-combination leaf — exactly the
// classResult the scalar runBlock/runTree pair memoizes — and the ordinary
// placement loop then reconstructs the enumeration-order witness from it.

// maxLaneCells is the largest fault cell count the lane engine packs; with
// k ≤ 3, k!·2^k ≤ 48 lanes fit one uint64 word.
const maxLaneCells = maxClassCells

// lanePerms[k] enumerates the cell permutations of a k-cell fault. perm[a]
// is the cell placed at address a; the enumeration order fixes the lane
// block order (lane block p covers permutation lanePerms[k][p]).
var lanePerms = [maxLaneCells + 1][][]int{
	1: {{0}},
	2: {{0, 1}, {1, 0}},
	3: {
		{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
		{1, 2, 0}, {2, 0, 1}, {2, 1, 0},
	},
}

// laneOpCtx is the lane-resolved form of one operation-triggered static
// binding: everything the bitwise trigger/effect kernel needs.
type laneOpCtx struct {
	roleCell  int // cell the sensitizing operation addresses
	vCell     int // victim cell (effect target)
	aCell     int // aggressor cell, -1 when none
	opKind    fp.OpKind
	opData    fp.Value // write data of the sensitizing operation
	aInit     fp.Value // VX when unconstrained
	vInit     fp.Value // VX when unconstrained
	fvBit     bool     // F == V1
	rOverride bool     // binary R on a victim read: override the read value
	rBit      bool     // R == V1
}

// laneStateCtx is the lane-resolved form of one state-triggered binding
// that can actually fire (binary VInit, F ≠ VInit).
type laneStateCtx struct {
	vCell int
	aCell int      // -1 when none
	aInit fp.Value // VX when unconstrained
	vInit fp.Value // binary
	fvBit bool     // F == V1
}

// lanePlan is the compiled per-fault lane layout: placement masks, initial
// backgrounds and binding kernels. It lives on the pooled machine and is
// rebuilt (without allocating, steady-state) by planLanes for every fault.
// Walking it writes nothing into it, so a checkpoint's copy (clone) is read
// by every checkpoint forked from it.
type lanePlan struct {
	k         int
	lanes     int
	full      uint64 // mask of the populated lanes
	hasState  bool
	nFPs      int // settle oscillation bound, = len(f.FPs) like the scalar path
	opCtxs    []laneOpCtx
	stateCtxs []laneStateCtx
	// hit[a][c] masks the lanes in which cell c sits at address a (zero for
	// a ≥ k: a bystander address in every lane).
	hit [maxLaneCells][maxLaneCells]uint64
	// initMask[c] masks the lanes in which cell c starts at 1.
	initMask  [maxLaneCells]uint64
	classKeys []int // placementClass rank of each permutation's placements
}

// laneValue accepts the three legal memory values; anything else is a
// hand-built corruption the bitwise kernels cannot represent.
func laneValue(v fp.Value) bool { return v == fp.V0 || v == fp.V1 || v == fp.VX }

// planLanes decides lane eligibility for a fault and, when eligible,
// compiles the machine's lane plan. It must only say yes when the bitwise
// kernels reproduce the scalar semantics exactly; every fallback is a
// correctness fallback, not an optimization.
func (s *Schedule) planLanes(m *machine, f linked.Fault) bool {
	if s.cfg.scalar || !s.laneWrites {
		return false
	}
	k := f.Cells
	if k < 1 || k > maxLaneCells || k >= s.size {
		return false
	}
	p := &m.plan
	p.k = k
	p.nFPs = len(f.FPs)
	p.opCtxs = p.opCtxs[:0]
	p.stateCtxs = p.stateCtxs[:0]
	for i := range f.FPs {
		b := &f.FPs[i]
		pf := &b.FP
		if pf.IsDynamic() {
			return false // arming bookkeeping stays scalar
		}
		if !pf.F.IsBinary() || !laneValue(pf.VInit) {
			return false
		}
		aInit := pf.AInit
		if pf.Cells != 2 {
			// MatchesOp only constrains the aggressor state of two-cell
			// primitives; mirror bindFault's normalization.
			aInit = fp.VX
		}
		if !laneValue(aInit) {
			return false
		}
		if b.A >= 0 && b.A == b.V {
			// Hand-built aggressor=victim binding: the scalar hit test
			// resolves the role conflict victim-first; keep that subtlety in
			// one place.
			return false
		}
		inert := aInit != fp.VX && b.A < 0 // bindFault neuters these entirely
		switch pf.Trigger {
		case fp.TrigState:
			if inert || !pf.VInit.IsBinary() || pf.F == pf.VInit {
				// Never sensitizes (or never changes the victim): the scalar
				// settle skips it too. It still counts toward nFPs.
				continue
			}
			p.stateCtxs = append(p.stateCtxs, laneStateCtx{
				vCell: b.V, aCell: b.A, aInit: aInit, vInit: pf.VInit,
				fvBit: pf.F == fp.V1,
			})
		case fp.TrigOp:
			if pf.Op.Kind == fp.OpWait {
				return false // data retention is time-based; scalar only
			}
			if inert {
				continue
			}
			roleCell := -1
			switch pf.OpRole {
			case fp.RoleVictim:
				roleCell = b.V
			case fp.RoleAggressor:
				roleCell = b.A
			}
			if roleCell < 0 {
				continue // no cell to address: can never match
			}
			if pf.Op.Kind != fp.OpRead && pf.Op.Kind != fp.OpWrite {
				continue // zero Op (hand-built): can never match
			}
			if pf.Op.Kind == fp.OpWrite && !pf.Op.Data.IsBinary() {
				continue // a don't-care write datum matches no binary stream write
			}
			p.opCtxs = append(p.opCtxs, laneOpCtx{
				roleCell: roleCell, vCell: b.V, aCell: b.A,
				opKind: pf.Op.Kind, opData: pf.Op.Data,
				aInit: aInit, vInit: pf.VInit,
				fvBit:     pf.F == fp.V1,
				rOverride: pf.OpRole == fp.RoleVictim && pf.R.IsBinary(),
				rBit:      pf.R == fp.V1,
			})
		default:
			return false
		}
	}
	p.hasState = len(p.stateCtxs) > 0

	perms := lanePerms[k]
	lanesPerPerm := 1 << k
	p.lanes = len(perms) * lanesPerPerm
	p.full = uint64(1)<<p.lanes - 1
	blockFull := uint64(1)<<lanesPerPerm - 1
	var blockInit [maxLaneCells]uint64
	for c := 0; c < k; c++ {
		for b := 0; b < lanesPerPerm; b++ {
			if b>>c&1 == 1 {
				blockInit[c] |= uint64(1) << b
			}
		}
	}
	for a := range p.hit {
		for c := range p.hit[a] {
			p.hit[a][c] = 0
		}
	}
	for c := range p.initMask {
		p.initMask[c] = 0
	}
	p.classKeys = p.classKeys[:0]
	for pi, perm := range perms {
		shift := pi * lanesPerPerm
		key := 0
		for a := 0; a < k; a++ {
			c := perm[a]
			p.hit[a][c] |= blockFull << shift
			key = key*classKeyBase + c + 1
		}
		for c := 0; c < k; c++ {
			p.initMask[c] |= blockInit[c] << shift
		}
		p.classKeys = append(p.classKeys, key)
	}
	return true
}

// settle applies the state-triggered primitives until a per-lane fixpoint,
// with the scalar settleCtx's oscillation bound: nFPs+1 iterations. Within
// an iteration the primitives apply in binding order, so a primitive's
// effect is visible to the conditions of the next — exactly the scalar
// sequence, evaluated on 48 lanes at once. Lanes already at a fixpoint are
// untouched by further iterations (the fixpoint is absorbing), so the shared
// iteration count never desynchronizes them from the scalar path.
func (p *lanePlan) settle(vs *[maxLaneCells]uint64) {
	for iter := 0; iter <= p.nFPs; iter++ {
		progress := uint64(0)
		for i := range p.stateCtxs {
			c := &p.stateCtxs[i]
			cond := p.full
			if c.aInit != fp.VX {
				mask := vs[c.aCell]
				if c.aInit == fp.V0 {
					mask = ^mask
				}
				cond &= mask
			}
			mask := vs[c.vCell]
			if c.vInit == fp.V0 {
				mask = ^mask
			}
			cond &= mask
			if cond == 0 {
				continue
			}
			// planLanes guarantees F ≠ VInit, so every matching lane flips.
			if c.fvBit {
				vs[c.vCell] |= cond
			} else {
				vs[c.vCell] &^= cond
			}
			progress |= cond
		}
		if progress == 0 {
			return
		}
	}
}

// runSteps advances every lane over one compiled segment and returns the
// accumulated detect mask. It mirrors the scalar runSteps stage for stage:
// triggers on the pre-operation state, base write semantics, effects in
// binding order (with read-value overrides), then settling. matched is the
// per-opCtx matched-lane scratch, valid within a step.
func (p *lanePlan) runSteps(matched []uint64, steps []opStep, vs *[maxLaneCells]uint64, detect uint64) uint64 {
	k := p.k
	full := p.full
	for si := range steps {
		st := &steps[si]
		op := st.op
		addr := st.addr
		if op.Kind == fp.OpWait {
			// No lane-eligible binding is wait-sensitized and the state is
			// at a settle fixpoint entering every step, so time passing
			// changes nothing. (Disarming does not apply: no dynamics.)
			continue
		}
		if addr >= k {
			// The representative placements pack the fault cells into
			// addresses 0..k-1, so this address is a bystander in EVERY
			// lane: its faulty value equals the good trace by induction and
			// no primitive can match it.
			continue
		}
		hitRow := &p.hit[addr]

		// 1. Trigger masks against the pre-operation lane state.
		anyMatched := uint64(0)
		for i := range p.opCtxs {
			c := &p.opCtxs[i]
			mm := uint64(0)
			if op.Kind == c.opKind && (op.Kind != fp.OpWrite || op.Data == c.opData) {
				mm = hitRow[c.roleCell]
				if c.aInit != fp.VX {
					cond := vs[c.aCell]
					if c.aInit == fp.V0 {
						cond = ^cond
					}
					mm &= cond
				}
				if c.vInit != fp.VX {
					cond := vs[c.vCell]
					if c.vInit == fp.V0 {
						cond = ^cond
					}
					mm &= cond
				}
			}
			matched[i] = mm
			anyMatched |= mm
		}

		// 2. Base operation semantics. Reads capture the pre-effect faulty
		// values; the good value comes from the compiled trace (or the
		// lane's init background before the stream's first write).
		isRead := op.Kind == fp.OpRead
		var faultyRead, goodMask uint64
		if isRead {
			if st.goodKnown {
				if st.good == fp.V1 {
					goodMask = full
				}
			} else {
				for c := 0; c < k; c++ {
					goodMask |= hitRow[c] & p.initMask[c]
				}
			}
			for c := 0; c < k; c++ {
				faultyRead |= hitRow[c] & vs[c]
			}
		} else { // write (waits were handled above)
			if op.Data == fp.V1 {
				for c := 0; c < k; c++ {
					vs[c] |= hitRow[c]
				}
			} else {
				for c := 0; c < k; c++ {
					vs[c] &^= hitRow[c]
				}
			}
		}

		// 3. Fault effects, in binding order (FP1 before FP2).
		if anyMatched != 0 {
			for i := range p.opCtxs {
				mm := matched[i]
				if mm == 0 {
					continue
				}
				c := &p.opCtxs[i]
				if c.fvBit {
					vs[c.vCell] |= mm
				} else {
					vs[c.vCell] &^= mm
				}
				// mm ⊆ hit[addr][vCell] when the role is victim, so the
				// scalar's "victim is the addressed cell" condition is
				// already folded into the mask.
				if isRead && c.rOverride {
					if c.rBit {
						faultyRead |= mm
					} else {
						faultyRead &^= mm
					}
				}
			}
		}

		// 4. Settle. The scalar path settles only when the step changed a
		// cell; settling a fixpoint is a no-op, so settling on every write
		// is the same state for strictly less bookkeeping.
		if p.hasState && (!isRead || anyMatched != 0) {
			p.settle(vs)
		}

		if isRead {
			detect |= faultyRead ^ goodMask
		}
	}
	return detect
}

// laneInitState seeds the lane state for a fresh block: every cell holds its
// background bit, then state faults settle — the lane image of
// machine.load's reset + initial settleCtx.
func (p *lanePlan) laneInitState(vs *[maxLaneCells]uint64) {
	for c := 0; c < maxLaneCells; c++ {
		vs[c] = 0
	}
	for c := 0; c < p.k; c++ {
		vs[c] = p.initMask[c]
	}
	if p.hasState {
		p.settle(vs)
	}
}

const laneSnapWords = maxLaneCells + 1 // k cell words + the detect mask

// walkLanes walks the trie (trie.walk) once for all lanes of plan p, from
// cell words vs and detect mask detect, and calls leaf with the leaf index
// and detect mask of every leaf some lane reaches undetected; leaf stops the
// walk by returning false. node, when not nil, is called after every
// segment some lane leaves undetected, with the segment's depth, the cell
// words and the detect mask: the boundary states a Checkpoint keeps. The
// words go by value: a pointer handed to a func value escapes, one
// allocation per fault.
func (t *trie) walkLanes(m *machine, p *lanePlan, vs [maxLaneCells]uint64, detect uint64,
	node func(d int, vs [maxLaneCells]uint64, detect uint64), leaf func(l int, detect uint64) bool) {
	n := t.elems * laneSnapWords
	if cap(m.laneSnap) < n {
		m.laneSnap = make([]uint64, n)
	}
	snap := m.laneSnap[:n]
	if cap(m.laneMatched) < len(p.opCtxs) {
		m.laneMatched = make([]uint64, len(p.opCtxs))
	}
	matched := m.laneMatched[:len(p.opCtxs)]
	t.walk(
		func(d int, steps []opStep) bool {
			detect = p.runSteps(matched, steps, &vs, detect)
			if detect == p.full {
				return true
			}
			if node != nil {
				node(d, vs, detect)
			}
			return false
		},
		func(d int) {
			o := d * laneSnapWords
			copy(snap[o:o+maxLaneCells], vs[:])
			snap[o+maxLaneCells] = detect
		},
		func(d int) {
			o := d * laneSnapWords
			copy(vs[:], snap[o:o+maxLaneCells])
			detect = snap[o+maxLaneCells]
		},
		func(l int) bool { return leaf(l, detect) })
}

// laneClasses resolves every placement class of the planned fault with one
// bit-parallel trie walk and writes the results into the class table. The
// walk fills the machine's per-leaf miss masks: bit l of laneLeafMiss[leaf]
// is set when lane l fails to detect the fault under order combination
// leaf, and pruned leaves keep the all-detected zero mask. For each
// permutation's lane block the fold recovers the scalar runBlock contract:
// the FIRST missing init background (backgrounds ascending) and, within it,
// the LOWEST missing orderSets leaf — so the placement loop reconstructs
// witnesses in exact enumeration order.
func (s *Schedule) laneClasses(m *machine, classes *[classSpace]classResult) {
	p := &m.plan
	if cap(m.laneLeafMiss) < len(s.orderSets) {
		m.laneLeafMiss = make([]uint64, len(s.orderSets))
	}
	leafMiss := m.laneLeafMiss[:len(s.orderSets)]
	clear(leafMiss)
	var vs [maxLaneCells]uint64
	p.laneInitState(&vs)
	s.walkLanes(m, p, vs, 0, nil, func(l int, detect uint64) bool {
		leafMiss[l] = ^detect & p.full
		return true
	})
	lanesPerPerm := 1 << p.k
	for pi, key := range p.classKeys {
		base := pi * lanesPerPerm
		res := classResult{done: true}
	backgrounds:
		for b := 0; b < lanesPerPerm; b++ {
			bit := uint64(1) << (base + b)
			for leaf := range leafMiss {
				if leafMiss[leaf]&bit != 0 {
					res.miss, res.initBits, res.leaf = true, b, leaf
					break backgrounds
				}
			}
		}
		classes[key] = res
	}
}
