// Package faultlist assembles the target fault lists of the paper's
// experimental section (Section 6):
//
//	Fault List #1 — single-, two- and three-cell static linked faults
//	Fault List #2 — single-cell static linked faults
//
// The DATE 2006 paper does not reprint the lists; it cites the realistic
// static linked faults of Hamdioui et al. ([10], [16]). This package
// enumerates them systematically from the static fault-primitive catalog and
// the linking predicate of Definitions 6/7 (see linked.CheckLink), which is
// exactly the space the paper's generator is claimed to handle. The
// enumeration counts are pinned by tests and recorded in EXPERIMENTS.md.
//
// The lists are built afresh on every call; the service resolves a named
// list per request. linked.Links, the non-allocating form of the predicate,
// discards the rejected pairs before any Fault is built, so a call costs
// about one allocation per fault.
//
// The package also provides the simple (un-linked) static fault lists used
// to validate the fault simulator against known literature results.
package faultlist

import (
	"slices"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
)

// fp1SingleCandidates returns the single-cell primitives that can appear as
// the masked component FP1 of a linked fault: operation-triggered primitives
// that corrupt stored data without being caught by their own sensitizing
// read (TF, WDF, DRDF).
func fp1SingleCandidates() []fp.FP {
	var out []fp.FP
	for _, f := range fp.AllSingleCellStatic() {
		if f.Trigger == fp.TrigOp && f.ChangesState() && !f.Misreads() {
			out = append(out, f)
		}
	}
	return out
}

// fp1CouplingCandidates returns the two-cell primitives usable as FP1
// (CFds, CFtr, CFwd, CFdr).
func fp1CouplingCandidates() []fp.FP {
	var out []fp.FP
	for _, f := range fp.AllTwoCellStatic() {
		if f.Trigger == fp.TrigOp && f.ChangesState() && !f.Misreads() {
			out = append(out, f)
		}
	}
	return out
}

// LF1s enumerates the single-cell linked faults: every ordered pair of
// single-cell primitives satisfying the linking predicate.
func LF1s() []linked.Fault {
	return linkPairs(fp1SingleCandidates(), fp.AllSingleCellStatic(), linked.LF1, linked.NewLF1)
}

// LF2aas enumerates the two-cell linked faults whose primitives share both
// the aggressor and the victim.
func LF2aas() []linked.Fault {
	return linkPairs(fp1CouplingCandidates(), fp.AllTwoCellStatic(), linked.LF2aa, linked.NewLF2aa)
}

// LF2avs enumerates the two-cell linked faults where a coupling FP1 is
// masked by a single-cell FP2 on the victim.
func LF2avs() []linked.Fault {
	return linkPairs(fp1CouplingCandidates(), fp.AllSingleCellStatic(), linked.LF2av, linked.NewLF2av)
}

// LF2vas enumerates the two-cell linked faults where a single-cell FP1 on
// the victim is masked by a coupling FP2.
func LF2vas() []linked.Fault {
	return linkPairs(fp1SingleCandidates(), fp.AllTwoCellStatic(), linked.LF2va, linked.NewLF2va)
}

// LF3s enumerates the three-cell linked faults of Figure 1: two coupling
// primitives with distinct aggressors sharing the victim.
func LF3s() []linked.Fault {
	return linkPairs(fp1CouplingCandidates(), fp.AllTwoCellStatic(), linked.LF3, linked.NewLF3)
}

// linkPairs builds, in catalog order (firsts outer, seconds inner), every
// fault of the given kind that pairs a primitive of firsts with one of
// seconds. linked.Links rejects most of the pair space without allocating;
// an accepted pair still goes through the kind's constructor and its full
// Validate.
func linkPairs(firsts, seconds []fp.FP, kind linked.Kind, build func(f1, f2 fp.FP) (linked.Fault, error)) []linked.Fault {
	var out []linked.Fault
	for _, f1 := range firsts {
		for _, f2 := range seconds {
			if !linked.Links(f1, f2, kind) {
				continue
			}
			if ft, err := build(f1, f2); err == nil {
				out = append(out, ft)
			}
		}
	}
	return out
}

// List2 is the paper's Fault List #2: the single-cell static linked faults.
func List2() []linked.Fault {
	return LF1s()
}

// List1 is the paper's Fault List #1: single-, two- and three-cell static
// linked faults.
func List1() []linked.Fault {
	return slices.Concat(LF1s(), LF2aas(), LF2avs(), LF2vas(), LF3s())
}

// Realistic filters a fault list down to the truly masking pairs (see
// linked.TrulyMasks): the pairs for which S2 leaves no observable error
// behind, which are the hard core of the list.
func Realistic(faults []linked.Fault) []linked.Fault {
	var out []linked.Fault
	for _, f := range faults {
		if !f.Kind.IsLinked() {
			continue
		}
		if linked.TrulyMasks(f.FP1().FP, f.FP2().FP) {
			out = append(out, f)
		}
	}
	return out
}

// SimpleSingleCell returns the 12 simple single-cell static faults
// (SF, TF, WDF, RDF, DRDF, IRF) as simulator targets.
func SimpleSingleCell() []linked.Fault {
	return wrapSimple(fp.AllSingleCellStatic())
}

// SimpleTwoCell returns the 36 simple two-cell static faults (CFst, CFds,
// CFtr, CFwd, CFrd, CFdr, CFir) as simulator targets.
func SimpleTwoCell() []linked.Fault {
	return wrapSimple(fp.AllTwoCellStatic())
}

// SimpleStatic returns all 48 simple static faults.
func SimpleStatic() []linked.Fault {
	return append(SimpleSingleCell(), SimpleTwoCell()...)
}

// DynamicSingleCell returns the 18 simple single-cell two-operation dynamic
// faults (dRDF, dDRDF, dIRF).
func DynamicSingleCell() []linked.Fault {
	return wrapSimple(fp.AllSingleCellDynamic())
}

// DynamicTwoCell returns the 48 simple two-cell two-operation dynamic
// faults (dCFds, dCFrd, dCFdr, dCFir).
func DynamicTwoCell() []linked.Fault {
	return wrapSimple(fp.AllTwoCellDynamic())
}

// Dynamic returns all 66 simple two-operation dynamic faults — the target
// space of the group's companion ETS 2005 paper ("static and dynamic
// faults"), included here as the natural extension of the framework.
func Dynamic() []linked.Fault {
	return append(DynamicSingleCell(), DynamicTwoCell()...)
}

func wrapSimple(fps []fp.FP) []linked.Fault {
	out := make([]linked.Fault, 0, len(fps))
	for _, f := range fps {
		ft, err := linked.NewSimple(f)
		if err != nil {
			panic(err) // catalog entries always wrap
		}
		out = append(out, ft)
	}
	return out
}

// ByName resolves the named lists used by the command-line tools:
// "1"/"list1", "2"/"list2", "simple", "simple1", "simple2",
// "realistic1", "realistic2".
func ByName(name string) ([]linked.Fault, bool) {
	switch name {
	case "1", "list1":
		return List1(), true
	case "2", "list2":
		return List2(), true
	case "simple":
		return SimpleStatic(), true
	case "simple1":
		return SimpleSingleCell(), true
	case "simple2":
		return SimpleTwoCell(), true
	case "realistic1":
		return Realistic(List1()), true
	case "realistic2":
		return Realistic(List2()), true
	case "dynamic":
		return Dynamic(), true
	case "dynamic1":
		return DynamicSingleCell(), true
	case "dynamic2":
		return DynamicTwoCell(), true
	}
	return nil, false
}

// Names lists the fault-list names understood by ByName.
func Names() []string {
	return []string{
		"list1", "list2", "simple", "simple1", "simple2",
		"realistic1", "realistic2", "dynamic", "dynamic1", "dynamic2",
	}
}
