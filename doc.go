// Package marchgen is a Go reproduction of "Automatic March Tests
// Generations for Static Linked Faults in SRAMs" (Benso, Bosio, Di Carlo,
// Di Natale, Prinetto — DATE 2006): an automatic generator of SRAM march
// tests targeting static linked faults, together with every substrate the
// paper depends on.
//
// # What a linked fault is
//
// A linked fault is a pair of fault primitives FP1 → FP2 where the second
// masks the first: FP2 flips the victim cell back to its fault-free value
// before any read can observe FP1's corruption, which is why classic march
// tests (March C-, MATS+, ...) miss these faults. Detecting a linked fault
// requires observing at least one of the two primitives in isolation.
//
// # Package map
//
//   - marchgen (this package) — stable facade over the internal packages.
//   - internal/fp — fault primitive notation <S/F/R> and the static fault
//     catalog (SF, TF, WDF, RDF, DRDF, IRF, DRF, CFst, CFds, CFtr, CFwd,
//     CFrd, CFdr, CFir).
//   - internal/linked, internal/faultlist — the linked fault model
//     (Definition 6/7) and the paper's Fault Lists #1 and #2.
//   - internal/automaton, internal/graph, internal/afp — the memory Mealy
//     automaton, the pattern graph (Figures 2-4), and addressed fault
//     primitives / test patterns (Definitions 4, 5, 7).
//   - internal/march — march test notation, parser and the published test
//     library (March SL, LF1, ABL, RABL, ABL1, ...).
//   - internal/sim — the memory fault simulator used to certify every
//     generated test, with dynamic-fault arming and witness tracing.
//     Verdicts, syndromes and traces all run on compiled simulation
//     schedules (op-stream tries with a precomputed good-machine trace,
//     placement-equivalence classes, pooled machines), pinned
//     bit-identical to the independent reference simulator in
//     internal/oracle; see DESIGN.md §7 and §11.
//   - internal/core — the generation algorithm (Section 5, Figure 5),
//     including the Section 7 order-constrained profiles.
//   - internal/bist, internal/defect, internal/topo, internal/word,
//     internal/diagnose, internal/af, internal/mport — the extensions:
//     BIST cost model, defect-to-fault mapping, array topology,
//     word-oriented memories, fault diagnosis, address decoder faults and
//     the two-port memory prototype (see DESIGN.md for the full
//     inventory).
//
// # Quick start
//
//	faults := marchgen.List2()                       // single-cell linked faults
//	res, err := marchgen.Generate(faults, marchgen.Options{Name: "March X1"})
//	if err != nil { ... }
//	fmt.Println(res.Test)            // e.g. ⇕(w0) ⇑(r0,r0,w1,w1,r1,r1)
//	fmt.Println(res.Report.Summary()) // 18/18 detected (100.0%)
//
// See the examples directory and the cmd tools (marchgen, marchsim,
// faultls, pgdot, table1) for complete programs.
package marchgen
