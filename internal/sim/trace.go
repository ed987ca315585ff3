package sim

import (
	"fmt"
	"io"
	"strings"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

// TraceStep records one operation of a traced simulation.
type TraceStep struct {
	// Element and OpIndex locate the operation in the march test.
	Element int
	OpIndex int
	// Addr is the cell the operation addresses.
	Addr int
	// Op is the operation.
	Op fp.Op
	// GoodBefore/FaultyBefore are the fault-cell values before the step
	// (indexed like the fault's cells).
	GoodBefore, FaultyBefore []fp.Value
	// GoodAfter/FaultyAfter are the fault-cell values after the step.
	GoodAfter, FaultyAfter []fp.Value
	// Fired lists the indices of the fault's primitives that fired.
	Fired []int
	// GoodRet/FaultyRet are the read return values (VX for writes).
	GoodRet, FaultyRet fp.Value
	// Detected marks a read whose returns differ.
	Detected bool
}

// Trace is a recorded simulation of one scenario.
type Trace struct {
	Test     march.Test
	Fault    linked.Fault
	Scenario Scenario
	Steps    []TraceStep
	Detected bool
}

// TraceScenario replays one scenario of a fault under a march test and
// records every operation: the tool behind "why does this test miss this
// fault". The whole run is recorded even after the first detection. It
// drives the compiled scalar path (runSteps) one step at a time over the
// scenario's stream and reads the machine's cells between steps, so a
// trace shows exactly the semantics verdicts and Schedule.FailingReads
// run.
func TraceScenario(t march.Test, f linked.Fault, s Scenario, cfg Config) (*Trace, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	size := cfg.size()
	if err := checkScenario(f, s.Placement, s.Init, size); err != nil {
		return nil, err
	}
	if len(s.Orders) != len(t.Elems) {
		return nil, fmt.Errorf("sim: scenario resolves %d orders, test has %d elements", len(s.Orders), len(t.Elems))
	}

	m := newMachine(size)
	hasState, hasDynamic := m.load(f, s.Placement, s.Init)
	steps := compileStream(t, s.Orders, size)
	tr := &Trace{Test: t, Fault: f, Scenario: *cloneScenario(s), Steps: make([]TraceStep, 0, len(steps))}

	// The machine holds only the faulty memory. The fault cells' good
	// values start at Init and follow the stream's writes; one backing
	// array holds the four cell snapshots of every step.
	k := f.Cells
	good := append([]fp.Value(nil), s.Init...)
	vals := make([]fp.Value, 4*k*len(steps))
	snapshot := func(faulty bool) []fp.Value {
		out := vals[:k:k]
		vals = vals[k:]
		for c, addr := range s.Placement {
			out[c] = good[c]
			if faulty {
				out[c] = m.faulty[addr]
			}
		}
		return out
	}
	detected := false
	fail := func(_, _, _ int) { detected = true }

	for i := range steps {
		cs := &steps[i]
		step := TraceStep{
			Element: cs.elem, OpIndex: cs.opIdx, Addr: cs.addr, Op: cs.op,
			GoodBefore: snapshot(false), FaultyBefore: snapshot(true),
			GoodRet: fp.VX, FaultyRet: fp.VX,
		}
		detected = false
		m.runSteps(s.Init, steps[i:i+1], hasState, hasDynamic, fail)
		cell := m.cellAt[cs.addr]
		switch cs.op.Kind {
		case fp.OpRead:
			// The good return is the compiled good trace, or the cell's
			// initial value before the stream first writes it. Every value
			// is binary, so a detecting read returns its complement.
			step.GoodRet = cs.good
			if !cs.goodKnown {
				step.GoodRet = fp.V0
				if cell >= 0 {
					step.GoodRet = s.Init[cell]
				}
			}
			step.FaultyRet = step.GoodRet
			if detected {
				step.FaultyRet = step.GoodRet.Not()
			}
		case fp.OpWrite:
			if cell >= 0 {
				good[cell] = cs.op.Data
			}
		}
		step.Detected = detected
		step.GoodAfter, step.FaultyAfter = snapshot(false), snapshot(true)
		gb, fb, ga, fa := step.GoodBefore, step.FaultyBefore, step.GoodAfter, step.FaultyAfter
		for i := range f.FPs {
			// A primitive "fired" when its victim's faulty value diverged
			// from (or converged back to) the good machine at this step.
			v := f.FPs[i].V
			divergedNow := fa[v] != ga[v] && fb[v] == gb[v]
			maskedNow := fa[v] == ga[v] && fb[v] != gb[v] && f.FPs[i].FP.F == fa[v]
			if divergedNow || maskedNow {
				step.Fired = append(step.Fired, i)
			}
		}
		tr.Steps = append(tr.Steps, step)
		tr.Detected = tr.Detected || detected
	}
	return tr, nil
}

// Render writes the trace as an aligned table. Only steps touching the
// fault's cells (or firing a primitive) are shown unless full is true.
func (tr *Trace) Render(w io.Writer, full bool) error {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %s vs %s\n", tr.Test.Name, tr.Fault.ID())
	fmt.Fprintf(&b, "scenario: %s\n", tr.Scenario.String())
	fmt.Fprintf(&b, "%-5s %-4s %-4s %-4s  %-10s %-10s %-6s %s\n",
		"elem", "op", "addr", "oper", "good", "faulty", "ret", "notes")
	touched := map[int]bool{}
	for _, a := range tr.Scenario.Placement {
		touched[a] = true
	}
	for _, s := range tr.Steps {
		if !full && !touched[s.Addr] && len(s.Fired) == 0 && !s.Detected {
			continue
		}
		ret := ""
		if s.Op.Kind == fp.OpRead {
			ret = s.GoodRet.String() + "/" + s.FaultyRet.String()
		}
		notes := ""
		if len(s.Fired) > 0 {
			parts := make([]string, len(s.Fired))
			for i, fi := range s.Fired {
				parts[i] = fmt.Sprintf("FP%d fired", fi+1)
			}
			notes = strings.Join(parts, ", ")
		}
		if s.Detected {
			if notes != "" {
				notes += "; "
			}
			notes += "DETECTED"
		}
		fmt.Fprintf(&b, "M%-4d %-4d %-4d %-4s  %-10s %-10s %-6s %s\n",
			s.Element, s.OpIndex, s.Addr, s.Op,
			valuesString(s.GoodAfter), valuesString(s.FaultyAfter), ret, notes)
	}
	if tr.Detected {
		b.WriteString("result: DETECTED\n")
	} else {
		b.WriteString("result: NOT DETECTED (masked or never sensitized)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func valuesString(vals []fp.Value) string {
	var b strings.Builder
	for _, v := range vals {
		b.WriteString(v.String())
	}
	return b.String()
}
