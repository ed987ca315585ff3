package sim

import (
	"bytes"
	"strings"
	"testing"

	"marchgen/internal/fp"
	"marchgen/internal/linked"
	"marchgen/internal/march"
)

func traceScenario(t *testing.T, m march.Test, f linked.Fault, init fp.Value) *Trace {
	t.Helper()
	orders := make([]march.AddrOrder, len(m.Elems))
	for i, e := range m.Elems {
		orders[i] = e.Order
		if orders[i] == march.Any {
			orders[i] = march.Up
		}
	}
	placement := make([]int, f.Cells)
	inits := make([]fp.Value, f.Cells)
	for i := range placement {
		placement[i] = i
		inits[i] = init
	}
	tr, err := TraceScenario(m, f, Scenario{Placement: placement, Init: inits, Orders: orders}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The documented March LF1 miss (TF up masked by a pre-empting deceptive
// read) replayed step by step: the trace must show the fault firing without
// any detection.
func TestTraceMaskedFault(t *testing.T) {
	lf, err := linked.NewLF1(fp.MustParseFP("<0w1/0/->"), fp.MustParseFP("<0r0/1/0>"))
	if err != nil {
		t.Fatal(err)
	}
	tr := traceScenario(t, march.MarchLF1, lf, fp.V0)
	if tr.Detected {
		t.Fatal("this scenario is the documented March LF1 miss; it must not detect")
	}
	fired := false
	for _, s := range tr.Steps {
		if s.Detected {
			t.Error("no step may detect")
		}
		if len(s.Fired) > 0 {
			fired = true
		}
	}
	if !fired {
		t.Error("the masked fault must fire at least once in the trace")
	}
	var buf bytes.Buffer
	if err := tr.Render(&buf, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NOT DETECTED", "fired", "March LF1"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

// A detected scenario shows the detecting read.
func TestTraceDetectedFault(t *testing.T) {
	sf, err := linked.NewSimple(fp.MustParseFP("<0w1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	tr := traceScenario(t, march.MATSPlus, sf, fp.V0)
	if !tr.Detected {
		t.Fatal("MATS+ detects the transition fault in this scenario")
	}
	sawDetect := false
	for _, s := range tr.Steps {
		if s.Detected {
			sawDetect = true
			if s.Op.Kind != fp.OpRead {
				t.Error("detection must happen on a read")
			}
			if s.GoodRet == s.FaultyRet {
				t.Error("detected step must have diverging read returns")
			}
		}
	}
	if !sawDetect {
		t.Error("no detecting step recorded")
	}
	var buf bytes.Buffer
	if err := tr.Render(&buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DETECTED") {
		t.Error("rendered trace must flag the detection")
	}
}

// TestTraceScenarioValidation: TraceScenario refuses, with an error rather
// than a panic, every scenario DetectsFault would never enumerate.
func TestTraceScenarioValidation(t *testing.T) {
	sf, err := linked.NewSimple(fp.MustParseFP("<0w1/0/->"))
	if err != nil {
		t.Fatal(err)
	}
	cfst, err := linked.NewSimple(fp.MustParseFP("<0;0/1/->"))
	if err != nil {
		t.Fatal(err)
	}
	orders := []march.AddrOrder{march.Up, march.Up, march.Down}
	for _, bad := range []struct {
		name string
		f    linked.Fault
		s    Scenario
		cfg  Config
	}{
		{"placement arity", sf, Scenario{Placement: []int{0, 1}, Init: []fp.Value{fp.V0, fp.V0}, Orders: orders}, DefaultConfig()},
		{"order arity", sf, Scenario{Placement: []int{0}, Init: []fp.Value{fp.V0}, Orders: orders[:1]}, DefaultConfig()},
		{"address outside the memory", sf, Scenario{Placement: []int{7}, Init: []fp.Value{fp.V0}, Orders: orders}, DefaultConfig()},
		{"negative address", sf, Scenario{Placement: []int{-1}, Init: []fp.Value{fp.V0}, Orders: orders}, DefaultConfig()},
		{"init shorter than placement", cfst, Scenario{Placement: []int{0, 1}, Init: []fp.Value{fp.V0}, Orders: orders}, DefaultConfig()},
		{"no bystander", sf, Scenario{Placement: []int{0}, Init: []fp.Value{fp.V0}, Orders: orders}, Config{Size: 1}},
		{"duplicate addresses", cfst, Scenario{Placement: []int{1, 1}, Init: []fp.Value{fp.V0, fp.V0}, Orders: orders}, DefaultConfig()},
		{"non-binary initial value", sf, Scenario{Placement: []int{0}, Init: []fp.Value{fp.VX}, Orders: orders}, DefaultConfig()},
	} {
		if _, err := TraceScenario(march.MATSPlus, bad.f, bad.s, bad.cfg); err == nil {
			t.Errorf("%s: accepted", bad.name)
		}
	}
}
